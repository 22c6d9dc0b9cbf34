#include "trace.hh"

#include <cstdio>
#include <stdexcept>

namespace pb
{

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now())
{
    if (enabled_)
        spans_.reserve(1 << 16);
}

std::int64_t
Tracer::nowNs() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
}

int
Tracer::begin(const char *name)
{
    if (!enabled_)
        return -1;
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.op = op_;
    s.startNs = nowNs();
    spans_.push_back(s);
    const int idx = static_cast<int>(spans_.size() - 1);
    open_.push_back(idx);
    return idx;
}

void
Tracer::end(int idx)
{
    if (idx < 0)
        return;
    spans_[static_cast<std::size_t>(idx)].endNs = nowNs();
    // Spans nest strictly (RAII scopes on one thread).
    if (open_.empty() || open_.back() != idx)
        throw std::logic_error("trace: span closed out of order");
    open_.pop_back();
}

std::size_t
Tracer::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spans_)
        n += name == s.name;
    return n;
}

double
Tracer::totalSeconds(const std::string &name) const
{
    double t = 0.0;
    for (const Span &s : spans_)
        if (name == s.name)
            t += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    return t;
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] +=
            static_cast<double>(spans_[i].endNs - spans_[i].startNs) *
            1e-9;
    for (const Span &s : spans_)
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -=
                static_cast<double>(s.endNs - s.startNs) * 1e-9;
    return self;
}

double
Tracer::selfSeconds(const std::string &name) const
{
    const std::vector<double> self = selfTimes();
    double t = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            t += self[i];
    return t;
}

std::map<std::string, double>
Tracer::selfSecondsByLayer() const
{
    const std::vector<double> self = selfTimes();
    std::map<std::string, double> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string n = spans_[i].name;
        out[n.substr(0, n.find('.'))] += self[i];
    }
    return out;
}

double
Tracer::rootSeconds() const
{
    double t = 0.0;
    for (const Span &s : spans_)
        if (s.parent < 0)
            t += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    return t;
}

void
Tracer::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        throw std::runtime_error("cannot write trace " + path);
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d, "
                     "\"op\": %u}}",
                     i ? ",\n" : "", s.name,
                     static_cast<double>(s.startNs) * 1e-3,
                     static_cast<double>(s.endNs - s.startNs) * 1e-3, i,
                     s.parent, s.op);
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
}

} // namespace pb

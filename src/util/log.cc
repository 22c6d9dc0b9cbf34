#include "util/log.hh"

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace lp
{

namespace
{

bool quiet_ = false;

void
vlog(const char *prefix, const char *fmt, va_list ap)
{
    std::fprintf(stderr, "%s", prefix);
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
}

} // namespace

void
setQuiet(bool quiet)
{
    quiet_ = quiet;
}

bool
quiet()
{
    return quiet_;
}

void
inform(const char *fmt, ...)
{
    if (quiet_)
        return;
    va_list ap;
    va_start(ap, fmt);
    vlog("info: ", fmt, ap);
    va_end(ap);
}

void
warn(const char *fmt, ...)
{
    if (quiet_)
        return;
    va_list ap;
    va_start(ap, fmt);
    vlog("warn: ", fmt, ap);
    va_end(ap);
}

void
panic(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    vlog("panic: ", fmt, ap);
    va_end(ap);
    std::abort();
}

std::string
strfmt(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list ap2;
    va_copy(ap2, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    std::string out;
    if (n > 0) {
        std::vector<char> buf(static_cast<std::size_t>(n) + 1);
        std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
        out.assign(buf.data(), static_cast<std::size_t>(n));
    }
    va_end(ap2);
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (u < 0x20) {
            out += strfmt("\\u%04x", static_cast<unsigned>(u));
        } else {
            out.push_back(c);
        }
    }
    return out;
}

bool
parseDecimal(const std::string &text, std::uint64_t *out)
{
    // from_chars takes no sign, space or prefix, and flags an empty
    // input and overflow.
    std::uint64_t v = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, v);
    if (ec != std::errc() || ptr != end)
        return false;
    *out = v;
    return true;
}

} // namespace lp

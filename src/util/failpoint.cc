#include "util/failpoint.hh"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <unistd.h>

#include "util/log.hh"

namespace lp
{

namespace detail
{
std::atomic<int> failpointsArmedCount{0};
} // namespace detail

namespace
{

struct Site
{
    FailpointSpec spec;
    std::uint64_t hits = 0;
};

// The registry is deliberately simple: sites only consult it behind
// the failpointsArmed() fast check, so the mutex is never contended
// in a disarmed process.
std::mutex gMutex;
std::map<std::string, Site> &
sites()
{
    static std::map<std::string, Site> s;
    return s;
}

int
parseErrno(const std::string &name)
{
    if (name == "EIO")
        return EIO;
    if (name == "EINTR")
        return EINTR;
    if (name == "EAGAIN")
        return EAGAIN;
    if (name == "ENOSPC")
        return ENOSPC;
    if (name == "ENOENT")
        return ENOENT;
    if (name == "EACCES")
        return EACCES;
    if (name == "ENOMEM")
        return ENOMEM;
    try {
        std::size_t used = 0;
        const int v = std::stoi(name, &used);
        if (used == name.size() && v > 0)
            return v;
    } catch (const std::exception &) {
    }
    throw std::invalid_argument(
        strfmt("failpoint: unknown errno '%s'", name.c_str()));
}

FailpointSpec
parseSpec(const std::string &text)
{
    // <trigger>:<n>:<action>[:<errno>]
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= text.size()) {
        const std::size_t colon = text.find(':', start);
        if (colon == std::string::npos) {
            parts.push_back(text.substr(start));
            break;
        }
        parts.push_back(text.substr(start, colon - start));
        start = colon + 1;
    }
    if (parts.size() < 3)
        throw std::invalid_argument(
            strfmt("failpoint: malformed trigger '%s' (want "
                   "<trigger>:<n>:<action>)",
                   text.c_str()));

    FailpointSpec spec;
    if (parts[0] == "hit")
        spec.trigger = FailpointSpec::Trigger::nth;
    else if (parts[0] == "every")
        spec.trigger = FailpointSpec::Trigger::every;
    else
        throw std::invalid_argument(
            strfmt("failpoint: unknown trigger '%s'", parts[0].c_str()));
    try {
        std::size_t used = 0;
        const unsigned long long n = std::stoull(parts[1], &used);
        if (used != parts[1].size() || n == 0)
            throw std::invalid_argument("n");
        spec.n = n;
    } catch (const std::exception &) {
        throw std::invalid_argument(
            strfmt("failpoint: bad hit count '%s'", parts[1].c_str()));
    }

    if (parts[2] == "crash") {
        spec.action = FailpointSpec::Action::crash;
    } else if (parts[2] == "hang") {
        spec.action = FailpointSpec::Action::hang;
    } else if (parts[2] == "short") {
        spec.action = FailpointSpec::Action::shortOp;
    } else if (parts[2] == "err") {
        spec.action = FailpointSpec::Action::error;
        spec.err = parts.size() > 3 ? parseErrno(parts[3]) : EIO;
    } else {
        throw std::invalid_argument(
            strfmt("failpoint: unknown action '%s'", parts[2].c_str()));
    }
    if (parts.size() > 4 ||
        (parts.size() == 4 && parts[2] != "err"))
        throw std::invalid_argument(
            strfmt("failpoint: trailing garbage in '%s'", text.c_str()));
    return spec;
}

// LP_FAILPOINTS is loaded once, before main() runs work, by this
// static initializer; it only touches this file's own globals, so
// initialization order is safe. A malformed value panics: a typo'd
// fault sweep must fail loudly, not silently test nothing.
const bool gEnvLoaded = []() {
    const char *v = std::getenv("LP_FAILPOINTS");
    if (v && *v) {
        try {
            armFailpointsFromSpec(v);
        } catch (const std::exception &e) {
            panic("LP_FAILPOINTS: %s", e.what());
        }
    }
    return true;
}();

} // namespace

FailpointOutcome
failpointFire(const char *site)
{
    FailpointOutcome out;
    FailpointSpec spec;
    bool fire = false;
    {
        std::lock_guard<std::mutex> lk(gMutex);
        auto it = sites().find(site);
        if (it == sites().end())
            return out;
        Site &s = it->second;
        ++s.hits;
        spec = s.spec;
        fire = spec.trigger == FailpointSpec::Trigger::nth
                   ? s.hits == spec.n
                   : s.hits % spec.n == 0;
    }
    if (!fire)
        return out;
    switch (spec.action) {
    case FailpointSpec::Action::crash:
        // A real crash: no stream flushing, no atexit, no stack
        // unwinding — buffered writes die with the process.
        std::fprintf(stderr, "failpoint: crashing at '%s'\n", site);
        ::_exit(failpointCrashStatus);
    case FailpointSpec::Action::shortOp:
        out.shortOp = true;
        return out;
    case FailpointSpec::Action::hang:
        out.hang = true;
        return out;
    case FailpointSpec::Action::error:
    default:
        out.fail = true;
        out.err = spec.err;
        return out;
    }
}

void
armFailpoint(const std::string &site, const FailpointSpec &spec)
{
    std::lock_guard<std::mutex> lk(gMutex);
    auto it = sites().find(site);
    if (it == sites().end()) {
        sites().emplace(site, Site{spec, 0});
        detail::failpointsArmedCount.fetch_add(
            1, std::memory_order_relaxed);
    } else {
        it->second = Site{spec, 0};
    }
}

void
disarmFailpoint(const std::string &site)
{
    std::lock_guard<std::mutex> lk(gMutex);
    if (sites().erase(site))
        detail::failpointsArmedCount.fetch_sub(
            1, std::memory_order_relaxed);
}

void
disarmAllFailpoints()
{
    std::lock_guard<std::mutex> lk(gMutex);
    detail::failpointsArmedCount.fetch_sub(
        static_cast<int>(sites().size()), std::memory_order_relaxed);
    sites().clear();
}

std::uint64_t
failpointHits(const std::string &site)
{
    std::lock_guard<std::mutex> lk(gMutex);
    const auto it = sites().find(site);
    return it == sites().end() ? 0 : it->second.hits;
}

bool
failpointArmed(const std::string &site)
{
    std::lock_guard<std::mutex> lk(gMutex);
    return sites().count(site) != 0;
}

void
armFailpointsFromSpec(const std::string &spec)
{
    std::size_t start = 0;
    while (start < spec.size()) {
        std::size_t end = spec.find(';', start);
        if (end == std::string::npos)
            end = spec.size();
        const std::string item = spec.substr(start, end - start);
        start = end + 1;
        if (item.empty())
            continue;
        const std::size_t eq = item.find('=');
        if (eq == std::string::npos || eq == 0)
            throw std::invalid_argument(
                strfmt("failpoint: malformed spec '%s' (want "
                       "site=trigger:n:action)",
                       item.c_str()));
        armFailpoint(item.substr(0, eq),
                     parseSpec(item.substr(eq + 1)));
    }
}

bool
transientErrno(int err)
{
    return err == EINTR || err == EAGAIN
#ifdef EWOULDBLOCK
           || err == EWOULDBLOCK
#endif
        ;
}

} // namespace lp

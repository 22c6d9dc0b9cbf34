/**
 * @file
 * Shared fixtures for the ctest suites: the tiny-library builder
 * boilerplate every replay-facing test repeats, common configuration
 * presets, and tolerance/throw assertions on top of harness.hh. Test
 * binaries stay single-file; this header is the one place fixture
 * conventions live.
 */

#ifndef LP_TESTS_TEST_UTIL_HH
#define LP_TESTS_TEST_UTIL_HH

#include "harness.hh"

#include <cctype>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/library.hh"
#include "uarch/config.hh"
#include "util/rng.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

/** |a - b| <= rel * |b| (relative tolerance against the reference). */
#define CHECK_REL(a, b, rel)                                              \
    do {                                                                  \
        const double ra_ = (a);                                           \
        const double rb_ = (b);                                           \
        if (!(std::fabs(ra_ - rb_) <= (rel)*std::fabs(rb_))) {            \
            std::fprintf(stderr,                                          \
                         "FAIL %s:%d: |%s - %s| = |%g - %g| > %g rel\n", \
                         __FILE__, __LINE__, #a, #b, ra_, rb_,            \
                         static_cast<double>(rel));                       \
            ++lpTestFailures;                                             \
        }                                                                 \
    } while (0)

/** The expression must throw a std::exception (any derived type). */
#define CHECK_THROWS(expr)                                                \
    do {                                                                  \
        bool threw_ = false;                                              \
        try {                                                             \
            (void)(expr);                                                 \
        } catch (const std::exception &) {                                \
            threw_ = true;                                                \
        }                                                                 \
        if (!threw_) {                                                    \
            std::fprintf(stderr, "FAIL %s:%d: %s did not throw\n",       \
                         __FILE__, __LINE__, #expr);                      \
            ++lpTestFailures;                                             \
        }                                                                 \
    } while (0)

/**
 * A golden pin: @p actual must equal the value @p pinned recorded when
 * the pin was set. On mismatch the actual value is printed in hex, so
 * an intended change of the simulated stream can be re-pinned.
 */
#define CHECK_PIN(actual, pinned)                                         \
    do {                                                                  \
        const std::uint64_t pa_ = (actual);                               \
        const std::uint64_t pp_ = (pinned);                               \
        if (pa_ != pp_) {                                                 \
            std::fprintf(stderr,                                          \
                         "FAIL %s:%d: %s = 0x%016llx, pinned %#llx\n",    \
                         __FILE__, __LINE__, #actual,                     \
                         static_cast<unsigned long long>(pa_),            \
                         static_cast<unsigned long long>(pp_));           \
            ++lpTestFailures;                                             \
        }                                                                 \
    } while (0)

namespace lptest
{

/** A generated benchmark with a systematic design laid over it. */
struct TinyBench
{
    lp::WorkloadProfile profile;
    lp::Program prog;
    lp::InstCount length = 0;
    lp::SampleDesign design;
};

/**
 * Generate a tiny deterministic benchmark and its design: @p windows
 * measured windows of 1000 instructions, warmed per @p warmLen
 * (default: the 8-way baseline's detailed warming).
 */
inline TinyBench
makeTinyBench(const std::string &name, lp::InstCount insts,
              std::uint64_t seed, std::uint64_t windows,
              lp::InstCount warmLen = 0)
{
    TinyBench t;
    t.profile = lp::tinyProfile(insts, seed);
    t.profile.name = name;
    t.prog = lp::generateProgram(t.profile);
    t.length = lp::measureProgramLength(t.prog);
    t.design = lp::SampleDesign::systematic(
        t.length, windows, 1000,
        warmLen ? warmLen : lp::CoreConfig::eightWay().detailedWarming);
    return t;
}

/** A generated benchmark with a built live-point library. */
struct TinyLib
{
    lp::WorkloadProfile profile;
    lp::Program prog;
    lp::InstCount length = 0;
    lp::SampleDesign design;
    lp::LivePointLibrary lib;
};

/**
 * The standard test fixture: generate a tiny deterministic benchmark,
 * lay a systematic design over it, and build its live-point library
 * covering every predictor in @p cfgs (all of @p cfgs must share the
 * detailed-warming length of cfgs[0], which sizes the windows).
 * @p shuffleSeed != 0 also shuffles the library. @p tweak (optional)
 * edits the builder configuration before the build — the hook the
 * dictionary/delta and threading variants use.
 */
inline TinyLib
buildTinyLibrary(
    const std::string &name, lp::InstCount insts, std::uint64_t seed,
    std::uint64_t windows,
    const std::vector<lp::CoreConfig> &cfgs =
        {lp::CoreConfig::eightWay()},
    std::uint64_t shuffleSeed = 0,
    const std::function<void(lp::LivePointBuilderConfig &)> &tweak = {})
{
    TinyLib t;
    TinyBench b = makeTinyBench(name, insts, seed, windows,
                                cfgs.front().detailedWarming);
    t.profile = std::move(b.profile);
    t.prog = std::move(b.prog);
    t.length = b.length;
    t.design = b.design;
    lp::LivePointBuilderConfig bc;
    bc.bpredConfigs.clear();
    for (const lp::CoreConfig &c : cfgs) {
        bool seen = false;
        for (const lp::BpredConfig &have : bc.bpredConfigs)
            seen = seen || have.key() == c.bpred.key();
        if (!seen)
            bc.bpredConfigs.push_back(c.bpred);
    }
    if (tweak)
        tweak(bc);
    lp::LivePointBuilder builder(bc);
    t.lib = builder.build(t.prog, t.design);
    if (shuffleSeed) {
        lp::Rng rng(shuffleSeed, "test-shuffle");
        t.lib.shuffle(rng);
    }
    return t;
}

/** The paper's 8-way baseline (Table 1). */
inline lp::CoreConfig
baseConfig()
{
    return lp::CoreConfig::eightWay();
}

/** The baseline with plainly slower memory — a surely-visible delta. */
inline lp::CoreConfig
slowMemConfig()
{
    lp::CoreConfig c = lp::CoreConfig::eightWay();
    c.name = "slow-mem";
    c.mem.memLatency = 400;
    c.mem.l2Latency = 40;
    return c;
}

namespace jsondetail
{

struct JsonCursor
{
    const char *p;
    const char *e;
};

inline void
jvSkipWs(JsonCursor &c)
{
    while (c.p < c.e && (*c.p == ' ' || *c.p == '\t' ||
                         *c.p == '\n' || *c.p == '\r'))
        ++c.p;
}

inline bool
jvString(JsonCursor &c)
{
    if (c.p >= c.e || *c.p != '"')
        return false;
    ++c.p;
    while (c.p < c.e) {
        const unsigned char u = static_cast<unsigned char>(*c.p);
        if (u == '"') {
            ++c.p;
            return true;
        }
        if (u < 0x20)
            return false; // raw control byte: must be \uXXXX-escaped
        if (u == '\\') {
            ++c.p;
            if (c.p >= c.e)
                return false;
            const char esc = *c.p;
            if (esc == '"' || esc == '\\' || esc == '/' ||
                esc == 'b' || esc == 'f' || esc == 'n' ||
                esc == 'r' || esc == 't') {
                ++c.p;
                continue;
            }
            if (esc == 'u') {
                ++c.p;
                for (int i = 0; i < 4; ++i, ++c.p)
                    if (c.p >= c.e ||
                        !std::isxdigit(
                            static_cast<unsigned char>(*c.p)))
                        return false;
                continue;
            }
            return false;
        }
        ++c.p;
    }
    return false;
}

inline bool
jvNumber(JsonCursor &c)
{
    if (c.p < c.e && *c.p == '-')
        ++c.p;
    if (c.p >= c.e || !std::isdigit(static_cast<unsigned char>(*c.p)))
        return false;
    if (*c.p == '0')
        ++c.p;
    else
        while (c.p < c.e &&
               std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    if (c.p < c.e && *c.p == '.') {
        ++c.p;
        if (c.p >= c.e ||
            !std::isdigit(static_cast<unsigned char>(*c.p)))
            return false;
        while (c.p < c.e &&
               std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    }
    if (c.p < c.e && (*c.p == 'e' || *c.p == 'E')) {
        ++c.p;
        if (c.p < c.e && (*c.p == '+' || *c.p == '-'))
            ++c.p;
        if (c.p >= c.e ||
            !std::isdigit(static_cast<unsigned char>(*c.p)))
            return false;
        while (c.p < c.e &&
               std::isdigit(static_cast<unsigned char>(*c.p)))
            ++c.p;
    }
    return true;
}

inline bool
jvLiteral(JsonCursor &c, const char *lit)
{
    const std::size_t n = std::strlen(lit);
    if (static_cast<std::size_t>(c.e - c.p) < n ||
        std::strncmp(c.p, lit, n) != 0)
        return false;
    c.p += n;
    return true;
}

inline bool
jvValue(JsonCursor &c, int depth)
{
    if (depth > 64)
        return false;
    jvSkipWs(c);
    if (c.p >= c.e)
        return false;
    const char ch = *c.p;
    if (ch == '{') {
        ++c.p;
        jvSkipWs(c);
        if (c.p < c.e && *c.p == '}') {
            ++c.p;
            return true;
        }
        for (;;) {
            jvSkipWs(c);
            if (!jvString(c))
                return false;
            jvSkipWs(c);
            if (c.p >= c.e || *c.p != ':')
                return false;
            ++c.p;
            if (!jvValue(c, depth + 1))
                return false;
            jvSkipWs(c);
            if (c.p >= c.e)
                return false;
            if (*c.p == ',') {
                ++c.p;
                continue;
            }
            if (*c.p == '}') {
                ++c.p;
                return true;
            }
            return false;
        }
    }
    if (ch == '[') {
        ++c.p;
        jvSkipWs(c);
        if (c.p < c.e && *c.p == ']') {
            ++c.p;
            return true;
        }
        for (;;) {
            if (!jvValue(c, depth + 1))
                return false;
            jvSkipWs(c);
            if (c.p >= c.e)
                return false;
            if (*c.p == ',') {
                ++c.p;
                continue;
            }
            if (*c.p == ']') {
                ++c.p;
                return true;
            }
            return false;
        }
    }
    if (ch == '"')
        return jvString(c);
    if (ch == 't')
        return jvLiteral(c, "true");
    if (ch == 'f')
        return jvLiteral(c, "false");
    if (ch == 'n')
        return jvLiteral(c, "null");
    return jvNumber(c);
}

} // namespace jsondetail

/**
 * Strict RFC 8259 JSON validator: true iff @p s is exactly one valid
 * JSON value plus optional trailing whitespace. No extensions — raw
 * control bytes inside strings, bad escapes, trailing commas,
 * leading zeros, NaN/Infinity all fail. This is the picky parser the
 * campaign report must round-trip even with hostile failure details.
 */
inline bool
jsonValidate(const std::string &s)
{
    jsondetail::JsonCursor c{s.data(), s.data() + s.size()};
    if (!jsondetail::jvValue(c, 0))
        return false;
    jsondetail::jvSkipWs(c);
    return c.p == c.e;
}

} // namespace lptest

#endif // LP_TESTS_TEST_UTIL_HH

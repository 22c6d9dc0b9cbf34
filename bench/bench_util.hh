/**
 * @file
 * Shared infrastructure for the paper-reproduction bench binaries:
 * benchmark-suite selection and scaling, live-point library caching on
 * disk, pilot-variance caching, table formatting, and the interleaved
 * timing and baseline gate of the two gated benches.
 *
 * Every bench prints paper-shape tables. Two of them also write a
 * JSON document that CI gates against a committed baseline:
 * ablation_hotpath (BENCH_6) and ablation_storage (BENCH_10).
 *
 * Environment knobs (all optional):
 *   LP_BENCH_FULL=1    run the full 24-benchmark suite at full length
 *                      (default: an 8-benchmark subset at 1/4 length)
 *   LP_BENCH_SCALE=f   override the benchmark-length scale factor
 *   LP_BENCH_MAXN=n    override the sample-size cap per benchmark
 *   LP_BENCH_CACHE=dir live-point/pilot cache directory
 *                      (default ./lp-cache)
 *   LP_BENCH_JSON=path write the gated bench's JSON document here
 *   LP_BENCH_BUILD_THREADS=n  warming shards for library creation
 *                      (default 1: exact full warming, encode
 *                      pipelined; n>1 shards the sample with
 *                      MRRL-derived prefixes)
 *   LP_BENCH_BASELINE=path  committed baseline JSON for the gated
 *                      benches; "none" skips the gate
 */

#ifndef LP_BENCH_BENCH_UTIL_HH
#define LP_BENCH_BENCH_UTIL_HH

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/library.hh"
#include "core/runners.hh"
#include "uarch/config.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace lpbench
{

/** Resolved bench-wide settings. */
struct BenchSettings
{
    bool full = false;
    double scale = 0.25;
    std::uint64_t maxSampleSize = 300;
    std::string cacheDir = "lp-cache";
    std::string jsonPath;         //!< empty: no JSON output
    unsigned buildThreads = 1;    //!< warming shards for creation
};

/** Read settings from the environment. */
BenchSettings settings();

/** One prepared benchmark: program + measured length. */
struct PreparedBench
{
    lp::WorkloadProfile profile;
    lp::Program prog;
    lp::InstCount length = 0;
};

/** The benchmark names used in quick (subset) mode. */
std::vector<std::string> quickSet();

/**
 * Prepare the bench suite: quick subset or full suite, with lengths
 * scaled by settings().scale.
 */
std::vector<PreparedBench> prepareSuite(const BenchSettings &s);

/** Prepare one named benchmark at the configured scale. */
PreparedBench prepareOne(const std::string &name,
                         const BenchSettings &s);

/**
 * Pilot CPI coefficient-of-variation for (benchmark, config), cached
 * in the cache directory (one SMARTS pass with 40 windows).
 */
double pilotCov(const PreparedBench &b, const lp::CoreConfig &cfg,
                const BenchSettings &s);

/** Sample size for a benchmark: required n, capped and fitted. */
std::uint64_t sampleSize(const PreparedBench &b,
                         const lp::CoreConfig &cfg,
                         const BenchSettings &s,
                         lp::ConfidenceSpec spec = {});

/**
 * Build (or load from cache) a live-point library for the benchmark
 * with the given design and builder configuration, applying the
 * settings' build-parallelism knobs. When the library is built, the
 * builder's statistics (wall time, warmed instructions, shards) are
 * written to @p stats; when it is loaded from cache, @p stats is
 * zeroed (wallSeconds 0 marks a cache hit).
 */
lp::LivePointLibrary cachedLibrary(const PreparedBench &b,
                                   const lp::SampleDesign &design,
                                   const lp::LivePointBuilderConfig &bc,
                                   const BenchSettings &s,
                                   lp::BuilderStats *stats = nullptr);

/** Default builder config covering both Table 1 configurations. */
lp::LivePointBuilderConfig defaultBuilderConfig();

/**
 * Write @p json to settings().jsonPath if LP_BENCH_JSON is set;
 * returns true when the file was fully written, false (with a
 * warning on stderr, never a throw) otherwise. Only the two gated
 * benches call it.
 */
inline bool
writeBenchJson(const BenchSettings &s, const std::string &json)
{
    if (s.jsonPath.empty())
        return false;
    FILE *f = std::fopen(s.jsonPath.c_str(), "w");
    if (!f) {
        std::fprintf(stderr, "warning: cannot write '%s'\n",
                     s.jsonPath.c_str());
        return false;
    }
    const bool wrote = std::fputs(json.c_str(), f) >= 0;
    const bool closed = std::fclose(f) == 0;
    if (wrote && closed)
        return true;
    std::fprintf(stderr, "warning: short write to '%s'\n",
                 s.jsonPath.c_str());
    return false;
}

/**
 * Lifetime peak resident-set size of this process in bytes (Linux:
 * VmHWM, else getrusage ru_maxrss), or 0 where unavailable.
 */
std::uint64_t peakRssBytes();

/**
 * Time @p legs interleaved, pass by pass, so a swing in host speed
 * hits every leg alike: each round runs one pass of every leg that
 * has not yet run 3 passes and 0.25 s. Returns each leg's fastest
 * pass in seconds. The gated benches divide one leg by another, and
 * a ratio of legs timed one after the other moved with the host.
 */
std::vector<double>
bestPassSeconds(const std::vector<std::function<void()>> &legs);

/** One machine-normalized metric a baseline gate checks. */
struct GateMetric
{
    const char *key; //!< the metric's key in the baseline JSON
    double now;      //!< this run's value
};

/**
 * The committed-baseline regression gate shared by the gated benches
 * (ablation_hotpath: BENCH_6, ablation_storage: BENCH_10). Reads the
 * baseline from LP_BENCH_BASELINE, else @p defaultPath; "none", a
 * missing file or a missing key skips (with a note). Every metric
 * must stay at least 0.9x its baseline. Only machine-normalized
 * ratios gate: absolute throughput tracks the runner, the ratios
 * track the code. Returns false, after naming @p bench on stderr,
 * when any metric regressed.
 */
bool baselineGate(const char *bench, const char *defaultPath,
                  std::initializer_list<GateMetric> metrics);

/** Format seconds as the paper does (s / m / h / d). */
std::string fmtTime(double seconds);

/** Format a byte count as KB/MB/GB with one decimal. */
std::string fmtBytes(std::uint64_t bytes);

/** Print a horizontal rule + centered title. */
void printHeader(const std::string &title);

} // namespace lpbench

#endif // LP_BENCH_BENCH_UTIL_HH

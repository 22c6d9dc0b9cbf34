/**
 * @file
 * Shared pieces of the repository benchmark: the fixed fleet and
 * design-space grid every workload uses, seed-derived job specs, the
 * exact (single-thread, full-warming) fleet build, latency summaries,
 * and a few helpers for reading the service's JSON reports.
 *
 * Sizing is for a 4-core host: the daemon gets kDaemonSlots worker
 * slots, each job runs kJobThreads simulation threads plus one decode
 * producer, and the benchmark drives it from one client connection.
 */

#ifndef PERFBENCH_COMMON_HH
#define PERFBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "core/builder.hh"
#include "core/sample.hh"
#include "svc/proto.hh"
#include "uarch/config.hh"
#include "util/rng.hh"
#include "workload/generator.hh"

namespace pb
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point t0);
double msBetween(Clock::time_point a, Clock::time_point b);

/** One fleet shard: a suite profile, delta-encoded or plain. */
struct ShardDef
{
    const char *name;
    bool delta;
};

/** mcf (96 MiB, delta), gcc-2 (64 MiB, delta), eon-2 (12 MiB, plain). */
const std::vector<ShardDef> &fleetShards();

constexpr std::uint64_t kPointsPerShard = 100;
constexpr unsigned kDaemonSlots = 2;
constexpr unsigned kJobThreads = 2;
constexpr unsigned kJobDecodeThreads = 1;
constexpr unsigned kBuildThreads = 4;
constexpr unsigned kClientConnections = 1;
constexpr std::uint64_t kFoldBlock = 16;

/**
 * Stopping rule of every grid: loose enough that some cells retire
 * before their 100-point library runs out, so the stopping path and
 * its overshoot are exercised.
 */
constexpr double kLevel = 0.95;
constexpr double kRelativeError = 0.09;

/**
 * The four grid columns: eight, sixteen, eight with 300-cycle memory
 * (shares eight's cache geometry, so it replays from the stash) and
 * sixteen with a 1 MB L2 (its own geometry).
 */
std::vector<lp::JobConfigSpec> gridConfigs();

/** The CoreConfig the daemon materializes for @p c. */
lp::CoreConfig materialize(const lp::JobConfigSpec &c);

/** A 3-shard x 4-config grid with stopAtConfidence. */
lp::JobSpec gridSpec(std::uint64_t shuffleSeed, const std::string &name);

/**
 * The shuffle seeds of a workload's grids: the @p count first nonzero
 * draws of the stream named @p stream under the workload seed. The
 * traced run draws from the same streams, so it drives the same jobs.
 */
std::uint64_t nextSeed(lp::Rng &rng);
std::vector<std::uint64_t> gridSeeds(std::uint64_t seed,
                                     const std::string &stream,
                                     std::size_t count);

/** The programs and sample designs of the fleet, in fleetShards() order. */
struct FleetInputs
{
    std::deque<lp::Program> programs;
    std::vector<lp::SampleDesign> designs;
};

FleetInputs makeFleetInputs();

/** Library maxima covering both Table 1 configurations. */
lp::LivePointBuilderConfig builderConfig(bool delta, unsigned threads);

struct FleetSummary
{
    std::uint64_t points = 0;
    std::uint64_t bytes = 0; //!< container bytes, from the set index
    std::map<std::string, std::uint64_t> hashes;

    double bytesPerPoint() const
    {
        return points ? static_cast<double>(bytes) /
                            static_cast<double>(points)
                      : 0.0;
    }
};

/** Read points, bytes and content hashes from the set at @p dir. */
FleetSummary summarizeSet(const std::string &dir);

/**
 * Build the fleet the service workloads replay: one single-thread
 * (exact full-warming) build per shard, the three run concurrently,
 * each library shuffled on disk the way create_library does, then
 * appended to the set at @p dir in fleetShards() order.
 */
FleetSummary buildExactFleet(const std::string &dir,
                             const FleetInputs &in);

/** Linear-interpolated quantile of @p v (0 <= q <= 1); 0 when empty. */
double quantile(std::vector<double> v, double q);

/**
 * The highest of p50/p90/p99/p99.9 that has at least ten samples
 * beyond it, or 0 when there are fewer than 20 samples.
 */
double tailQuantile(std::size_t n);

/** "p50=… p90=… (n=…)" for the human-readable report. */
std::string describeLatency(const std::vector<double> &v,
                            const char *unit);

/** Values of every `"key": "..."` string field in @p json, in order. */
std::vector<std::string> jsonStrings(const std::string &json,
                                     const std::string &key);

/** Raw values of every `"key": <token>` field in @p json, in order. */
std::vector<std::string> jsonTokens(const std::string &json,
                                    const std::string &key);

/** First numeric `"key": n` in @p json; @p fallback when absent. */
double jsonNumber(const std::string &json, const std::string &key,
                  double fallback = -1.0);

/** mkdir -p. */
void makeDirs(const std::string &dir);

/** rm -rf (best effort). */
void removeTree(const std::string &dir);

/** Peak RSS of this process, MiB. */
double selfPeakRssMb();

} // namespace pb

#endif // PERFBENCH_COMMON_HH

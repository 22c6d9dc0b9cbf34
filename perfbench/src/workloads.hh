/**
 * @file
 * The benchmark's workloads. Each returns its metrics, the operations
 * it attempted and failed (a failed output check counts as a failed
 * operation), and human-readable report lines.
 *
 *  - dse-cold: closed loop of cold design-space grids through lpserved
 *    (replay-bound).
 *  - dse-memo: closed loop of memoized grid resubmits and result-store
 *    queries through lpserved (service- and store-bound).
 *  - fleet-build: repeated LivePointBuilder::buildInto fleet builds
 *    (the write side of the codec and library layers).
 *
 * The traced run (--trace 1) drives the same seed-generated inputs
 * through each layer's public calls and reports per-layer metrics.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace pb
{

struct RunArgs
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    std::string runDir;   //!< scratch directory for this run
    std::string traceDir; //!< where the traced run writes its spans
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

struct RunResult
{
    std::vector<Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures; //!< the first few, for the report
    std::vector<std::string> report;

    void add(const std::string &name, double value,
             const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
    void fail(const std::string &why)
    {
        ++failed;
        if (failures.size() < 20)
            failures.push_back(why);
    }
    void note(const std::string &line) { report.push_back(line); }
};

/** Status poll periods; each sits far below the latency it times. */
constexpr unsigned kColdPollUs = 2000;
constexpr unsigned kMemoPollUs = 100;

/** dse-memo requests per --seconds (about its rate on 4 cores). */
constexpr double kMemoRequestsPerSecond = 250.0;

/** dse-memo requests per daemon session (see runDseMemo). */
constexpr std::uint64_t kMemoSessionRequests = 100;

/** Set-up is repeated this many times per run; the median is reported. */
constexpr unsigned kSetupReps = 3;

RunResult runDseCold(const RunArgs &a);
RunResult runDseMemo(const RunArgs &a);
RunResult runFleetBuild(const RunArgs &a);
RunResult runTraced(const RunArgs &a);

} // namespace pb

#endif // PERFBENCH_WORKLOADS_HH

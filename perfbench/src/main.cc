/**
 * @file
 * lpbench — the repository benchmark runner.
 *
 *   lpbench --workload <dse-cold|dse-memo|fleet-build> --seed <n>
 *           --seconds <s> --trace <0|1>
 *
 * Run from the repository root (perfbench/run.py builds and invokes
 * it). Prints a human-readable report, an environment line, and as
 * its last line one JSON object {correct, attempted, failed, metrics}:
 * the end-to-end metrics with --trace 0, the per-layer metrics of the
 * traced run with --trace 1. Scratch files live under
 * .bench_build/run-<pid> and are removed on exit.
 */

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <unistd.h>

#include "common.hh"
#include "util/log.hh"
#include "workloads.hh"

using namespace pb;

namespace
{

bool
debugOrSanitized()
{
#if !defined(NDEBUG) || PERFBENCH_SANITIZED
    return true;
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return true;
#else
    const std::string bt = PERFBENCH_BUILD_TYPE;
    return bt != "Release" && bt != "RelWithDebInfo" && bt != "MinSizeRel";
#endif
}

std::string
cpuModel()
{
    std::ifstream f("/proc/cpuinfo");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("model name", 0) == 0) {
            const std::size_t c = line.find(':');
            return c == std::string::npos ? line : line.substr(c + 2);
        }
    return "unknown";
}

std::string
envOr(const char *name, const char *fallback)
{
    const char *v = std::getenv(name);
    return v && *v ? v : fallback;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "lpbench: %s\nusage: lpbench --workload "
                 "<dse-cold|dse-memo|fleet-build> --seed <n> --seconds "
                 "<s> --trace <0|1>\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunArgs a;
    int trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i], v = argv[i + 1];
        if (k == "--workload")
            a.workload = v;
        else if (k == "--seed")
            a.seed = std::strtoull(v.c_str(), nullptr, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v.c_str(), nullptr);
        else if (k == "--trace")
            trace = std::atoi(v.c_str());
        else
            return usage(("unknown flag " + k).c_str());
    }
    if (argc % 2 != 1)
        return usage("flags take one value each");
    if (a.workload != "dse-cold" && a.workload != "dse-memo" &&
        a.workload != "fleet-build")
        return usage("unknown workload");
    if (trace != 0 && trace != 1)
        return usage("--trace must be 0 or 1");
    if (!(a.seconds > 0))
        return usage("--seconds must be positive");
    if (debugOrSanitized()) {
        std::fprintf(stderr,
                     "lpbench: refusing to report from a %s build\n",
                     PERFBENCH_BUILD_TYPE);
        return 2;
    }

    // The daemon may go away mid-request; report that, do not die of it.
    std::signal(SIGPIPE, SIG_IGN);
    lp::setQuiet(true);
    a.runDir = ".bench_build/run-" + std::to_string(::getpid());
    a.traceDir = ".bench_build/traces";
    removeTree(a.runDir);
    makeDirs(a.runDir);

    RunResult r;
    try {
        r = trace ? runTraced(a)
            : a.workload == "dse-cold" ? runDseCold(a)
            : a.workload == "dse-memo" ? runDseMemo(a)
                                       : runFleetBuild(a);
    } catch (const std::exception &e) {
        removeTree(a.runDir);
        std::fprintf(stderr, "lpbench: %s\n", e.what());
        return 1;
    }
    removeTree(a.runDir);
    // A metric that could not be computed would print as nan/inf,
    // which is not JSON: fail the run instead.
    for (Metric &m : r.metrics)
        if (!std::isfinite(m.value)) {
            r.fail("metric " + m.name + " is not finite");
            m.value = 0.0;
        }

    std::printf("== %s seed %llu, %s run ==\n", a.workload.c_str(),
                static_cast<unsigned long long>(a.seed),
                trace ? "traced" : "timed");
    for (const std::string &line : r.report)
        std::printf("  %s\n", line.c_str());
    for (const std::string &f : r.failures)
        std::printf("  FAILED: %s\n", f.c_str());
    for (const Metric &m : r.metrics)
        std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::printf(
        "env: {\"nproc\": %u, \"cpu\": \"%s\", \"commit\": \"%s\", "
        "\"build_type\": \"%s\", \"daemon_worker_slots\": %u, "
        "\"job_sim_threads\": %u, \"job_decode_threads\": %u, "
        "\"build_threads\": %u, \"client_connections\": %u, "
        "\"poll_us\": {\"dse-cold\": %u, \"dse-memo\": %u}}\n",
        std::thread::hardware_concurrency(),
        lp::jsonEscape(cpuModel()).c_str(),
        lp::jsonEscape(envOr("PERFBENCH_COMMIT", "unknown")).c_str(),
        PERFBENCH_BUILD_TYPE, kDaemonSlots, kJobThreads, kJobDecodeThreads,
        kBuildThreads, kClientConnections, kColdPollUs, kMemoPollUs);

    const bool correct = r.failed == 0;
    std::string json = lp::strfmt(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {",
        correct ? "true" : "false",
        static_cast<unsigned long long>(r.attempted),
        static_cast<unsigned long long>(r.failed));
    for (std::size_t i = 0; i < r.metrics.size(); ++i)
        json += lp::strfmt("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                           i ? ", " : "", r.metrics[i].name.c_str(),
                           r.metrics[i].value, r.metrics[i].unit.c_str());
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

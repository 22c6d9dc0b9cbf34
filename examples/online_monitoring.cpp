/**
 * @file
 * online_monitoring — live view of a sampled simulation (paper
 * Section 6.1): processes a shuffled live-point library and prints the
 * running CPI estimate with its confidence interval as measurements
 * accumulate, the way a simulator developer would watch a run converge
 * (the paper notes this mode made their implement-debug-test loop
 * under an hour on the Liberty Simulation Environment).
 *
 * Usage: online_monitoring [library.lpl]
 */

#include <cstdio>

#include "core/builder.hh"
#include "core/library.hh"
#include "core/replay.hh"
#include "core/runners.hh"
#include "uarch/config.hh"
#include "util/log.hh"
#include "util/rng.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

using namespace lp;

int
main(int argc, char **argv)
{
    setQuiet(true);
    Program prog;
    LivePointLibrary lib;
    if (argc > 1) {
        lib = LivePointLibrary::load(argv[1]);
        prog = generateProgram(findProfile(lib.benchmark()));
    } else {
        std::printf("building a demo library (pass a .lpl file to use "
                    "a real one)...\n");
        WorkloadProfile p = tinyProfile(3'000'000, 123);
        p.name = "monitor-demo";
        prog = generateProgram(p);
        const InstCount length = measureProgramLength(prog);
        const CoreConfig cfg = CoreConfig::eightWay();
        const std::uint64_t n = std::min<std::uint64_t>(
            500,
            SampleDesign::maxCount(length, 1000, cfg.detailedWarming));
        const SampleDesign design = SampleDesign::systematic(
            length, n, 1000, cfg.detailedWarming);
        LivePointBuilderConfig bc;
        bc.bpredConfigs = {cfg.bpred};
        LivePointBuilder builder(bc);
        lib = builder.build(prog, design);
    }

    const CoreConfig cfg = CoreConfig::eightWay();
    Rng rng(2, "monitor-shuffle");
    lib.shuffle(rng);

    // Drive the run point-by-point so we can print the live estimate.
    ConfidenceSpec spec; // 99.7% of +/-3%
    OnlineEstimator estimator(spec);
    std::printf("\n%8s %12s %14s %10s\n", "n", "CPI estimate",
                "conf. interval", "status");
    LivePointDecodeScratch scratch;
    LivePoint lp;
    ReplayContext ctx(prog, cfg);
    for (std::size_t i = 0; i < lib.size(); ++i) {
        lib.decodeInto(i, scratch, lp);
        const WindowResult w = ctx.simulate(lp);

        const OnlineSnapshot snap = estimator.add(w.cpi);
        const bool milestone =
            (i + 1) == minCltSample || (i + 1) % 50 == 0 ||
            snap.satisfied || i + 1 == lib.size();
        if (milestone) {
            std::printf("%8zu %12.4f %13.2f%% %10s\n", i + 1, snap.mean,
                        100 * snap.relHalfWidth,
                        !snap.valid ? "n<30"
                        : snap.satisfied ? "TARGET MET"
                                         : "running");
        }
        if (snap.satisfied) {
            std::printf("\nstopping early: +/-%.1f%% at %.1f%% "
                        "confidence reached after %zu of %zu "
                        "live-points.\n",
                        100 * spec.relativeError, 100 * spec.level,
                        i + 1, lib.size());
            return 0;
        }
    }
    std::printf("\nlibrary exhausted; final confidence +/-%.2f%%.\n",
                100 * estimator.snapshot().relHalfWidth);
    return 0;
}

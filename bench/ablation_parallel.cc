/**
 * @file
 * Ablation — parallel live-point processing (Section 6: independent
 * live-points parallelise up to the sample size). Measures the replay
 * engine's throughput scaling with worker threads on one library.
 */

#include <cstdio>

#include "bench_util.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Ablation: parallel live-point processing (parser, "
                "8-way)");
    const PreparedBench b = prepareOne("parser", s);
    const CoreConfig cfg = CoreConfig::eightWay();

    const std::uint64_t n = sampleSize(b, cfg, s);
    const SampleDesign design =
        SampleDesign::systematic(b.length, n, 1000, cfg.detailedWarming);
    LivePointBuilderConfig bc = defaultBuilderConfig();
    LivePointLibrary lib = cachedLibrary(b, design, bc, s);
    Rng rng(5, "parallel");
    lib.shuffle(rng);

    std::printf("%8s | %12s %10s | %10s %12s | %10s\n", "threads",
                "wall", "speedup", "points/s", "decoded/s", "CPI");
    double base = 0.0;
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
        LivePointRunOptions opt;
        opt.threads = threads;
        const LivePointRunResult r = runLivePoints(b.prog, lib, cfg, opt);
        if (threads == 1)
            base = r.wallSeconds;
        const double pps =
            static_cast<double>(r.processed) / r.wallSeconds;
        const double bps =
            static_cast<double>(r.bytesDecoded) / r.wallSeconds;
        std::printf("%8u | %12s %9.2fx | %10.1f %11s/s | %10.4f\n",
                    threads, fmtTime(r.wallSeconds).c_str(),
                    base / r.wallSeconds, pps,
                    fmtBytes(static_cast<std::uint64_t>(bps)).c_str(),
                    r.cpi());
    }
    std::printf("\nthe estimate is bit-identical at every thread count "
                "(block-synchronous folding); wall time scales with "
                "cores because live-points are mutually independent.\n");
    return 0;
}

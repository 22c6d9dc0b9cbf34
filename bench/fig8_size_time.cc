/**
 * @file
 * Figure 8 — compressed checkpoint size and processing time versus the
 * library's maximum cache/branch-predictor configuration.
 *
 * Live-point size grows with the stored maximum L2 tag array (paired
 * with growing predictor tables, as in the paper's x-axis: 1MB L2/1K
 * bpred ... 16MB/16K); AW-MRRL checkpoints are microarchitecture-
 * independent, so their size is flat — there is a break-even point.
 * But live-point *processing time* (decompress + reconstruct) stays an
 * order of magnitude below adaptive warming at every size, because
 * loading warm state beats regenerating it functionally.
 */

#include <chrono>
#include <cstdio>

#include "bench_util.hh"
#include "bpred/bpred.hh"
#include "codec/zip.hh"
#include "func/functional.hh"
#include "mrrl/mrrl.hh"
#include "util/log.hh"

using namespace lp;
using namespace lpbench;

int
main()
{
    setQuiet(true);
    const BenchSettings s = settings();
    printHeader("Figure 8: compressed checkpoint size and processing "
                "time vs maximum configuration (gcc-2)");
    const PreparedBench b = prepareOne("gcc-2", s);
    const CoreConfig cfg8 = CoreConfig::eightWay();

    const std::uint64_t n = 40; // enough points to average over
    const SampleDesign design = SampleDesign::systematic(
        b.length, n, 1000, cfg8.detailedWarming);

    // --- AW-MRRL reference: fixed-size arch checkpoints + functional
    // warming per window. ---
    const MrrlAnalysis mrrl = analyzeMrrl(
        b.prog, design.windowStarts(), design.windowLen());
    const std::uint64_t mid = n / 2;
    const InstCount awWarm = mrrl.warmingLengths[mid];
    const InstCount start = design.windowStart(mid);
    FunctionalSimulator sim(b.prog);
    sim.run(start - std::min<InstCount>(awWarm, start));
    MemoryImage awImage(64);
    sim.setCaptureImage(&awImage);
    sim.run(std::min<InstCount>(awWarm, start));
    sim.setCaptureImage(nullptr);
    // Serialise + compress the AW checkpoint payload.
    Blob awBytes;
    awImage.forEach([&awBytes](Addr, const std::vector<std::uint8_t> &v) {
        awBytes.insert(awBytes.end(), v.begin(), v.end());
    });
    const std::uint64_t awSize = zipCompress(awBytes).size();
    // AW processing time = functional warming of the window's period.
    const auto awT0 = std::chrono::steady_clock::now();
    {
        FunctionalSimulator warmSim(b.prog);
        MemHierarchy h(cfg8.mem);
        BranchPredictor bp(cfg8.bpred);
        warmSim.setHierarchy(&h);
        warmSim.addPredictor(&bp);
        warmSim.run(awWarm);
    }
    const double awMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - awT0)
            .count();

    std::printf("%-22s | %14s %14s | %14s %14s\n", "max configuration",
                "LP size", "LP load (ms)", "AW size", "AW warm (ms)");

    for (unsigned step = 0; step < 5; ++step) {
        const std::uint64_t l2Size = (1ull << step) * 1024 * 1024;
        const unsigned bpredK = 1u << step;

        LivePointBuilderConfig bc;
        bc.maxL1i = cfg8.mem.l1i;
        bc.maxL1d = cfg8.mem.l1d;
        bc.maxL2 = {l2Size, 8, 128};
        bc.maxItlb = cfg8.mem.itlb;
        bc.maxDtlb = cfg8.mem.dtlb;
        BpredConfig bp = cfg8.bpred;
        bp.tableEntries = bpredK * 1024;
        bc.bpredConfigs = {bp};
        const LivePointLibrary lib = cachedLibrary(b, design, bc, s);

        const std::uint64_t avgSize =
            lib.totalCompressedBytes() / lib.size();

        // Processing (load) time: decompress + decode + reconstruct
        // the warm state at the target geometry (the 8-way config,
        // clipped to the library maximum for the small steps). The
        // decode goes through the allocation-free span path, like the
        // replay engine's producers.
        CoreConfig target = cfg8;
        target.bpred = bp;
        if (target.mem.l2.sizeBytes > l2Size)
            target.mem.l2.sizeBytes = l2Size;
        const auto t0 = std::chrono::steady_clock::now();
        LivePointDecodeScratch scratch;
        LivePoint pt;
        for (std::size_t i = 0; i < lib.size(); ++i) {
            lib.decodeInto(i, scratch, pt);
            MemHierarchy hier(target.mem);
            pt.l1i.reconstruct(hier.l1i());
            pt.l1d.reconstruct(hier.l1d());
            pt.l2.reconstruct(hier.l2());
            pt.itlb.reconstruct(hier.itlb());
            pt.dtlb.reconstruct(hier.dtlb());
            BranchPredictor pred(target.bpred);
            pred.deserialize(*pt.findBpredImage(target.bpred.key()));
        }
        const double loadMs =
            std::chrono::duration<double, std::milli>(
                std::chrono::steady_clock::now() - t0)
                .count() /
            static_cast<double>(lib.size());

        std::printf("%2lluMB L2 / %2uK bpred   | %14s %14.2f | %14s "
                    "%14.2f\n",
                    static_cast<unsigned long long>(l2Size >> 20),
                    bpredK, fmtBytes(avgSize).c_str(), loadMs,
                    fmtBytes(awSize).c_str(), awMs);
    }

    std::printf("\npaper shape: LP size grows with the max tag arrays "
                "and crosses the flat AW size near 4MB; LP load time "
                "stays ~10x below AW functional warming throughout.\n");
    return 0;
}

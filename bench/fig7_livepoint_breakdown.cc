/**
 * @file
 * Figure 7 — byte breakdown of a typical live-point (uncompressed)
 * versus the AW-MRRL live-state checkpoint and a conventional
 * (full-memory) checkpoint.
 *
 * Paper shape: a live-point is ~142KB uncompressed for the 8-way
 * maximum configuration, dominated by L2 tags, with ~16KB of memory
 * data; an AW-MRRL checkpoint is ~363KB dominated by the memory data
 * of its multi-million-instruction warming window; a conventional
 * checkpoint is ~105MB (the full memory footprint).
 */

#include <cstdio>

#include "bench_util.hh"
#include "codec/der.hh"
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
    printHeader("Figure 7: breakdown of a typical live-point "
                "(uncompressed), benchmark gcc-2, 8-way maxima");
    const PreparedBench b = prepareOne("gcc-2", s);
    const CoreConfig cfg = CoreConfig::eightWay();

    const std::uint64_t n =
        std::min<std::uint64_t>(sampleSize(b, cfg, s), 60);
    const SampleDesign design =
        SampleDesign::systematic(b.length, n, 1000, cfg.detailedWarming);

    // A live-point library at the 8-way maxima (as the paper's Figure 7
    // assumes the 8-way cache/branch predictor).
    LivePointBuilderConfig bc;
    bc.maxL1i = cfg.mem.l1i;
    bc.maxL1d = cfg.mem.l1d;
    bc.maxL2 = cfg.mem.l2;
    bc.maxItlb = cfg.mem.itlb;
    bc.maxDtlb = cfg.mem.dtlb;
    bc.bpredConfigs = {cfg.bpred};
    const LivePointLibrary lib = cachedLibrary(b, design, bc, s);

    LivePointBreakdown avg;
    LivePointDecodeScratch scratch;
    LivePoint pt;
    for (std::size_t i = 0; i < lib.size(); ++i) {
        lib.decodeInto(i, scratch, pt);
        const LivePointBreakdown one = pt.breakdown();
        avg.regsAndTlb += one.regsAndTlb;
        avg.memData += one.memData;
        avg.bpred += one.bpred;
        avg.l1iTags += one.l1iTags;
        avg.l1dTags += one.l1dTags;
        avg.l2Tags += one.l2Tags;
        avg.total += one.total;
    }
    const std::uint64_t k = lib.size();

    std::printf("[live-point, average of %zu]\n", lib.size());
    std::printf("  %-28s %12s\n", "registers + TLB records",
                fmtBytes(avg.regsAndTlb / k).c_str());
    std::printf("  %-28s %12s\n", "branch predictor",
                fmtBytes(avg.bpred / k).c_str());
    std::printf("  %-28s %12s\n", "L1-I cache tags",
                fmtBytes(avg.l1iTags / k).c_str());
    std::printf("  %-28s %12s\n", "L1-D cache tags",
                fmtBytes(avg.l1dTags / k).c_str());
    std::printf("  %-28s %12s\n", "L2 cache tags",
                fmtBytes(avg.l2Tags / k).c_str());
    std::printf("  %-28s %12s\n", "memory data (live-state)",
                fmtBytes(avg.memData / k).c_str());
    std::printf("  %-28s %12s\n", "TOTAL",
                fmtBytes(avg.total / k).c_str());

    // AW-MRRL checkpoint: architectural state for the warming window.
    // Its memory payload covers the blocks touched during the
    // (multi-hundred-thousand-instruction) MRRL warming period plus
    // the detailed window; no microarchitectural state is stored.
    const MrrlAnalysis mrrl = analyzeMrrl(
        b.prog, design.windowStarts(), design.windowLen());
    const std::uint64_t mid = n / 2;
    const InstCount warmLen = mrrl.warmingLengths[mid];
    const InstCount start = design.windowStart(mid);
    FunctionalSimulator sim(b.prog);
    sim.run(start - std::min<InstCount>(warmLen, start));
    MemoryImage awImage(64);
    sim.setCaptureImage(&awImage);
    sim.run(std::min<InstCount>(warmLen, start) + design.windowLen());
    sim.setCaptureImage(nullptr);
    const std::uint64_t awRegs = sim.regs().serialize().size();
    const std::uint64_t awMem = awImage.payloadBytes();

    std::printf("\n[AW-MRRL checkpoint, window %llu, warming %s "
                "instructions]\n",
                static_cast<unsigned long long>(mid),
                strfmt("%llu",
                       static_cast<unsigned long long>(warmLen))
                    .c_str());
    std::printf("  %-28s %12s\n", "registers",
                fmtBytes(awRegs).c_str());
    std::printf("  %-28s %12s\n", "memory data (warming window)",
                fmtBytes(awMem).c_str());
    std::printf("  %-28s %12s\n", "TOTAL",
                fmtBytes(awRegs + awMem).c_str());

    // Conventional checkpoint: the full architectural memory image.
    FunctionalSimulator whole(b.prog);
    while (!whole.finished())
        whole.run(10'000'000);
    std::printf("\n[conventional checkpoint]\n");
    std::printf("  %-28s %12s\n", "full memory footprint",
                fmtBytes(whole.memory().footprintBytes()).c_str());

    std::printf("\npaper shape: live-point total (~142KB, L2-tag "
                "dominated) << AW-MRRL (~363KB, memory-data dominated) "
                "<< conventional (~105MB footprint).\n");
    return 0;
}

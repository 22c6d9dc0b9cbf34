#include "core/runners.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/replay.hh"
#include "func/functional.hh"
#include "util/log.hh"

namespace lp
{

namespace
{

using Clock = std::chrono::steady_clock;

double
seconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Clamp an MRRL warming request to what fits before the window. */
InstCount
clampWarming(InstCount requested, const SampleDesign &design,
             InstCount start)
{
    const InstCount gap = design.period() - design.windowLen();
    return std::min({requested, gap, start});
}

} // namespace

CompleteSimResult
runCompleteDetailed(const Program &prog, const CoreConfig &cfg,
                    InstCount maxInsts)
{
    const auto t0 = Clock::now();
    MemHierarchy hier(cfg.mem);
    BranchPredictor bp(cfg.bpred);
    CoreBindings b;
    b.prog = &prog;
    b.hier = &hier;
    b.bp = &bp;
    OoOCore core(cfg, b);
    OoOCore *const cores[] = {&core};
    const InstCount limit = maxInsts ? std::min(maxInsts, prog.length)
                                     : prog.length;
    InstChunk chunk;
    WindowResult w;
    runWindow(prog, chunk, 0, 0, limit, nullptr, cores, 1, &w);
    CompleteSimResult res;
    res.cpi = w.cpi;
    res.insts = w.insts;
    res.wallSeconds = seconds(t0);
    return res;
}

SampledEstimate
runSmarts(const Program &prog, const CoreConfig &cfg,
          const SampleDesign &design)
{
    const auto t0 = Clock::now();
    FunctionalSimulator sim(prog);
    MemHierarchy hier(cfg.mem);
    BranchPredictor bp(cfg.bpred);
    sim.setHierarchy(&hier);
    sim.addPredictor(&bp);

    SampledEstimate est;
    InstChunk chunk;
    for (std::uint64_t i = 0; i < design.count; ++i) {
        const InstCount start = design.windowStart(i);
        sim.run(start - sim.regs().instIndex);

        // Time the window on clones of the warm state; functional
        // warming then executes it on the originals, exactly as the
        // live-point builder does.
        MemHierarchy hierClone = hier;
        BranchPredictor bpClone = bp;
        CoreBindings b;
        b.prog = &prog;
        b.hier = &hierClone;
        b.bp = &bpClone;
        OoOCore core(cfg, b);
        OoOCore *const cores[] = {&core};
        WindowResult w;
        runWindow(prog, chunk, sim.regs().instIndex, design.warmLen,
                  design.measureLen, nullptr, cores, 1, &w);
        est.stat.add(w.cpi);

        sim.run(design.windowLen());
    }
    sim.run(prog.length - sim.regs().instIndex);
    // Functional-warming work only (the O(B) cost the strategies
    // differ in); AW-MRRL accounts the same way.
    est.warmedInsts = sim.regs().instIndex;
    est.wallSeconds = seconds(t0);
    return est;
}

SampledEstimate
runAdaptiveWarming(const Program &prog, const CoreConfig &cfg,
                   const SampleDesign &design, const MrrlAnalysis &mrrl,
                   bool stitched)
{
    if (mrrl.warmingLengths.size() < design.count)
        throw std::runtime_error(
            "runAdaptiveWarming: MRRL analysis does not cover the "
            "design");
    const auto t0 = Clock::now();
    FunctionalSimulator sim(prog);
    MemHierarchy hier(cfg.mem);
    BranchPredictor bp(cfg.bpred);

    SampledEstimate est;
    InstChunk chunk;
    for (std::uint64_t i = 0; i < design.count; ++i) {
        const InstCount start = design.windowStart(i);
        // Clamp the MRRL request to the gap, the program start, and
        // the end of the previous window (the simulator only moves
        // forward).
        const InstCount warm = std::min(
            clampWarming(mrrl.warmingLengths[i], design, start),
            start - sim.regs().instIndex);

        // Fast-forward architecturally (no warming) to the start of
        // this window's warming interval.
        sim.setHierarchy(nullptr);
        sim.clearPredictors();
        sim.run(start - warm - sim.regs().instIndex);

        if (!stitched) {
            hier.reset();
            bp.reset();
        }
        sim.setHierarchy(&hier);
        sim.addPredictor(&bp);
        sim.run(warm);

        MemHierarchy hierClone = hier;
        BranchPredictor bpClone = bp;
        CoreBindings b;
        b.prog = &prog;
        b.hier = &hierClone;
        b.bp = &bpClone;
        OoOCore core(cfg, b);
        OoOCore *const cores[] = {&core};
        WindowResult w;
        runWindow(prog, chunk, sim.regs().instIndex, design.warmLen,
                  design.measureLen, nullptr, cores, 1, &w);
        est.stat.add(w.cpi);

        // Warm through the window itself (its references are known).
        sim.run(design.windowLen());
        est.warmedInsts += warm + design.windowLen();
    }
    est.wallSeconds = seconds(t0);
    return est;
}

WindowResult
simulateLivePoint(const Program &prog, const LivePoint &point,
                  const CoreConfig &cfg, bool approxWrongPath)
{
    ReplayContext ctx(prog, cfg);
    return ctx.simulate(point, approxWrongPath);
}

LivePointRunResult
runLivePoints(const Program &prog, const LivePointLibrary &lib,
              const CoreConfig &cfg, const LivePointRunOptions &opt)
{
    const auto t0 = Clock::now();
    const std::vector<std::size_t> order =
        replayOrder(lib.size(), opt.shuffleSeed);

    LivePointRunResult res;
    OnlineEstimator estimator(opt.spec);

    if (!order.empty()) {
        ReplayEngineOptions ropt;
        ropt.threads = opt.threads;
        ropt.decodeThreads = opt.decodeThreads;
        ropt.approxWrongPath = opt.approxWrongPath;
        ReplayEngine engine(prog, {cfg}, ropt);

        const std::size_t blockSize =
            opt.blockSize ? opt.blockSize : defaultFoldBlock;
        RunningStat block;
        engine.run(
            lib, order, blockSize, opt.stopAtConfidence,
            [&](std::size_t, const WindowResult *w) {
                block.add(w->cpi);
                res.unavailableLoads += w->unavailableLoads;
                ++res.processed;
                if (opt.recordTrajectory)
                    res.trajectory.push_back(estimator.preview(block));
            },
            [&](std::size_t) -> std::uint64_t {
                const OnlineSnapshot snap = estimator.fold(block);
                block = RunningStat();
                return opt.stopAtConfidence && snap.satisfied
                           ? 0
                           : replayMaskAll(1);
            });
        res.bytesDecoded = engine.bytesDecoded();
        res.pointsDecoded = engine.pointsDecoded();
        res.recordsDecoded = engine.recordsDecoded();
    }
    res.finalSnapshot = estimator.snapshot();
    res.wallSeconds = seconds(t0);
    return res;
}

MatchedPairOutcome
runMatchedPair(const Program &prog, const LivePointLibrary &lib,
               const CoreConfig &base, const CoreConfig &test,
               const LivePointRunOptions &opt)
{
    const auto t0 = Clock::now();
    const std::vector<std::size_t> order =
        replayOrder(lib.size(), opt.shuffleSeed);
    const double z = confidenceZ(opt.spec.level);

    RunningStat baseStat;
    RunningStat testStat;
    RunningStat delta;
    MatchedPairOutcome out;

    if (!order.empty()) {
        ReplayEngineOptions ropt;
        ropt.threads = opt.threads;
        ropt.decodeThreads = opt.decodeThreads;
        ropt.approxWrongPath = opt.approxWrongPath;
        // Both configurations of a point run on the same worker from
        // the same decoded point, so pairing stays exact.
        ReplayEngine engine(prog, {base, test}, ropt);

        const std::size_t blockSize =
            opt.blockSize ? opt.blockSize : defaultFoldBlock;
        engine.run(
            lib, order, blockSize, opt.stopAtConfidence,
            [&](std::size_t, const WindowResult *w) {
                baseStat.add(w[0].cpi);
                testStat.add(w[1].cpi);
                delta.add(w[1].cpi - w[0].cpi);
                ++out.processed;
            },
            [&](std::size_t) -> std::uint64_t {
                const std::uint64_t both = replayMaskAll(2);
                if (!opt.stopAtConfidence ||
                    delta.count() < minCltSample)
                    return both;
                const double hw = delta.halfWidth(z);
                const double noiseFloor = opt.spec.relativeError *
                                          std::fabs(baseStat.mean());
                // Stop once the delta's CI excludes zero (a
                // significant difference) or is below the noise floor
                // (provably nil).
                return std::fabs(delta.mean()) > hw || hw <= noiseFloor
                           ? 0
                           : both;
            });
    }

    const double hw = delta.halfWidth(z);
    out.result.meanDelta = delta.mean();
    out.result.relDelta =
        baseStat.mean() != 0.0 ? delta.mean() / baseStat.mean() : 0.0;
    out.result.deltaHalfWidth = hw;
    out.result.significant = delta.count() >= minCltSample &&
                             std::fabs(delta.mean()) > hw;

    // Sample sizes to reach the spec: paired (estimate the delta to
    // within the noise floor) vs absolute (estimate the test CPI).
    out.pairedSampleSize =
        pairedSampleSize(delta, baseStat.mean(), opt.spec);
    out.absoluteSampleSize = requiredSampleSize(testStat.cov(), opt.spec);
    out.wallSeconds = seconds(t0);
    return out;
}

} // namespace lp

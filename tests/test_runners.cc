/**
 * End-to-end invariants of the runners, foremost the paper's central
 * claim: live-point replay reproduces the full-warming (SMARTS)
 * estimate — checkpointed warm state adds no bias.
 */

#include "test_util.hh"

#include "core/runners.hh"
#include "core/stratified.hh"
#include "store/result_store.hh"

int
main()
{
    using namespace lp;
    using namespace lptest;

    const CoreConfig cfg = baseConfig();
    const TinyLib t = buildTinyLibrary("runtest", 600'000, 31, 60);
    const Program &prog = t.prog;
    const SampleDesign &design = t.design;
    const LivePointLibrary &lib = t.lib;

    const SampledEstimate smarts = runSmarts(prog, cfg, design);
    CHECK(smarts.cpi() > 0.1 && smarts.cpi() < 20.0);
    CHECK_EQ(smarts.stat.count(), design.count);

    // Zero additional bias: replaying every live-point in stored
    // order gives the same per-window CPIs as full warming.
    LivePointRunOptions opt;
    const LivePointRunResult replay = runLivePoints(prog, lib, cfg, opt);
    CHECK_EQ(replay.processed, lib.size());
    CHECK_NEAR(replay.cpi(), smarts.cpi(), 1e-9);
    CHECK_NEAR(replay.finalSnapshot.relHalfWidth,
               smarts.stat.relHalfWidth(confidenceZ(0.997)), 1e-9);

    // Golden pins: the CPI bits of both estimates, recorded from the
    // per-instruction stream derivation. The checks above compare two
    // runs of the same binary; these catch a changed stream.
    CHECK_PIN(doubleBits(smarts.cpi()), 0x3ff8e1f671529a4aull);
    CHECK_PIN(doubleBits(replay.cpi()), 0x3ff8e1f671529a48ull);

    // The estimate is order-invariant over the full library, and
    // thread-count-invariant.
    {
        LivePointRunOptions shuffled;
        shuffled.shuffleSeed = 123;
        const LivePointRunResult r =
            runLivePoints(prog, lib, cfg, shuffled);
        CHECK_NEAR(r.cpi(), replay.cpi(), 1e-9);

        LivePointRunOptions parallel;
        parallel.threads = 4;
        const LivePointRunResult p =
            runLivePoints(prog, lib, cfg, parallel);
        CHECK_NEAR(p.cpi(), replay.cpi(), 1e-12);
    }

    // Restricted wrong-path approximation changes little.
    {
        LivePointRunOptions approx;
        approx.approxWrongPath = true;
        const LivePointRunResult r =
            runLivePoints(prog, lib, cfg, approx);
        CHECK_REL(r.cpi(), replay.cpi(), 0.10);
    }

    // Matched pair of a config against itself: exactly zero delta.
    {
        LivePointRunOptions mp;
        const MatchedPairOutcome same =
            runMatchedPair(prog, lib, cfg, cfg, mp);
        CHECK_NEAR(same.result.meanDelta, 0.0, 1e-12);
        CHECK(!same.result.significant);

        // A plainly slower memory must read as significantly slower.
        const CoreConfig slow = slowMemConfig();
        const MatchedPairOutcome diff =
            runMatchedPair(prog, lib, cfg, slow, mp);
        CHECK(diff.result.meanDelta > 0.0);
        CHECK(diff.result.significant);
        CHECK(diff.pairedSampleSize > 0);
        CHECK(diff.absoluteSampleSize >= minCltSample);
    }

    // AW-MRRL: small bias relative to full warming, less warming work.
    {
        const MrrlAnalysis mrrl = analyzeMrrl(
            prog, design.windowStarts(), design.windowLen());
        CHECK_EQ(mrrl.warmingLengths.size(), design.count);
        const SampledEstimate aw =
            runAdaptiveWarming(prog, cfg, design, mrrl, true);
        CHECK_REL(aw.cpi(), smarts.cpi(), 0.25);
        CHECK(aw.warmedInsts < smarts.warmedInsts);
    }

    // Stratified estimator agrees with the uniform estimate.
    {
        StratifiedOptions sopt;
        sopt.spec = ConfidenceSpec{0.997, 0.10};
        const StratifiedResult strat =
            runStratified(prog, lib, cfg, sopt);
        CHECK(strat.processed > 0);
        CHECK(strat.processed <= lib.size());
        CHECK_NEAR(strat.mean, replay.cpi(),
                   0.15 * replay.cpi() + 1e-12);
    }

    // Complete detailed simulation runs and yields a sane CPI.
    {
        const CompleteSimResult cs =
            runCompleteDetailed(prog, cfg, 200'000);
        CHECK_EQ(cs.insts, 200'000u);
        CHECK(cs.cpi > 0.1 && cs.cpi < 20.0);
    }

    return TEST_MAIN_RESULT();
}

/**
 * The replay engine's contract: pooled, reused contexts reproduce
 * fresh-context results exactly, and the block-synchronous runners
 * produce bit-identical estimates at every thread count — with and
 * without early stopping, which must stop at the same block prefix
 * everywhere. The storage matrix: the in-memory build and its mapped
 * load must reproduce the same bits at threads 1/2/4, stopping
 * included. At one decode producer,
 * the engine's count of records decoded repeats exactly and beats
 * cache-less chain walks.
 */

#include "test_util.hh"

#include <cstdio>
#include <string>
#include <vector>

#include "core/replay.hh"
#include "core/runners.hh"
#include "core/stratified.hh"

int
main()
{
    using namespace lp;
    using namespace lptest;

    const CoreConfig cfg = baseConfig();
    TinyLib t = buildTinyLibrary("replaytest", 500'000, 17, 64, {cfg},
                                 11);
    const Program &prog = t.prog;
    LivePointLibrary &lib = t.lib;

    // (a) One pooled context reused across every point reproduces the
    // fresh-context result exactly, in any visit order.
    {
        ReplayContext pooled(prog, cfg);
        for (std::size_t pass = 0; pass < 2; ++pass) {
            for (std::size_t i = 0; i < lib.size(); ++i) {
                const std::size_t pos =
                    pass ? lib.size() - 1 - i : i;
                const LivePoint point = lib.get(pos);
                const WindowResult fresh =
                    simulateLivePoint(prog, point, cfg);
                const WindowResult reused = pooled.simulate(point);
                CHECK_NEAR(reused.cpi, fresh.cpi, 0.0);
                CHECK_EQ(reused.insts, fresh.insts);
                CHECK_EQ(reused.cycles, fresh.cycles);
                CHECK_EQ(reused.unavailableLoads,
                         fresh.unavailableLoads);
            }
        }
    }

    // Four-configuration fan-out pins: one context binds every
    // configuration and replays each loaded point under all of them.
    // slow-mem shares both warm-state stashes with the baseline; the
    // other two reconstruct their own cache geometries. Every replay
    // runs under the point's restricted availability image, with
    // wrong paths simulated and approximated away. The pins fix each
    // configuration's (cycles, insts, unavailableLoads) stream.
    {
        CoreConfig wide = baseConfig();
        wide.name = "wide-l2-512k";
        wide.width = 16;
        wide.ruuSize = 256;
        wide.lsqSize = 128;
        wide.fus = {8, 4, 8, 4};
        wide.bpred.predictionsPerCycle = 2;
        wide.mem.l2 = {512 * 1024, 4, 128};
        CoreConfig small = baseConfig();
        small.name = "l1d-16k-l2-8way";
        small.mem.l1d = {16 * 1024, 2, 64};
        small.mem.l2 = {1ull << 20, 8, 128};
        small.mem.memLatency = 200;
        const std::vector<CoreConfig> fan = {cfg, slowMemConfig(), wide,
                                             small};
        const std::uint64_t pins[2][4] = {
            {0x26a5613cbab4637full, 0xc149f43966ab2bbfull,
             0x03fccb4884700f44ull, 0xe41424139f5f1105ull},
            {0x86c06f7fc3e72e41ull, 0x83857344bab14c51ull,
             0xc0224ed1ee16640eull, 0x674c67f82f56f1adull},
        };
        ReplayContext ctx(prog, fan);
        for (const bool approx : {false, true}) {
            std::uint64_t digest[4] = {1, 2, 3, 4};
            std::uint64_t unavailable = 0;
            for (std::size_t i = 0; i < lib.size(); ++i) {
                const LivePoint point = lib.get(i);
                ctx.loadPoint(point);
                WindowResult one[4];
                for (std::size_t c = 0; c < fan.size(); ++c) {
                    const WindowResult w = ctx.replay(c, approx);
                    digest[c] = hashCombine(
                        hashCombine(hashCombine(digest[c], w.cycles),
                                    w.insts),
                        w.unavailableLoads);
                    unavailable += w.unavailableLoads;
                    one[c] = w;
                }
                // The lockstep pass over all four, on the same load
                // (it starts from the point's warm state again),
                // equals the one-configuration replays.
                WindowResult all[4];
                ctx.replayMask(replayMaskAll(fan.size()), all, approx);
                for (std::size_t c = 0; c < fan.size(); ++c) {
                    CHECK_EQ(all[c].cycles, one[c].cycles);
                    CHECK_EQ(all[c].insts, one[c].insts);
                    CHECK_EQ(all[c].unavailableLoads,
                             one[c].unavailableLoads);
                }
                // Two configurations sharing both stashes, alone.
                WindowResult pair[4];
                ctx.replayMask(0b0011, pair, approx);
                CHECK_EQ(pair[1].cycles, one[1].cycles);
            }
            // Approximated wrong paths issue no loads at all.
            if (approx)
                CHECK_EQ(unavailable, 0u);
            else
                CHECK(unavailable > 0);
            for (std::size_t c = 0; c < fan.size(); ++c)
                CHECK_PIN(digest[c], pins[approx][c]);
        }
    }

    // decodeInto with recycled buffers matches get().
    {
        LivePointDecodeScratch scratch;
        LivePoint reused;
        for (std::size_t i = 0; i < lib.size(); ++i) {
            lib.decodeInto(i, scratch, reused);
            const LivePoint fresh = lib.get(i);
            CHECK(reused.serialize() == fresh.serialize());
        }
    }

    // (b) runLivePoints is bit-identical across thread counts, with
    // and without early stopping.
    {
        for (const bool stopping : {false, true}) {
            LivePointRunOptions ref;
            ref.threads = 1;
            ref.shuffleSeed = 5;
            ref.recordTrajectory = true;
            ref.stopAtConfidence = stopping;
            ref.blockSize = 8;
            // Loose target so stopping fires inside the library.
            ref.spec = ConfidenceSpec{0.95, 0.20};
            const LivePointRunResult base =
                runLivePoints(prog, lib, cfg, ref);
            CHECK(base.processed > 0);
            if (stopping) {
                // (c) early stopping must cut the run at a block
                // barrier before the end of the library.
                CHECK(base.processed < lib.size());
                CHECK_EQ(base.processed % ref.blockSize, 0u);
            } else {
                CHECK_EQ(base.processed, lib.size());
            }
            for (const unsigned threads : {2u, 4u, 8u}) {
                LivePointRunOptions opt = ref;
                opt.threads = threads;
                const LivePointRunResult r =
                    runLivePoints(prog, lib, cfg, opt);
                CHECK_EQ(r.processed, base.processed);
                CHECK_NEAR(r.cpi(), base.cpi(), 0.0);
                CHECK_NEAR(r.finalSnapshot.relHalfWidth,
                           base.finalSnapshot.relHalfWidth, 0.0);
                CHECK_EQ(r.unavailableLoads, base.unavailableLoads);
                CHECK_EQ(r.trajectory.size(), base.trajectory.size());
                for (std::size_t i = 0; i < r.trajectory.size(); ++i) {
                    CHECK_NEAR(r.trajectory[i].mean,
                               base.trajectory[i].mean, 0.0);
                    CHECK_NEAR(r.trajectory[i].relHalfWidth,
                               base.trajectory[i].relHalfWidth, 0.0);
                }
            }
        }
    }

    // A fold block wider than the run is one block of the whole run:
    // blocks of n + 1, 2^63 and 2^64 - 1 fold exactly like a block of
    // n at two workers, with and without early stopping. (2^63 wraps
    // the stopping gate's 2 * block to zero; 2^64 - 1 wraps the block
    // count to zero.)
    {
        const std::size_t n = lib.size();
        for (const bool stopping : {false, true}) {
            LivePointRunOptions ref;
            ref.threads = 2;
            ref.shuffleSeed = 5;
            ref.recordTrajectory = true;
            ref.stopAtConfidence = stopping;
            ref.spec = ConfidenceSpec{0.95, 0.20};
            ref.blockSize = n;
            const LivePointRunResult base =
                runLivePoints(prog, lib, cfg, ref);
            CHECK_EQ(base.processed, n);
            for (const std::size_t block :
                 {n + 1, std::size_t{1} << 63, ~std::size_t{0}}) {
                LivePointRunOptions opt = ref;
                opt.blockSize = block;
                const LivePointRunResult r =
                    runLivePoints(prog, lib, cfg, opt);
                CHECK_EQ(r.processed, base.processed);
                CHECK_NEAR(r.cpi(), base.cpi(), 0.0);
                CHECK_NEAR(r.finalSnapshot.relHalfWidth,
                           base.finalSnapshot.relHalfWidth, 0.0);
                CHECK_EQ(r.trajectory.size(), base.trajectory.size());
            }
        }
    }

    // The block-folded estimate matches a plain sequential fold of
    // the same observations (merge adds no statistical bias).
    {
        LivePointRunOptions opt;
        const LivePointRunResult r = runLivePoints(prog, lib, cfg, opt);
        RunningStat direct;
        for (std::size_t i = 0; i < lib.size(); ++i)
            direct.add(simulateLivePoint(prog, lib.get(i), cfg).cpi);
        CHECK_NEAR(r.cpi(), direct.mean(), 1e-12);
    }

    // Matched pairs: identical across thread counts, including the
    // block-synchronous stopping point.
    {
        const CoreConfig slow = slowMemConfig();
        LivePointRunOptions ref;
        ref.stopAtConfidence = true;
        ref.blockSize = 8;
        const MatchedPairOutcome base =
            runMatchedPair(prog, lib, cfg, slow, ref);
        CHECK(base.result.meanDelta > 0.0);
        for (const unsigned threads : {2u, 4u}) {
            LivePointRunOptions opt = ref;
            opt.threads = threads;
            const MatchedPairOutcome r =
                runMatchedPair(prog, lib, cfg, slow, opt);
            CHECK_EQ(r.processed, base.processed);
            CHECK_NEAR(r.result.meanDelta, base.result.meanDelta, 0.0);
            CHECK_NEAR(r.result.deltaHalfWidth,
                       base.result.deltaHalfWidth, 0.0);
            CHECK_EQ(r.pairedSampleSize, base.pairedSampleSize);
        }
    }

    // Storage matrix: a loaded library must replay bit-identically to
    // the in-memory build at every thread count — the storage layer
    // may decide where bytes live, never what the estimate is.
    {
        const std::string path = "replaytest-backend.lpl";
        lib.save(path);

        const LivePointLibrary loaded = LivePointLibrary::load(path);
        CHECK_EQ(loaded.contentHash(), lib.contentHash());

        for (const bool stopping : {false, true}) {
            LivePointRunOptions ref;
            ref.shuffleSeed = 5;
            ref.stopAtConfidence = stopping;
            ref.blockSize = 8;
            ref.spec = ConfidenceSpec{0.95, 0.20};
            const LivePointRunResult base =
                runLivePoints(prog, lib, cfg, ref);

            for (const unsigned threads : {1u, 2u, 4u}) {
                LivePointRunOptions opt = ref;
                opt.threads = threads;
                const LivePointRunResult r =
                    runLivePoints(prog, loaded, cfg, opt);
                CHECK_EQ(r.processed, base.processed);
                CHECK_NEAR(r.cpi(), base.cpi(), 0.0);
                CHECK_NEAR(r.finalSnapshot.relHalfWidth,
                           base.finalSnapshot.relHalfWidth, 0.0);
                CHECK_EQ(r.unavailableLoads, base.unavailableLoads);
            }
        }

        // Matched pairs replay a loaded library identically too.
        {
            const CoreConfig slow = slowMemConfig();
            LivePointRunOptions ref;
            ref.stopAtConfidence = true;
            ref.blockSize = 8;
            const MatchedPairOutcome base =
                runMatchedPair(prog, lib, cfg, slow, ref);
            const LivePointLibrary loaded =
                LivePointLibrary::load(path);
            for (const unsigned threads : {1u, 2u}) {
                LivePointRunOptions opt = ref;
                opt.threads = threads;
                const MatchedPairOutcome r =
                    runMatchedPair(prog, loaded, cfg, slow, opt);
                CHECK_EQ(r.processed, base.processed);
                CHECK_NEAR(r.result.meanDelta, base.result.meanDelta,
                           0.0);
                CHECK_NEAR(r.result.deltaHalfWidth,
                           base.result.deltaHalfWidth, 0.0);
            }
        }
        std::remove(path.c_str());
    }

    // Checkpoint economics: a delta-chained library must replay
    // bit-identically to the plain library — same program, same
    // design, same shuffle — loaded from its file, at threads 1/2/4.
    {
        TinyLib tc = buildTinyLibrary(
            "replaytest", 500'000, 17, 64, {cfg}, 11,
            [](LivePointBuilderConfig &bc) { bc.deltaEncode = true; });
        const LivePointLibrary &clib = tc.lib;
        CHECK(clib.deltaCount() > 0);
        CHECK_EQ(clib.size(), lib.size());

        const std::string path = "replaytest-cross.lpl";
        clib.save(path);

        const LivePointLibrary loaded = LivePointLibrary::load(path);
        CHECK_EQ(loaded.contentHash(), clib.contentHash());
        CHECK(loaded.deltaCount() > 0);

        for (const bool stopping : {false, true}) {
            LivePointRunOptions ref;
            ref.shuffleSeed = 5;
            ref.stopAtConfidence = stopping;
            ref.blockSize = 8;
            ref.spec = ConfidenceSpec{0.95, 0.20};
            // The reference is the *plain* library: encoding must
            // never change an estimate, only where bytes live.
            const LivePointRunResult base =
                runLivePoints(prog, lib, cfg, ref);

            for (const unsigned threads : {1u, 2u, 4u}) {
                LivePointRunOptions opt = ref;
                opt.threads = threads;
                const LivePointRunResult r =
                    runLivePoints(prog, loaded, cfg, opt);
                CHECK_EQ(r.processed, base.processed);
                CHECK_NEAR(r.cpi(), base.cpi(), 0.0);
                CHECK_NEAR(r.finalSnapshot.relHalfWidth,
                           base.finalSnapshot.relHalfWidth, 0.0);
                CHECK_EQ(r.unavailableLoads, base.unavailableLoads);
            }
            // Several producers, each with its own chain cache,
            // decode the same points.
            LivePointRunOptions opt = ref;
            opt.threads = 4;
            opt.decodeThreads = 3;
            const LivePointRunResult r =
                runLivePoints(prog, loaded, cfg, opt);
            CHECK_EQ(r.processed, base.processed);
            CHECK_NEAR(r.cpi(), base.cpi(), 0.0);
            CHECK_EQ(r.unavailableLoads, base.unavailableLoads);
        }

        // Decode work inside the engine. A shuffled visit
        // materializes an exactly repeatable number of records
        // (keyframes and chain links), fewer than cache-less walks —
        // chain depth + 1 per point — would.
        {
            const LivePointLibrary loaded = LivePointLibrary::load(path);
            const std::vector<std::size_t> order =
                replayOrder(loaded.size(), 5);
            std::uint64_t cold = 0;
            for (const std::size_t k : order)
                cold += loaded.chainDepth(k) + 1;
            std::uint64_t records[4] = {0, 0, 0, 0};
            for (std::size_t i = 0; i < 4; ++i) {
                ReplayEngineOptions ro;
                ro.threads = 1;
                ro.decodeThreads = i < 2 ? 1 : 2;
                ReplayEngine eng(prog, {cfg}, ro);
                eng.run(
                    loaded, order, 8, false,
                    [](std::size_t, const WindowResult *) {},
                    [](std::size_t) { return ~std::uint64_t(0); });
                CHECK_EQ(eng.pointsDecoded(), loaded.size());
                records[i] = eng.recordsDecoded();
            }
            CHECK_EQ(records[0], records[1]);
            CHECK(records[0] >= loaded.size());
            CHECK(records[0] < cold);
            // Two producers deal the chains between them, so each
            // chain is still walked through one cache: the count
            // repeats and, since this library's chains fit either
            // cache, equals the one-producer count.
            CHECK_EQ(records[2], records[3]);
            CHECK_EQ(records[2], records[0]);
        }
        std::remove(path.c_str());
    }

    // Stratified: the parallel pilot leaves every greedy decision —
    // and so the whole outcome — unchanged.
    {
        StratifiedOptions ref;
        ref.spec = ConfidenceSpec{0.997, 0.10};
        const StratifiedResult base =
            runStratified(prog, lib, cfg, ref);
        CHECK(base.processed > 0);
        for (const unsigned threads : {2u, 4u}) {
            StratifiedOptions opt = ref;
            opt.threads = threads;
            const StratifiedResult r =
                runStratified(prog, lib, cfg, opt);
            CHECK_EQ(r.processed, base.processed);
            CHECK_NEAR(r.mean, base.mean, 0.0);
            CHECK_NEAR(r.relHalfWidth, base.relHalfWidth, 0.0);
        }
    }

    return TEST_MAIN_RESULT();
}

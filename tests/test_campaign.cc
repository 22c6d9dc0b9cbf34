/**
 * The campaign engine's contracts: decode-once fan-out is
 * bit-identical per cell to running each configuration separately
 * (at every thread count), common-random-numbers pairing reproduces
 * runMatchedPair's deltas exactly, per-cell confidence stopping
 * matches the standalone runner's stopping point, and a campaign
 * stopped mid-run (budget barrier = what a kill leaves behind in the
 * manifest) resumes to the uninterrupted result bit-for-bit.
 */

#include "test_util.hh"

#include <cstdio>
#include <filesystem>

#include "core/campaign.hh"
#include "core/library_set.hh"
#include "core/runners.hh"

int
main()
{
    using namespace lp;
    using namespace lptest;

    // The design space: the 8-way baseline plus three one-parameter
    // variants (the sec-6.2 sensitivity-study shape).
    std::vector<CoreConfig> cfgs;
    cfgs.push_back(baseConfig());
    {
        CoreConfig c = baseConfig();
        c.name = "mem-140";
        c.mem.memLatency = 140;
        cfgs.push_back(c);
    }
    {
        CoreConfig c = baseConfig();
        c.name = "l2-512K";
        c.mem.l2.sizeBytes = 512 * 1024;
        cfgs.push_back(c);
    }
    cfgs.push_back(slowMemConfig());

    const TinyLib w0 =
        buildTinyLibrary("camp-a", 500'000, 17, 64, cfgs, 11);
    const TinyLib w1 = buildTinyLibrary("camp-b", 300'000, 23, 32, cfgs);

    const std::vector<CampaignWorkload> grid{
        {"camp-a", &w0.prog, &w0.lib},
        {"camp-b", &w1.prog, &w1.lib},
    };

    // Distinct configurations must have distinct digests; renaming
    // must not change one.
    {
        CHECK(configDigest(cfgs[0]) != configDigest(cfgs[1]));
        CHECK(configDigest(cfgs[0]) != configDigest(cfgs[3]));
        CoreConfig renamed = cfgs[0];
        renamed.name = "alias";
        CHECK_EQ(configDigest(renamed), configDigest(cfgs[0]));
    }

    // (a) Without stopping: every cell is bit-identical to a
    // standalone runLivePoints of that (workload, config), and every
    // pair delta is bit-identical to runMatchedPair — the decode-once
    // fan-out changes scheduling, never results.
    CampaignOptions copt;
    copt.blockSize = 8;
    copt.shuffleSeed = 5;
    CampaignEngine engine(grid, cfgs, copt);
    const CampaignResult base = engine.run();
    CHECK_EQ(base.cells.size(), grid.size() * cfgs.size());
    CHECK_EQ(base.pairs.size(),
             grid.size() * cfgs.size() * (cfgs.size() - 1) / 2);
    for (std::size_t w = 0; w < grid.size(); ++w) {
        const TinyLib &t = w == 0 ? w0 : w1;
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            LivePointRunOptions opt;
            opt.blockSize = copt.blockSize;
            opt.shuffleSeed = copt.shuffleSeed;
            const LivePointRunResult ref =
                runLivePoints(t.prog, t.lib, cfgs[c], opt);
            const CampaignCell &cell =
                base.cell(w, c, cfgs.size());
            CHECK_EQ(cell.processed, ref.processed);
            CHECK_NEAR(cell.cpi(), ref.cpi(), 0.0);
            CHECK_NEAR(cell.estimate.relHalfWidth,
                       ref.finalSnapshot.relHalfWidth, 0.0);
            CHECK_EQ(cell.unavailableLoads, ref.unavailableLoads);
            CHECK(!cell.converged);
        }
        for (std::size_t c = 1; c < cfgs.size(); ++c) {
            LivePointRunOptions opt;
            opt.blockSize = copt.blockSize;
            opt.shuffleSeed = copt.shuffleSeed;
            const MatchedPairOutcome mp =
                runMatchedPair(t.prog, t.lib, cfgs[0], cfgs[c], opt);
            const CampaignPair *p = base.pair(w, 0, c);
            CHECK(p != nullptr);
            CHECK_EQ(p->delta.count(),
                     static_cast<std::uint64_t>(mp.processed));
            CHECK_NEAR(p->meanDelta(), mp.result.meanDelta, 0.0);
            CHECK_NEAR(p->delta.halfWidth(confidenceZ(opt.spec.level)),
                       mp.result.deltaHalfWidth, 0.0);
        }
    }
    // The slow-memory variant must read slower than baseline on both
    // workloads (sanity that the grid measured something real).
    for (std::size_t w = 0; w < grid.size(); ++w)
        CHECK(base.pair(w, 0, 3)->meanDelta() > 0.0);

    // Decode-once accounting: a 4-config campaign decodes each point
    // once, not once per config.
    CHECK_EQ(base.pointsDecoded,
             static_cast<std::uint64_t>(w0.lib.size() + w1.lib.size()));
    CHECK_EQ(base.foldedReplays,
             static_cast<std::uint64_t>(
                 (w0.lib.size() + w1.lib.size()) * cfgs.size()));

    // (b) Thread-count invariance of the whole grid, pairs included.
    for (const unsigned threads : {2u, 4u}) {
        CampaignOptions opt = copt;
        opt.threads = threads;
        const CampaignResult r = CampaignEngine(grid, cfgs, opt).run();
        for (std::size_t i = 0; i < base.cells.size(); ++i) {
            CHECK_EQ(r.cells[i].processed, base.cells[i].processed);
            CHECK_NEAR(r.cells[i].cpi(), base.cells[i].cpi(), 0.0);
            CHECK_NEAR(r.cells[i].estimate.relHalfWidth,
                       base.cells[i].estimate.relHalfWidth, 0.0);
        }
        for (std::size_t i = 0; i < base.pairs.size(); ++i) {
            CHECK_EQ(r.pairs[i].delta.count(),
                     base.pairs[i].delta.count());
            CHECK_NEAR(r.pairs[i].meanDelta(),
                       base.pairs[i].meanDelta(), 0.0);
        }
    }

    // (c) Per-cell confidence stopping matches the standalone
    // runner's stopping point exactly, and retired cells free work
    // (migration) deterministically at every thread count.
    {
        CampaignOptions opt = copt;
        opt.stopAtConfidence = true;
        opt.spec = ConfidenceSpec{0.95, 0.15};
        const CampaignResult stopped =
            CampaignEngine(grid, cfgs, opt).run();
        bool anyEarly = false;
        for (std::size_t w = 0; w < grid.size(); ++w) {
            const TinyLib &t = w == 0 ? w0 : w1;
            for (std::size_t c = 0; c < cfgs.size(); ++c) {
                LivePointRunOptions ropt;
                ropt.blockSize = opt.blockSize;
                ropt.shuffleSeed = opt.shuffleSeed;
                ropt.stopAtConfidence = true;
                ropt.spec = opt.spec;
                const LivePointRunResult ref =
                    runLivePoints(t.prog, t.lib, cfgs[c], ropt);
                const CampaignCell &cell =
                    stopped.cell(w, c, cfgs.size());
                CHECK_EQ(cell.processed, ref.processed);
                CHECK_NEAR(cell.cpi(), ref.cpi(), 0.0);
                anyEarly = anyEarly || cell.processed < t.lib.size();
            }
        }
        CHECK(anyEarly);
        CHECK(stopped.retirements > 0);
        CHECK(stopped.migratedReplays > 0);
        for (const unsigned threads : {2u, 4u}) {
            CampaignOptions topt = opt;
            topt.threads = threads;
            const CampaignResult r =
                CampaignEngine(grid, cfgs, topt).run();
            CHECK_EQ(r.retirements, stopped.retirements);
            CHECK_EQ(r.migratedReplays, stopped.migratedReplays);
            for (std::size_t i = 0; i < stopped.cells.size(); ++i) {
                CHECK_EQ(r.cells[i].processed,
                         stopped.cells[i].processed);
                CHECK_NEAR(r.cells[i].cpi(), stopped.cells[i].cpi(),
                           0.0);
            }
        }
    }

    // (d) Kill + resume: a campaign stopped at a mid-run barrier (the
    // state a kill leaves in the manifest) resumes to the
    // uninterrupted result bit-for-bit, without re-replaying finished
    // work.
    {
        const std::string manifest = "campaign-test.manifest";
        std::remove(manifest.c_str());

        CampaignOptions opt = copt;
        opt.manifestPath = manifest;
        // Stop partway through workload 0 (budget in folded replays).
        opt.maxFoldedReplays = 24 * cfgs.size();
        const CampaignResult killed =
            CampaignEngine(grid, cfgs, opt).run();
        CHECK(killed.budgetExhausted);
        CHECK(killed.cell(0, 0, cfgs.size()).processed < w0.lib.size());
        CHECK_EQ(killed.cell(1, 0, cfgs.size()).processed, 0u);

        CampaignOptions ropt = copt;
        ropt.manifestPath = manifest;
        const CampaignResult resumed =
            CampaignEngine(grid, cfgs, ropt).run();
        CHECK(resumed.restoredReplays > 0);
        CHECK_EQ(resumed.restoredReplays, killed.foldedReplays);
        for (std::size_t i = 0; i < base.cells.size(); ++i) {
            CHECK_EQ(resumed.cells[i].processed,
                     base.cells[i].processed);
            CHECK_NEAR(resumed.cells[i].cpi(), base.cells[i].cpi(),
                       0.0);
            CHECK_NEAR(resumed.cells[i].estimate.relHalfWidth,
                       base.cells[i].estimate.relHalfWidth, 0.0);
        }
        for (std::size_t i = 0; i < base.pairs.size(); ++i) {
            CHECK_EQ(resumed.pairs[i].delta.count(),
                     base.pairs[i].delta.count());
            CHECK_NEAR(resumed.pairs[i].meanDelta(),
                       base.pairs[i].meanDelta(), 0.0);
            CHECK_NEAR(resumed.pairs[i].delta.variance(),
                       base.pairs[i].delta.variance(), 0.0);
        }

        // A different campaign must refuse the manifest.
        {
            CampaignOptions wrong = ropt;
            wrong.shuffleSeed = 99;
            CHECK_THROWS(CampaignEngine(grid, cfgs, wrong).run());
            std::vector<CoreConfig> fewer(cfgs.begin(),
                                          cfgs.begin() + 2);
            CHECK_THROWS(CampaignEngine(grid, fewer, ropt).run());
        }
        std::remove(manifest.c_str());
    }

    // (f) The sharded fleet store as a campaign source: a set-backed
    // grid must reproduce the resident-library campaign bit for bit
    // (cells and pairs, at several thread counts), open shards
    // lazily, release them as workloads finish, and interoperate
    // with manifests written by
    // the resident-library campaign (the index hash equals the
    // library hash).
    {
        const std::string setDir = "campaign-test-set";
        std::filesystem::remove_all(setDir);
        {
            LibrarySetWriter writer(setDir);
            writer.addShard("camp-a", w0.lib);
            writer.addShard("camp-b", w1.lib);
        }
        const LibrarySet set = LibrarySet::open(setDir);
        CHECK_EQ(set.contentHash(0), w0.lib.contentHash());
        CHECK_EQ(set.contentHash(1), w1.lib.contentHash());

        std::vector<CampaignWorkload> setGrid(2);
        setGrid[0].name = "camp-a";
        setGrid[0].prog = &w0.prog;
        setGrid[0].set = &set;
        setGrid[0].shard = 0;
        setGrid[1].name = "camp-b";
        setGrid[1].prog = &w1.prog;
        setGrid[1].set = &set;
        setGrid[1].shard = 1;

        // Constructing the engine reads only index metadata.
        CampaignEngine setEngine(setGrid, cfgs, copt);
        CHECK_EQ(set.loadedCount(), 0u);

        for (const unsigned threads : {1u, 2u}) {
            CampaignOptions opt = copt;
            opt.threads = threads;
            const CampaignResult r =
                CampaignEngine(setGrid, cfgs, opt).run();
            // Finished shards were unloaded behind the run.
            CHECK_EQ(set.loadedCount(), 0u);
            for (std::size_t i = 0; i < base.cells.size(); ++i) {
                CHECK_EQ(r.cells[i].processed, base.cells[i].processed);
                CHECK_NEAR(r.cells[i].cpi(), base.cells[i].cpi(), 0.0);
                CHECK_NEAR(r.cells[i].estimate.relHalfWidth,
                           base.cells[i].estimate.relHalfWidth, 0.0);
            }
            for (std::size_t i = 0; i < base.pairs.size(); ++i) {
                CHECK_EQ(r.pairs[i].delta.count(),
                         base.pairs[i].delta.count());
                CHECK_NEAR(r.pairs[i].meanDelta(),
                           base.pairs[i].meanDelta(), 0.0);
            }
        }

        // Manifest interop + resume: kill a resident-library
        // campaign at its budget barrier, resume it set-backed. The
        // resumed half must only open the unfinished shards' files
        // and finish bit-identical to the uninterrupted run.
        {
            const std::string manifest = "campaign-test-set.manifest";
            std::remove(manifest.c_str());
            CampaignOptions opt = copt;
            opt.manifestPath = manifest;
            opt.maxFoldedReplays = 24 * cfgs.size();
            const CampaignResult killed =
                CampaignEngine(grid, cfgs, opt).run();
            CHECK(killed.budgetExhausted);

            CampaignOptions ropt2 = copt;
            ropt2.manifestPath = manifest;
            const CampaignResult resumed =
                CampaignEngine(setGrid, cfgs, ropt2).run();
            CHECK_EQ(resumed.restoredReplays, killed.foldedReplays);
            for (std::size_t i = 0; i < base.cells.size(); ++i) {
                CHECK_EQ(resumed.cells[i].processed,
                         base.cells[i].processed);
                CHECK_NEAR(resumed.cells[i].cpi(),
                           base.cells[i].cpi(), 0.0);
            }
            std::remove(manifest.c_str());
        }

        std::filesystem::remove_all(setDir);
    }

    // (e) The JSON report is written and structurally sane.
    {
        const std::string json = engine.jsonReport(base);
        CHECK(json.find("\"cells\"") != std::string::npos);
        CHECK(json.find("\"pairs\"") != std::string::npos);
        CHECK(json.find("\"decode_fanout\"") != std::string::npos);
        CHECK(json.find("camp-a") != std::string::npos);
        CHECK(json.find("slow-mem") != std::string::npos);
    }

    return TEST_MAIN_RESULT();
}

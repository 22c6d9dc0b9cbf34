/**
 * Parallel library construction: the pipelined single-shard build is
 * bit-identical to the sequential reference, sharded builds keep the
 * architectural content of every point exact and their warm-state
 * bias inside the Fig-4 tolerance, builder statistics are sane, and a
 * failed encode stops the whole build with its error.
 */

#include "test_util.hh"

#include <cstdio>
#include <string>

#include <unistd.h>

#include "core/runners.hh"
#include "util/failpoint.hh"

namespace
{

/** Whole-file byte equality. */
bool
sameFileBytes(const std::string &pa, const std::string &pb)
{
    auto slurp = [](const std::string &p) {
        lp::Blob out;
        if (FILE *f = std::fopen(p.c_str(), "rb")) {
            std::fseek(f, 0, SEEK_END);
            out.resize(static_cast<std::size_t>(std::ftell(f)));
            std::fseek(f, 0, SEEK_SET);
            if (std::fread(out.data(), 1, out.size(), f) != out.size())
                out.clear();
            std::fclose(f);
        }
        return out;
    };
    const lp::Blob a = slurp(pa);
    const lp::Blob b = slurp(pb);
    return !a.empty() && a == b;
}

} // namespace

int
main()
{
    using namespace lp;
    using namespace lptest;

    const CoreConfig cfg = baseConfig();
    const TinyBench t = makeTinyBench("buildtest", 400'000, 5, 40);
    const Program &prog = t.prog;
    const SampleDesign &design = t.design;

    LivePointBuilderConfig bcSeq;
    bcSeq.bpredConfigs = {cfg.bpred};
    bcSeq.buildThreads = 1;
    bcSeq.pipelineEncode = false; // the sequential reference path
    LivePointBuilder seqBuilder(bcSeq);
    const LivePointLibrary seqLib = seqBuilder.build(prog, design);
    CHECK_EQ(seqLib.size(), design.count);
    CHECK_EQ(seqBuilder.stats().shards, 1u);
    CHECK_EQ(seqBuilder.stats().prePassInsts, 0u);
    CHECK(seqBuilder.stats().instsSimulated > 0);

    // --- Pipelined S=1: encoding off the simulating thread must not
    // change a single byte of the library. ---
    {
        LivePointBuilderConfig bc = bcSeq;
        bc.pipelineEncode = true;
        LivePointBuilder builder(bc);
        const LivePointLibrary lib = builder.build(prog, design);
        CHECK(identicalRecords(seqLib, lib));
        CHECK_EQ(lib.totalCompressedBytes(),
                 seqLib.totalCompressedBytes());
        CHECK_EQ(lib.totalUncompressedBytes(),
                 seqLib.totalUncompressedBytes());
        CHECK_EQ(builder.stats().shards, 1u);

        // ... including on disk.
        const std::string pa = "buildtest-seq.lpl";
        const std::string pb = "buildtest-pipe.lpl";
        seqLib.save(pa);
        lib.save(pb);
        CHECK(sameFileBytes(pa, pb));
        std::remove(pa.c_str());
        std::remove(pb.c_str());
    }

    // Golden pins: each shard's warm state starts at its MRRL prefix,
    // so a change to the analysis's results or to the shard layout
    // changes these bytes, plain and delta alike.
    auto pinnedHash = [](unsigned shards, bool delta) {
        if (shards == 3)
            return delta ? 0xbb5266bf08a7e849ull : 0x28a9da10e071c046ull;
        return delta ? 0xc0d34a68dac24239ull : 0xb4b4a282dd247b86ull;
    };

    // --- Sharded build (MRRL-derived prefixes): architectural
    // content exact, warm-state bias within tolerance. ---
    const LivePointRunOptions ropt;
    const LivePointRunResult seqRun =
        runLivePoints(prog, seqLib, cfg, ropt);
    for (unsigned shards : {3u, 4u}) {
        LivePointBuilderConfig bc = bcSeq;
        bc.pipelineEncode = true;
        bc.buildThreads = shards;
        LivePointBuilder builder(bc);
        const LivePointLibrary lib = builder.build(prog, design);
        CHECK_EQ(lib.size(), design.count);
        CHECK_EQ(builder.stats().shards, shards);
        CHECK(builder.stats().prePassInsts > 0);

        CHECK_PIN(builder.stats().instsSimulated,
                  shards == 3 ? 0xaf1f5ull : 0xe5469ull);
        CHECK_PIN(lib.contentHash(), pinnedHash(shards, false));
        {
            LivePointBuilderConfig dc = bc;
            dc.deltaEncode = true;
            CHECK_PIN(LivePointBuilder(dc).build(prog, design).contentHash(),
                      pinnedHash(shards, true));
        }

        LivePointDecodeScratch scratchA, scratchB;
        LivePoint pa, pb;
        for (std::size_t i = 0; i < lib.size(); ++i) {
            seqLib.decodeInto(i, scratchA, pa);
            lib.decodeInto(i, scratchB, pb);
            // Registers and the live-state image come from
            // deterministic architectural execution: exact under any
            // sharding. Only microarchitectural warm state may vary.
            CHECK_EQ(pb.index, pa.index);
            CHECK_EQ(pb.windowStart, pa.windowStart);
            CHECK(pb.regs.serialize() == pa.regs.serialize());
            DerWriter wa, wb;
            pa.memImage.serialize(wa);
            pb.memImage.serialize(wb);
            CHECK(wa.finish() == wb.finish());
        }

        // Fig-4-style bias check: the shard-built estimate must match
        // the sequential full-warming estimate within a tight relative
        // tolerance (only each shard's leading windows can differ, by
        // the MRRL coverage argument).
        const LivePointRunResult run =
            runLivePoints(prog, lib, cfg, ropt);
        CHECK_EQ(run.processed, seqRun.processed);
        CHECK(seqRun.cpi() > 0);
        const double bias =
            std::fabs(run.cpi() - seqRun.cpi()) / seqRun.cpi();
        if (bias > 0.02)
            std::fprintf(stderr,
                         "shards=%u bias %.4f (seq %.4f vs shard %.4f)\n",
                         shards, bias, seqRun.cpi(), run.cpi());
        CHECK(bias <= 0.02);
    }

    // --- Sharded builds are themselves deterministic. ---
    {
        LivePointBuilderConfig bc = bcSeq;
        bc.pipelineEncode = true;
        bc.buildThreads = 3;
        LivePointBuilder b1(bc);
        LivePointBuilder b2(bc);
        const LivePointLibrary l1 = b1.build(prog, design);
        const LivePointLibrary l2 = b2.build(prog, design);
        CHECK(identicalRecords(l1, l2));
    }

    // --- Checkpoint economics: the delta-chained build obeys the
    // same contracts — S=1 pipelined bit-identical to sequential
    // (including on disk), and a sharded build stores different bytes
    // but decodes to exactly the points of the plain build at the
    // same shard count. ---
    {
        LivePointBuilderConfig bcCross = bcSeq;
        bcCross.deltaEncode = true;
        bcCross.pipelineEncode = false;
        LivePointBuilder crossSeq(bcCross);
        const LivePointLibrary crossSeqLib = crossSeq.build(prog, design);
        CHECK(crossSeqLib.deltaCount() > 0);
        CHECK(crossSeqLib.totalCompressedBytes() <
              seqLib.totalCompressedBytes());

        LivePointBuilderConfig bcPipe = bcCross;
        bcPipe.pipelineEncode = true;
        LivePointBuilder crossPipe(bcPipe);
        const LivePointLibrary pipeLib = crossPipe.build(prog, design);
        CHECK(identicalRecords(crossSeqLib, pipeLib));
        const std::string pa = "buildtest-cross-seq.lpl";
        const std::string pb = "buildtest-cross-pipe.lpl";
        crossSeqLib.save(pa);
        pipeLib.save(pb);
        CHECK(sameFileBytes(pa, pb));
        std::remove(pa.c_str());
        std::remove(pb.c_str());

        // Every point decodes to the sequential plain build's bytes
        // (encoding never changes content).
        LivePointDecodeScratch scratch, plainScratch;
        LivePoint pc, pp;
        for (std::size_t i = 0; i < crossSeqLib.size(); ++i) {
            crossSeqLib.decodeInto(i, scratch, pc);
            seqLib.decodeInto(i, plainScratch, pp);
            CHECK(pc.serialize() == pp.serialize());
        }

        // Sharded: delta chains restart at shard boundaries, content
        // still matches the plain sharded build point-for-point, and
        // the build stays deterministic.
        {
            LivePointBuilderConfig bcShard = bcSeq;
            bcShard.pipelineEncode = true;
            bcShard.buildThreads = 3;
            LivePointBuilder plain3(bcShard);
            const LivePointLibrary plainLib3 = plain3.build(prog, design);
            bcShard.deltaEncode = true;
            LivePointBuilder cross3a(bcShard);
            LivePointBuilder cross3b(bcShard);
            const LivePointLibrary crossLib3 = cross3a.build(prog, design);
            CHECK(identicalRecords(crossLib3, cross3b.build(prog, design)));
            CHECK(crossLib3.deltaCount() > 0);
            for (std::size_t i = 0; i < crossLib3.size(); ++i) {
                crossLib3.decodeInto(i, scratch, pc);
                plainLib3.decodeInto(i, plainScratch, pp);
                CHECK(pc.serialize() == pp.serialize());
            }
        }
    }

    // --- A failed encode halts the build. codec.compress failing on
    // the first record, mid-build or on every record makes build()
    // throw that error and return: the encoder that threw halts the
    // warming shards and the other encoders, which would otherwise
    // wait on the queue forever. The next unarmed build of the same
    // configuration writes the pinned bytes. ---
    {
        LivePointBuilderConfig seqDelta = bcSeq;
        seqDelta.deltaEncode = true;
        const std::uint64_t seqDeltaHash =
            LivePointBuilder(seqDelta).build(prog, design).contentHash();
        const std::string mid =
            "hit:" + std::to_string(design.count / 2);
        // A hung build kills the test (SIGALRM) instead of stalling it.
        ::alarm(600);
        for (const bool delta : {false, true}) {
            for (const unsigned shards : {1u, 3u, 4u}) {
                LivePointBuilderConfig bc = bcSeq;
                bc.pipelineEncode = true;
                bc.buildThreads = shards;
                bc.deltaEncode = delta;
                for (const std::string &trigger :
                     {std::string("hit:1"), mid, std::string("every:1")}) {
                    armFailpointsFromSpec("codec.compress=" + trigger +
                                          ":err");
                    std::string error;
                    try {
                        LivePointBuilder(bc).build(prog, design);
                    } catch (const std::exception &e) {
                        error = e.what();
                    }
                    disarmAllFailpoints();
                    const bool named =
                        error.find("codec.compress") != std::string::npos;
                    if (!named)
                        std::fprintf(stderr, "S=%u delta=%d %s: '%s'\n",
                                     shards, delta, trigger.c_str(),
                                     error.c_str());
                    CHECK(named);
                }
                const std::uint64_t want =
                    shards > 1 ? pinnedHash(shards, delta)
                               : delta ? seqDeltaHash
                                       : seqLib.contentHash();
                const LivePointLibrary lib =
                    LivePointBuilder(bc).build(prog, design);
                CHECK_PIN(lib.contentHash(), want);
            }
        }
        ::alarm(0);
    }

    // --- Restricted live-state tier: a builder configuration derived
    // from the campaign's configurations stores less warm state, and
    // replaying a covered configuration reconstructs the *exact* same
    // state as the full-geometry library (LRU inclusion), so the
    // estimates agree exactly. ---
    {
        const LivePointBuilderConfig restricted =
            restrictedBuilderConfig({cfg, slowMemConfig()}, bcSeq);
        // Both inputs share eightWay geometry, so the cover is it.
        CHECK(restricted.maxL2 == cfg.mem.l2);
        CHECK(restricted.maxL1d == cfg.mem.l1d);
        CHECK(restricted.maxL1i == cfg.mem.l1i);
        CHECK(restricted.maxItlb == cfg.mem.itlb);
        CHECK(restricted.maxDtlb == cfg.mem.dtlb);
        CHECK_EQ(restricted.bpredConfigs.size(), 1u);
        // Distinct geometries combine into the per-level cover.
        {
            CoreConfig big = cfg;
            big.mem.l2 = CacheGeometry{2ull << 20, 2, 128};
            const LivePointBuilderConfig two =
                restrictedBuilderConfig({cfg, big}, bcSeq);
            // Covering needs max sets *and* max assoc per level:
            // 1MB/4w has 2048 sets, 2MB/2w has 8192 -> 8192 * 4 * 128.
            CHECK_EQ(two.maxL2.numSets(), 8192u);
            CHECK_EQ(two.maxL2.assoc, 4u);
            CHECK_EQ(two.maxL2.lineBytes, 128u);
            CoreConfig badLine = cfg;
            badLine.mem.l2.lineBytes = 64;
            CHECK_THROWS(restrictedBuilderConfig({cfg, badLine}, bcSeq));
            CHECK_THROWS(restrictedBuilderConfig({}, bcSeq));
        }

        LivePointBuilder rbuilder(restricted);
        const LivePointLibrary rlib = rbuilder.build(prog, design);
        CHECK(rlib.totalUncompressedBytes() <
              seqLib.totalUncompressedBytes());
        const LivePointRunResult rrun =
            runLivePoints(prog, rlib, cfg, ropt);
        CHECK_EQ(rrun.processed, seqRun.processed);
        CHECK(rrun.cpi() == seqRun.cpi()); // exact, not approximate
    }

    return TEST_MAIN_RESULT();
}

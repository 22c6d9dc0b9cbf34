/**
 * @file
 * The traced run: the same seed-generated inputs as the workloads,
 * driven through each layer's public calls from one thread with a
 * span around every call. It covers, in order: program generation
 * (workload), the fleet-build path (builder, func, codec compress, io
 * shard write), one dse-cold grid taken apart point by point (io
 * shard open, codec decode, library decode, mem image apply, cache
 * reconstruct, replay with reconstruct vs stash, uarch step), the same
 * grid through ReplayEngine::run (fold wait) and CampaignEngine::run
 * (campaign, store), and the daemon round trips of a cold job,
 * memoized resubmits and queries (svc).
 */

#include <algorithm>
#include <memory>

#include "cache/cache.hh"
#include "codec/zip.hh"
#include "common.hh"
#include "core/campaign.hh"
#include "core/library_set.hh"
#include "core/replay.hh"
#include "daemon.hh"
#include "func/functional.hh"
#include "reference.hh"
#include "store/result_store.hh"
#include "trace.hh"
#include "util/log.hh"
#include "workloads.hh"

namespace pb
{

namespace
{

/** Points per shard taken apart call by call. */
constexpr std::size_t kTourPoints = 48;

/** Payloads compressed for codec.compress_mbps. */
constexpr std::size_t kCompressPayloads = 16;

/** Instructions of the arch-only functional run. */
constexpr lp::InstCount kFuncInsts = 4'000'000;

constexpr unsigned kMemoResubmits = 8;
constexpr unsigned kQueries = 8;
constexpr unsigned kSpecCodecRounds = 200;

/**
 * Grid configs that start a cache-geometry group: eight, sixteen and
 * sixteen-l2-1m; eight-mem300 shares eight's geometry.
 */
constexpr std::size_t kGeometryLeaders[] = {0, 1, 3};
constexpr std::size_t kStashConfig = 2;

struct TourCounts
{
    double zipBytes = 0;
    double deltaLinks = 0;
    double deltaDecodes = 0;
    double stashInsts = 0;
    double stashReplays = 0;
};

/** The five warm-state targets of one geometry group. */
struct GroupModels
{
    explicit GroupModels(const lp::CoreConfig &c)
        : l1i(c.mem.l1i, "l1i"), l1d(c.mem.l1d, "l1d"), l2(c.mem.l2, "l2"),
          itlb(c.mem.itlb, "itlb"), dtlb(c.mem.dtlb, "dtlb")
    {
    }
    lp::CacheModel l1i, l1d, l2, itlb, dtlb;
};

/**
 * Take the first kTourPoints points of each shard, in the grid's
 * shuffled order, through every per-point layer call. Returns the
 * wall seconds it took.
 */
double
pointTour(const lp::LibrarySet &set, const FleetInputs &in,
          std::uint64_t seed, Tracer *t, TourCounts *c)
{
    const auto t0 = Clock::now();
    const std::vector<lp::CoreConfig> cfgs = gridCoreConfigs();
    const auto &shards = fleetShards();
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const std::size_t idx = set.find(shards[i].name);
        set.unload(idx);
        const lp::LivePointLibrary *lib;
        {
            Scope s(t, "io.shardOpen");
            lib = &set.shard(idx);
        }
        const bool deltaLib = lib->deltaCount() > 0;
        const char *decodeName = deltaLib ? "library.decodeInto.delta"
                                          : "library.decodeInto.plain";
        const std::vector<std::size_t> order =
            lp::replayOrder(lib->size(), seed);
        lp::ReplayContext ctx(in.programs[i], cfgs);
        std::vector<std::unique_ptr<GroupModels>> groups;
        for (std::size_t g : kGeometryLeaders)
            groups.push_back(std::make_unique<GroupModels>(cfgs[g]));
        lp::LivePointDecodeScratch scratch;
        lp::LivePoint pt;
        lp::Blob raw;
        const std::size_t n = std::min(kTourPoints, order.size());
        for (std::size_t k = 0; k < n; ++k) {
            const std::size_t p = order[k];
            const bool deltaRec =
                lib->recordFlags(p) & lp::LivePointLibrary::kFlagDelta;
            if (!deltaRec) {
                const lp::ByteSpan rec = lib->record(p);
                Scope s(t, "codec.zipDecompressInto");
                lp::zipDecompressInto(rec.data, rec.size, raw);
                c->zipBytes += static_cast<double>(raw.size());
            }
            {
                Scope s(t, decodeName);
                lib->decodeInto(p, scratch, pt);
            }
            if (deltaLib) {
                c->deltaLinks +=
                    deltaRec ? static_cast<double>(scratch.chain.size())
                             : 1.0;
                c->deltaDecodes += 1;
            }
            {
                Scope s(t, "mem.loadPoint");
                ctx.loadPoint(pt);
            }
            for (auto &g : groups) {
                Scope s(t, "cache.reconstruct");
                pt.l1i.reconstruct(g->l1i);
                pt.l1d.reconstruct(g->l1d);
                pt.l2.reconstruct(g->l2);
                pt.itlb.reconstruct(g->itlb);
                pt.dtlb.reconstruct(g->dtlb);
            }
            for (std::size_t cfg = 0; cfg < cfgs.size(); ++cfg) {
                const bool leader = cfg == kGeometryLeaders[0];
                const bool stash = cfg == kStashConfig;
                Scope s(t, leader  ? "replay.replay.reconstruct"
                           : stash ? "replay.replay.stash"
                                   : "replay.replay.other");
                const lp::WindowResult w = ctx.replay(cfg);
                if (stash) {
                    c->stashInsts += static_cast<double>(w.insts);
                    c->stashReplays += 1;
                }
            }
        }
    }
    return secondsSince(t0);
}

/**
 * The grid through ReplayEngine::run, folding and retiring configs
 * the way the campaign does, with a span around each fold callback:
 * the self time of replay.run is the caller's wait on the workers.
 */
void
foldWaitRun(const lp::LibrarySet &set, const FleetInputs &in,
            std::uint64_t seed, Tracer *t)
{
    const std::vector<lp::CoreConfig> cfgs = gridCoreConfigs();
    const std::size_t nc = cfgs.size();
    const lp::ConfidenceSpec spec{kLevel, kRelativeError};
    const auto &shards = fleetShards();
    for (std::size_t i = 0; i < shards.size(); ++i) {
        const lp::LivePointLibrary &lib =
            set.shard(set.find(shards[i].name));
        lp::ReplayEngineOptions ro;
        ro.threads = kJobThreads;
        ro.decodeThreads = kJobDecodeThreads;
        lp::ReplayEngine eng(in.programs[i], cfgs, ro);
        std::vector<lp::OnlineEstimator> est(nc, lp::OnlineEstimator(spec));
        std::vector<lp::RunningStat> block(nc);
        std::uint64_t mask = lp::replayMaskAll(nc);
        auto foldPoint = [&](std::size_t, const lp::WindowResult *res) {
            Scope s(t, "replay.foldPoint");
            for (std::size_t c = 0; c < nc; ++c)
                if (mask >> c & 1)
                    block[c].add(res[c].cpi);
        };
        auto foldBarrier = [&](std::size_t) -> std::uint64_t {
            Scope s(t, "replay.foldBarrier");
            for (std::size_t c = 0; c < nc; ++c) {
                if (!(mask >> c & 1))
                    continue;
                if (est[c].fold(block[c]).satisfied)
                    mask &= ~(1ull << c);
                block[c] = lp::RunningStat();
            }
            return mask;
        };
        Scope s(t, "replay.run");
        eng.run(lib, lp::replayOrder(lib.size(), seed), kFoldBlock, true,
                foldPoint, foldBarrier);
    }
}

double
meanOf(const Tracer &t, const char *name, double scale)
{
    const std::size_t n = t.count(name);
    return n ? t.totalSeconds(name) / static_cast<double>(n) * scale : 0.0;
}

} // namespace

RunResult
runTraced(const RunArgs &a)
{
    RunResult r;
    Tracer tr(true);
    Tracer off(false);
    const auto tStart = Clock::now();
    const auto &shards = fleetShards();

    FleetInputs in;
    {
        Scope s(&tr, "workload.generate");
        in = makeFleetInputs();
    }

    // --- fleet-build path: the first fleet of fleet-build's loop.
    double warmed = 0, shortfall = 0;
    const std::string buildDir = a.runDir + "/fleet-build";
    {
        lp::Rng rng(a.seed, "fleet-build");
        std::vector<std::size_t> order = {0, 1, 2};
        for (std::size_t i = order.size() - 1; i > 0; --i)
            std::swap(order[i], order[rng.nextBounded(i + 1)]);
        lp::LibrarySetWriter w(buildDir);
        for (std::size_t i : order) {
            Scope s(&tr, "builder.buildInto");
            lp::LivePointBuilder b(
                builderConfig(shards[i].delta, kBuildThreads));
            const lp::BuilderStats st = b.buildInto(
                w, shards[i].name, in.programs[i], in.designs[i]);
            warmed += static_cast<double>(st.instsSimulated);
            shortfall += static_cast<double>(st.prefixShortfallInsts);
        }
    }
    double deltaRecords = 0, records = 0, compressBytes = 0;
    {
        const lp::LibrarySet built = lp::LibrarySet::open(buildDir);
        lp::LibrarySetWriter rewrite(a.runDir + "/rewrite");
        for (std::size_t i = 0; i < built.size(); ++i) {
            const lp::LivePointLibrary *lib;
            {
                Scope s(&tr, "io.shardLoad");
                lib = &built.shard(i);
            }
            deltaRecords += static_cast<double>(lib->deltaCount());
            records += static_cast<double>(lib->size());
            Scope s(&tr, "io.addShard");
            rewrite.addShard(built.name(i), *lib);
        }
        const lp::LivePointLibrary &plain =
            built.shard(built.find(shards[2].name));
        lp::LivePointDecodeScratch scratch;
        lp::LivePoint pt;
        for (std::size_t k = 0;
             k < std::min(kCompressPayloads, plain.size()); ++k) {
            plain.decodeInto(k, scratch, pt);
            Scope s(&tr, "codec.zipCompress");
            lp::zipCompress(scratch.payload);
            compressBytes += static_cast<double>(scratch.payload.size());
        }
    }
    {
        lp::FunctionalSimulator fs(in.programs[2]);
        Scope s(&tr, "func.run");
        fs.run(kFuncInsts);
    }

    // --- the first dse-cold grid, over the exact fleet.
    const std::uint64_t seed = gridSeeds(a.seed, "dse-cold", 1)[0];
    const std::string setDir = a.runDir + "/fleet";
    {
        Scope s(&tr, "builder.exactFleet");
        buildExactFleet(setDir, in);
    }
    lp::LibrarySet set;
    {
        Scope s(&tr, "io.setOpen");
        set = lp::LibrarySet::open(setDir);
    }
    // Untraced, traced, untraced: the overhead is the traced pass
    // against the mean of the two untraced ones.
    TourCounts cOff, cOn;
    const double off1 = pointTour(set, in, seed, &off, &cOff);
    const double on = pointTour(set, in, seed, &tr, &cOn);
    const double off2 = pointTour(set, in, seed, &off, &cOff);
    const double overhead = on / ((off1 + off2) / 2.0) - 1.0;

    foldWaitRun(set, in, seed, &tr);

    lp::CampaignEngine eng(gridWorkloads(set, in), gridCoreConfigs(),
                           gridOptions(seed, kJobThreads, kJobDecodeThreads));
    lp::CampaignResult res;
    {
        Scope s(&tr, "campaign.run");
        res = eng.run();
    }
    {
        Scope s(&tr, "campaign.jsonReport");
        eng.jsonReport(res);
    }
    std::vector<std::string> refBits;
    for (const lp::CampaignCell &c : res.cells)
        refBits.push_back(hexBits(c.cpi()));
    const std::string storePath = a.runDir + "/traced.lpres";
    {
        lp::ResultStore store;
        Scope s(&tr, "store.publish");
        eng.publish(res, store);
        store.save(storePath);
    }
    {
        lp::ResultStore loaded;
        {
            Scope s(&tr, "store.load");
            loaded.load(storePath);
        }
        for (const lp::CellRecord &rec : loaded.cells()) {
            lp::CellRecord out;
            bool hit;
            {
                Scope s(&tr, "store.find");
                hit = loaded.find(rec.key, &out);
            }
            ++r.attempted;
            if (!hit)
                r.fail("store.find missed a published cell");
        }
    }

    // --- the same grid through the daemon: cold, then memoized.
    const std::string svcDir = a.runDir + "/svc";
    makeDirs(svcDir);
    std::unique_ptr<DaemonProcess> d;
    {
        Scope s(&tr, "svc.daemonStart");
        d = std::make_unique<DaemonProcess>(setDir, svcDir,
                                            svcDir + "/results.lpres");
    }
    const lp::JobSpec spec = gridSpec(seed, "traced");
    unsigned memoPolls = 0, rejects = 0;
    for (unsigned k = 0; k <= kMemoResubmits; ++k) {
        const bool memo = k > 0;
        tr.setOp(k + 1);
        JobRoundTrip j;
        {
            Scope s(&tr, "svc.job");
            j = runJob(d->client(), spec,
                       std::chrono::microseconds(memo ? kMemoPollUs
                                                      : kColdPollUs),
                       &tr);
        }
        rejects += j.rejects;
        if (memo)
            memoPolls += j.polls;
        ++r.attempted;
        std::string why = j.error;
        if (j.ok && checkGridReport(j.json, memo, &why) != refBits &&
            why.empty())
            why = "cpi_bits differ from the in-process campaign";
        if (!why.empty())
            r.fail(lp::strfmt("traced %s job: %s", memo ? "memo" : "cold",
                              why.c_str()));
    }
    tr.setOp(0);
    lp::Rng qrng(a.seed, "dse-memo.mix");
    for (unsigned k = 0; k < kQueries; ++k) {
        const std::size_t w = qrng.nextBounded(shards.size() + 1);
        const std::string shard = w ? shards[w - 1].name : "";
        lp::SvcReply q;
        {
            Scope s(&tr, "svc.query");
            q = d->client().query(shard, 0);
        }
        ++r.attempted;
        if (!q.ok || jsonNumber(q.resultJson, "cell_count") !=
                         (w ? 4.0 : 12.0))
            r.fail("traced query returned the wrong cells");
    }
    for (unsigned k = 0; k < kSpecCodecRounds; ++k) {
        Scope s(&tr, "svc.specCodec");
        lp::decodeJobSpec(lp::encodeJobSpec(spec));
    }
    {
        Scope s(&tr, "svc.drain");
        d->stop();
    }

    // Every untraced pass is excluded from the accounted wall time.
    const double wall = secondsSince(tStart) - off1 - off2;
    const double unaccounted = (wall - tr.rootSeconds()) / wall;
    makeDirs(a.traceDir);
    const std::string tracePath =
        a.traceDir + "/" + a.workload + "-seed" + std::to_string(a.seed) +
        ".trace.json";
    tr.writeChromeTrace(tracePath);

    const double executed = static_cast<double>(res.replaysExecuted);
    const double foldedR = static_cast<double>(res.foldedReplays);
    r.add("io.shard_open_ms", meanOf(tr, "io.shardOpen", 1e3), "ms");
    r.add("io.shard_write_ms", meanOf(tr, "io.addShard", 1e3), "ms");
    r.add("codec.decode_mbps",
          cOn.zipBytes / tr.totalSeconds("codec.zipDecompressInto") / 1e6,
          "MB/s");
    r.add("codec.compress_mbps",
          compressBytes / tr.totalSeconds("codec.zipCompress") / 1e6,
          "MB/s");
    r.add("library.decode_us.plain",
          meanOf(tr, "library.decodeInto.plain", 1e6), "us");
    r.add("library.decode_us.delta",
          meanOf(tr, "library.decodeInto.delta", 1e6), "us");
    r.add("library.delta_links_per_decode",
          cOn.deltaDecodes ? cOn.deltaLinks / cOn.deltaDecodes : 0.0,
          "count");
    r.add("library.delta_frac", records ? deltaRecords / records : 0.0,
          "fraction");
    r.add("mem.image_apply_us", meanOf(tr, "mem.loadPoint", 1e6), "us");
    r.add("cache.reconstruct_us", meanOf(tr, "cache.reconstruct", 1e6),
          "us");
    r.add("replay.reconstruct_replay_us",
          meanOf(tr, "replay.replay.reconstruct", 1e6), "us");
    r.add("replay.stash_replay_us", meanOf(tr, "replay.replay.stash", 1e6),
          "us");
    r.add("replay.fold_wait_ms", tr.selfSeconds("replay.run") * 1e3, "ms");
    r.add("replay.overshoot_frac",
          executed ? (executed - foldedR) / executed : 0.0, "fraction");
    r.add("replay.fanout",
          res.pointsDecoded ? executed / static_cast<double>(
                                             res.pointsDecoded)
                            : 0.0,
          "count");
    r.add("uarch.step_ns_per_inst",
          cOn.stashInsts ? tr.totalSeconds("replay.replay.stash") /
                               cOn.stashInsts * 1e9
                         : 0.0,
          "ns");
    r.add("uarch.insts_per_replay",
          cOn.stashReplays ? cOn.stashInsts / cOn.stashReplays : 0.0,
          "count");
    r.add("campaign.run_s", tr.totalSeconds("campaign.run"), "s");
    r.add("campaign.folded_replays", foldedR, "count");
    r.add("campaign.retired_cells", static_cast<double>(res.retirements),
          "count");
    r.add("campaign.report_ms", tr.totalSeconds("campaign.jsonReport") * 1e3,
          "ms");
    r.add("store.publish_ms", tr.totalSeconds("store.publish") * 1e3, "ms");
    r.add("store.find_us", meanOf(tr, "store.find", 1e6), "us");
    r.add("store.load_ms", tr.totalSeconds("store.load") * 1e3, "ms");
    r.add("svc.submit_rtt_ms", meanOf(tr, "svc.submit", 1e3), "ms");
    r.add("svc.status_rtt_us", meanOf(tr, "svc.status", 1e6), "us");
    r.add("svc.result_rtt_ms", meanOf(tr, "svc.result", 1e3), "ms");
    r.add("svc.query_rtt_ms", meanOf(tr, "svc.query", 1e3), "ms");
    r.add("svc.status_polls_per_job",
          static_cast<double>(memoPolls) / kMemoResubmits, "count");
    r.add("svc.rejects", rejects, "count");
    r.add("svc.spec_codec_us", meanOf(tr, "svc.specCodec", 1e6), "us");
    r.add("builder.build_s", meanOf(tr, "builder.buildInto", 1.0), "s");
    r.add("builder.warmed_minsts", warmed / 1e6, "Minsts");
    r.add("builder.prefix_shortfall_insts", shortfall, "count");
    r.add("func.minsts_per_s",
          static_cast<double>(kFuncInsts) / tr.totalSeconds("func.run") /
              1e6,
          "Minsts/s");
    r.add("trace.overhead_frac", overhead, "fraction");
    r.add("trace.unaccounted_frac", unaccounted, "fraction");
    const std::map<std::string, double> self = tr.selfSecondsByLayer();
    for (const char *layer :
         {"workload", "builder", "func", "codec", "io", "library", "mem",
          "cache", "replay", "campaign", "store", "svc"}) {
        auto it = self.find(layer);
        r.add(std::string("self_ms.") + layer,
              it == self.end() ? 0.0 : it->second * 1e3, "ms");
    }

    r.note(lp::strfmt("traced wall %.2f s; spans %zu; unaccounted %.2f%%; "
                      "tracing overhead %+.2f%% (traced tour %.3f s vs "
                      "untraced %.3f / %.3f s)",
                      wall, tr.spans().size(), unaccounted * 100.0,
                      overhead * 100.0, on, off1, off2));
    for (const auto &kv : self)
        r.note(lp::strfmt("self time %-9s %9.1f ms", kv.first.c_str(),
                          kv.second * 1e3));
    r.note("uarch: no span of its own; the OoO step is timed inside "
           "replay.replay.stash (uarch.step_ns_per_inst)");
    r.note("spans written to " + tracePath);
    return r;
}

} // namespace pb

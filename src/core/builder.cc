#include "core/builder.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <stdexcept>

#include "codec/zip.hh"
#include "func/functional.hh"
#include "mrrl/mrrl.hh"
#include "util/log.hh"
#include "util/threadpool.hh"

namespace lp
{

namespace
{

MemHierarchyConfig
maxMemConfig(const LivePointBuilderConfig &cfg)
{
    MemHierarchyConfig mem;
    mem.l1i = cfg.maxL1i;
    mem.l1d = cfg.maxL1d;
    mem.l2 = cfg.maxL2;
    mem.itlb = cfg.maxItlb;
    mem.dtlb = cfg.maxDtlb;
    return mem;
}

/**
 * One shard's warming state: a functional simulator with the
 * library-maximum hierarchy and every covered predictor attached.
 */
struct WarmingRig
{
    WarmingRig(const Program &prog, const LivePointBuilderConfig &cfg)
        : sim(prog), hier(maxMemConfig(cfg))
    {
        for (const BpredConfig &bc : cfg.bpredConfigs)
            preds.push_back(std::make_unique<BranchPredictor>(bc));
        sim.setHierarchy(&hier);
        for (auto &bp : preds)
            sim.addPredictor(bp.get());
    }

    /**
     * Warm to window @p i's start, snapshot the point, then keep
     * warming through the window while capturing its live-state.
     */
    LivePoint capture(const LivePointBuilderConfig &cfg,
                      const SampleDesign &design, std::uint64_t i)
    {
        const InstCount start = design.windowStart(i);
        sim.run(start - sim.regs().instIndex);

        LivePoint point;
        point.index = i;
        point.windowStart = start;
        point.warmLen = design.warmLen;
        point.measureLen = design.measureLen;
        point.regs = sim.regs();
        point.l1i = CacheSetRecord(hier.l1i());
        point.l1d = CacheSetRecord(hier.l1d());
        point.l2 = CacheSetRecord(hier.l2());
        point.itlb = CacheSetRecord(hier.itlb());
        point.dtlb = CacheSetRecord(hier.dtlb());
        for (std::size_t b = 0; b < preds.size(); ++b)
            point.bpredImages.emplace(cfg.bpredConfigs[b].key(),
                                      preds[b]->serialize());

        // Capture the window's restricted live-state while warming
        // continues through it.
        MemoryImage image;
        sim.setCaptureImage(&image);
        sim.run(design.windowLen());
        sim.setCaptureImage(nullptr);
        point.memImage = std::move(image);
        return point;
    }

    FunctionalSimulator sim;
    MemHierarchy hier;
    std::vector<std::unique_ptr<BranchPredictor>> preds;
};

/** One record's bytes plus the metadata addEncoded() wants. */
struct EncodedRecord
{
    Blob bytes;
    std::uint64_t rawSize = 0;
    std::uint8_t flags = 0;
    std::uint64_t rawHash = 0;
};

/**
 * Encode one payload: compress it plainly and, when @p prevRaw is
 * given, also as a delta against the predecessor — then keep whichever
 * is smaller, so delta encoding never costs bytes. Deterministic in
 * its inputs alone; the parallel build's encoder threads can run it in
 * any order.
 */
EncodedRecord
encodeRecord(const Blob &raw, const Blob *prevRaw)
{
    EncodedRecord rec;
    rec.rawSize = raw.size();
    rec.bytes = zipCompress(raw);
    if (prevRaw) {
        Blob delta = zipCompressDelta(raw, ByteSpan(*prevRaw));
        if (delta.size() < rec.bytes.size()) {
            rec.bytes = std::move(delta);
            rec.flags = LivePointLibrary::kFlagDelta;
            rec.rawHash = livePointRawHash(raw.data(), raw.size());
        }
    }
    return rec;
}

/**
 * Smallest geometry whose set records cover both arguments: the
 * covering relation (cache/warmstate.hh) needs the target's sets and
 * associativity to divide the stored maximum's, so the cover keeps
 * the larger set count and the larger associativity per level. Line
 * sizes must agree — a set record cannot be re-binned across them.
 */
CacheGeometry
coverGeometry(const char *what, const CacheGeometry &a,
              const CacheGeometry &b)
{
    if (a.lineBytes != b.lineBytes)
        throw std::invalid_argument(
            strfmt("restricted build: %s line sizes differ "
                   "(%llu vs %llu)",
                   what, static_cast<unsigned long long>(a.lineBytes),
                   static_cast<unsigned long long>(b.lineBytes)));
    CacheGeometry g;
    g.lineBytes = a.lineBytes;
    g.assoc = std::max(a.assoc, b.assoc);
    const std::uint64_t sets = std::max(a.numSets(), b.numSets());
    g.sizeBytes = sets * g.assoc * g.lineBytes;
    return g;
}

} // namespace

LivePointBuilderConfig
restrictedBuilderConfig(const std::vector<CoreConfig> &configs,
                        const LivePointBuilderConfig &base)
{
    if (configs.empty())
        throw std::invalid_argument(
            "restrictedBuilderConfig: no configurations given");
    LivePointBuilderConfig cfg = base;
    cfg.maxL1i = configs[0].mem.l1i;
    cfg.maxL1d = configs[0].mem.l1d;
    cfg.maxL2 = configs[0].mem.l2;
    cfg.maxItlb = configs[0].mem.itlb;
    cfg.maxDtlb = configs[0].mem.dtlb;
    cfg.bpredConfigs.clear();
    for (const CoreConfig &c : configs) {
        cfg.maxL1i = coverGeometry("L1I", cfg.maxL1i, c.mem.l1i);
        cfg.maxL1d = coverGeometry("L1D", cfg.maxL1d, c.mem.l1d);
        cfg.maxL2 = coverGeometry("L2", cfg.maxL2, c.mem.l2);
        cfg.maxItlb = coverGeometry("ITLB", cfg.maxItlb, c.mem.itlb);
        cfg.maxDtlb = coverGeometry("DTLB", cfg.maxDtlb, c.mem.dtlb);
        bool known = false;
        for (const BpredConfig &bc : cfg.bpredConfigs)
            known = known || bc.key() == c.bpred.key();
        if (!known)
            cfg.bpredConfigs.push_back(c.bpred);
    }
    return cfg;
}

LivePointBuilder::LivePointBuilder(const LivePointBuilderConfig &cfg)
    : cfg_(cfg)
{
}

LivePointLibrary
LivePointBuilder::build(const Program &prog, const SampleDesign &design)
{
    const auto t0 = std::chrono::steady_clock::now();
    stats_ = BuilderStats{};

    const bool parallel =
        design.count > 0 && (cfg_.buildThreads > 1 || cfg_.pipelineEncode);
    LivePointLibrary lib = parallel ? buildParallel(prog, design)
                                    : buildSequential(prog, design);

    stats_.wallSeconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      t0)
            .count();
    stats_.points = design.count;
    return lib;
}

BuilderStats
LivePointBuilder::buildInto(LibrarySetWriter &set,
                            const std::string &name, const Program &prog,
                            const SampleDesign &design)
{
    // The shard streams to disk and its in-memory arena dies here —
    // the fleet build's resident footprint is one shard, not the set.
    const LivePointLibrary lib = build(prog, design);
    set.addShard(name, lib);
    return stats_;
}

LivePointLibrary
LivePointBuilder::buildSequential(const Program &prog,
                                  const SampleDesign &design)
{
    LivePointLibrary lib(prog.name, design);
    WarmingRig rig(prog, cfg_);
    const std::uint64_t chain = std::max(cfg_.maxDeltaChain, 1u);
    Blob prevRaw;
    for (std::uint64_t i = 0; i < design.count; ++i) {
        Blob raw = rig.capture(cfg_, design, i).serialize();
        // Keyframe every maxDeltaChain points bounds the chain a
        // replay must rebuild.
        const bool allowDelta = cfg_.deltaEncode && i % chain != 0;
        const EncodedRecord rec =
            encodeRecord(raw, allowDelta ? &prevRaw : nullptr);
        lib.addEncoded(rec.bytes, rec.rawSize, i, rec.flags, rec.rawHash);
        prevRaw = std::move(raw);
    }
    stats_.instsSimulated = rig.sim.regs().instIndex;
    stats_.shards = 1;
    return lib;
}

LivePointLibrary
LivePointBuilder::buildParallel(const Program &prog,
                                const SampleDesign &design)
{
    const std::uint64_t count = design.count;
    const unsigned S = static_cast<unsigned>(std::min<std::uint64_t>(
        std::max(cfg_.buildThreads, 1u), count));
    stats_.shards = S;

    // Contiguous shard ranges: shard s owns windows [lo[s], lo[s+1]).
    std::vector<std::uint64_t> lo(S + 1);
    for (unsigned s = 0; s <= S; ++s)
        lo[s] = count * s / S;

    // The build's threads: S warming shards and E encoders. The MRRL
    // analysis scans the stream on them first.
    const unsigned E = std::max(1u, (S + 1) / 2); // encoder threads
    ThreadPool pool(S + E);

    // Warming prefix ahead of each shard's first window: the MRRL
    // reuse-latency bound of the shard's leading window. Shard 0 warms
    // from program start and is exact.
    std::vector<InstCount> prefix(S, 0);
    if (S > 1) {
        std::vector<InstCount> starts;
        for (unsigned s = 1; s < S; ++s)
            starts.push_back(design.windowStart(lo[s]));
        const MrrlAnalysis m =
            analyzeMrrl(prog, starts, design.windowLen(),
                        defaultMrrlCoverage, &pool);
        for (unsigned s = 1; s < S; ++s)
            prefix[s] = m.warmingLengths[s - 1];
    }

    // Arch-only pre-pass: capture registers + memory where each
    // shard's warming begins. No hierarchy, predictors, or capture
    // attached — this pass costs a fraction of functional warming.
    std::vector<ArchRegs> snapRegs(S);
    std::vector<SparseMemory> snapMem(S);
    if (S > 1) {
        FunctionalSimulator pre(prog);
        for (unsigned s = 1; s < S; ++s) {
            const InstCount ws = design.windowStart(lo[s]);
            const InstCount pos = ws > prefix[s] ? ws - prefix[s] : 0;
            // Snapshot positions are visited in one forward pass; a
            // prefix reaching back past the previous snapshot starts
            // where the pass already is. That truncation shortens the
            // warming below the MRRL bound, so it is accounted and
            // warned, not silently absorbed.
            if (pos > pre.regs().instIndex) {
                pre.run(pos - pre.regs().instIndex);
            } else {
                stats_.prefixShortfallInsts +=
                    pre.regs().instIndex - pos;
            }
            snapRegs[s] = pre.regs();
            snapMem[s] = pre.memory().clone();
        }
        stats_.prePassInsts = pre.regs().instIndex;
        if (stats_.prefixShortfallInsts)
            warn("sharded build: %llu warming insts truncated by "
                 "overlapping shard prefixes (use fewer shards)",
                 static_cast<unsigned long long>(
                     stats_.prefixShortfallInsts));
    }

    // Simulating shards serialize each point and hand its slot to
    // encoder threads through a bounded queue; encoders compress
    // slots in any order into per-slot records, so record bytes land
    // in window order no matter which thread produced them (and
    // encodeRecord() is deterministic in its inputs, so the library
    // bytes are schedule-independent). Serializing on the simulating
    // thread publishes raws[i] before slot i is queued, which is what
    // lets a delta record read its predecessor's raw bytes. Delta
    // chains restart at every shard boundary (shard-leading warm
    // state differs under S>1 anyway) and every maxDeltaChain
    // windows within a shard.
    const std::uint64_t chain = std::max(cfg_.maxDeltaChain, 1u);
    std::vector<std::uint8_t> eligible(count, 0);
    if (cfg_.deltaEncode)
        for (unsigned s = 0; s < S; ++s)
            for (std::uint64_t i = lo[s] + 1; i < lo[s + 1]; ++i)
                eligible[i] = (i - lo[s]) % chain != 0;

    // raws[i] feeds slot i's encode and, when i+1 is delta-eligible,
    // slot i+1's; free on the last use so the resident raw payloads
    // track the queue depth, not the count.
    std::vector<Blob> raws(count);
    std::vector<unsigned> rawUses(count);
    for (std::uint64_t i = 0; i < count; ++i)
        rawUses[i] = 1u + (i + 1 < count && eligible[i + 1] ? 1u : 0u);

    std::mutex m;
    std::condition_variable cvSpace; //!< shards wait for queue room
    std::condition_variable cvWork;  //!< encoders wait for slots
    std::deque<std::uint64_t> queue;
    const std::size_t cap = 2 * E + 2;
    unsigned liveShards = S; //!< guarded by m
    std::atomic<bool> failed{false};

    std::vector<EncodedRecord> recs(count);
    std::atomic<InstCount> warmed{0};

    auto halt = [&]() {
        failed.store(true);
        {
            std::lock_guard<std::mutex> lk(m);
        }
        cvSpace.notify_all();
        cvWork.notify_all();
    };

    auto shardWorker = [&](unsigned s) {
        WarmingRig rig(prog, cfg_);
        if (s > 0)
            rig.sim.restore(snapRegs[s], std::move(snapMem[s]));
        const InstCount simStart = rig.sim.regs().instIndex;
        for (std::uint64_t i = lo[s]; i < lo[s + 1]; ++i) {
            if (failed.load(std::memory_order_relaxed))
                return;
            raws[i] = rig.capture(cfg_, design, i).serialize();
            std::unique_lock<std::mutex> lk(m);
            cvSpace.wait(lk, [&]() {
                return failed.load() || queue.size() < cap;
            });
            if (failed.load())
                return;
            queue.push_back(i);
            lk.unlock();
            cvWork.notify_one();
        }
        warmed.fetch_add(rig.sim.regs().instIndex - simStart,
                         std::memory_order_relaxed);
        std::unique_lock<std::mutex> lk(m);
        if (--liveShards == 0) {
            lk.unlock();
            cvWork.notify_all();
        }
    };

    auto encoder = [&]() {
        while (true) {
            std::uint64_t i = 0;
            {
                std::unique_lock<std::mutex> lk(m);
                cvWork.wait(lk, [&]() {
                    return failed.load() || !queue.empty() ||
                           liveShards == 0;
                });
                if (failed.load())
                    return;
                if (queue.empty())
                    return; // every shard done and queue drained
                i = queue.front();
                queue.pop_front();
            }
            cvSpace.notify_one();
            recs[i] = encodeRecord(raws[i],
                                   eligible[i] ? &raws[i - 1] : nullptr);
            std::lock_guard<std::mutex> lk(m);
            if (--rawUses[i] == 0)
                Blob().swap(raws[i]);
            if (eligible[i] && --rawUses[i - 1] == 0)
                Blob().swap(raws[i - 1]);
        }
    };

    pool.run([&](unsigned id) {
        try {
            if (id < S)
                shardWorker(id);
            else
                encoder();
        } catch (...) {
            halt();
            throw;
        }
    });

    LivePointLibrary lib(prog.name, design);
    std::uint64_t totalBytes = 0;
    for (const EncodedRecord &r : recs)
        totalBytes += r.bytes.size();
    lib.reserve(totalBytes, count);
    for (std::uint64_t i = 0; i < count; ++i) {
        const EncodedRecord &r = recs[i];
        lib.addEncoded(r.bytes, r.rawSize, i, r.flags, r.rawHash);
        Blob().swap(recs[i].bytes); // keep peak memory at ~one library
    }
    stats_.instsSimulated = warmed.load();
    return lib;
}

} // namespace lp

#include "core/replay.hh"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "util/failpoint.hh"
#include "util/log.hh"

namespace lp
{

namespace
{

CoreBindings
contextBindings(const Program &prog, MemHierarchy &hier,
                BranchPredictor &bp)
{
    CoreBindings b;
    b.prog = &prog;
    b.hier = &hier;
    b.bp = &bp;
    return b;
}

unsigned
autoProducers(unsigned workers)
{
    // A few producers keep many workers fed. At least two: a delta
    // point walks part of its chain, so decoding it can take longer
    // than replaying it under one configuration, and chain-affine
    // decode lets a second producer halve that work, not repeat it.
    return std::max(2u, (workers + 2) / 3);
}

} // namespace

std::vector<std::size_t>
replayOrder(std::size_t n, std::uint64_t shuffleSeed)
{
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    if (shuffleSeed) {
        Rng rng(shuffleSeed, "lp-run-order");
        for (std::size_t i = n; i > 1; --i)
            std::swap(order[i - 1], order[rng.nextBounded(i)]);
    }
    return order;
}

unsigned
replayDecodeThreads(const ReplayEngineOptions &opt)
{
    return opt.decodeThreads ? opt.decodeThreads
                             : autoProducers(std::max(opt.threads, 1u));
}

ReplayContext::Unit::Unit(const Program &prog, const CoreConfig &config)
    : cfg(config), bpredKey(cfg.bpred.key()), hier(cfg.mem),
      bp(cfg.bpred), core(cfg, contextBindings(prog, hier, bp))
{
}

ReplayContext::ReplayContext(const Program &prog, const CoreConfig &cfg)
    : ReplayContext(prog, std::vector<CoreConfig>{cfg})
{
}

namespace
{

bool
sameCacheGeometry(const MemHierarchyConfig &a, const MemHierarchyConfig &b)
{
    return a.l1i == b.l1i && a.l1d == b.l1d && a.l2 == b.l2 &&
           a.itlb == b.itlb && a.dtlb == b.dtlb;
}

} // namespace

ReplayContext::ReplayContext(const Program &prog,
                             const std::vector<CoreConfig> &cfgs)
    : prog_(prog)
{
    if (cfgs.empty())
        throw std::invalid_argument("ReplayContext: no configurations");
    if (cfgs.size() > maxReplayConfigs)
        throw std::invalid_argument(
            "ReplayContext: too many configurations");
    units_.reserve(cfgs.size());
    for (const CoreConfig &c : cfgs)
        units_.push_back(std::make_unique<Unit>(prog_, c));
    active_.resize(units_.size());
    results_.resize(units_.size());
    bpredImage_.assign(units_.size(), nullptr);

    // Group units by reconstruction identity: configurations sharing
    // the five cache geometries (or the predictor table size) get one
    // warm-state stash, so a decode-once fan-out reconstructs each
    // distinct state from the record once per point and the remaining
    // configurations copy it.
    cacheStashOf_.assign(units_.size(), -1);
    bpredStashOf_.assign(units_.size(), -1);
    for (std::size_t j = 1; j < units_.size(); ++j) {
        for (std::size_t i = 0; i < j; ++i) {
            if (cacheStashOf_[j] < 0 &&
                sameCacheGeometry(units_[i]->cfg.mem, units_[j]->cfg.mem)) {
                if (cacheStashOf_[i] < 0) {
                    cacheStashOf_[i] =
                        static_cast<int>(cacheStash_.size());
                    cacheStash_.push_back(CacheStash{
                        std::make_unique<MemHierarchy>(units_[i]->cfg.mem),
                        0});
                }
                cacheStashOf_[j] = cacheStashOf_[i];
            }
            if (bpredStashOf_[j] < 0 &&
                units_[i]->cfg.bpred.tableEntries ==
                    units_[j]->cfg.bpred.tableEntries) {
                if (bpredStashOf_[i] < 0) {
                    bpredStashOf_[i] =
                        static_cast<int>(bpredStash_.size());
                    bpredStash_.push_back(BpredStash{
                        std::make_unique<BranchPredictor>(
                            units_[i]->cfg.bpred),
                        0});
                }
                bpredStashOf_[j] = bpredStashOf_[i];
            }
        }
    }
}

const CoreConfig &
ReplayContext::config(std::size_t i) const
{
    return units_[i]->cfg;
}

void
ReplayContext::prepareUnit(std::size_t unitIdx, bool approxWrongPath)
{
    const LivePoint &point = *loaded_;
    Unit &u = *units_[unitIdx];

    // Warm caches: reconstruct from the record once per distinct
    // geometry per point; sibling configurations copy the snapshot.
    const int cs = cacheStashOf_[unitIdx];
    if (cs >= 0 && cacheStash_[cs].epoch == pointEpoch_) {
        MemHierarchy &stash = *cacheStash_[cs].hier;
        u.hier.l1i().copyStateFrom(stash.l1i());
        u.hier.l1d().copyStateFrom(stash.l1d());
        u.hier.l2().copyStateFrom(stash.l2());
        u.hier.itlb().copyStateFrom(stash.itlb());
        u.hier.dtlb().copyStateFrom(stash.dtlb());
    } else {
        point.l1i.reconstruct(u.hier.l1i());
        point.l1d.reconstruct(u.hier.l1d());
        point.l2.reconstruct(u.hier.l2());
        point.itlb.reconstruct(u.hier.itlb());
        point.dtlb.reconstruct(u.hier.dtlb());
        if (cs >= 0) {
            MemHierarchy &stash = *cacheStash_[cs].hier;
            stash.l1i().copyStateFrom(u.hier.l1i());
            stash.l1d().copyStateFrom(u.hier.l1d());
            stash.l2().copyStateFrom(u.hier.l2());
            stash.itlb().copyStateFrom(u.hier.itlb());
            stash.dtlb().copyStateFrom(u.hier.dtlb());
            cacheStash_[cs].epoch = pointEpoch_;
        }
    }

    // Warm predictor: image pointers were resolved in loadPoint();
    // the first unit of a table-size group unpacks, the rest copy.
    const int bs = bpredStashOf_[unitIdx];
    if (bs >= 0 && bpredStash_[bs].epoch == pointEpoch_) {
        u.bp.copyStateFrom(*bpredStash_[bs].bp);
    } else {
        const Blob *image = bpredImage_[unitIdx];
        if (!image)
            throw std::runtime_error(
                strfmt("library does not cover predictor '%s'",
                       u.bpredKey.c_str()));
        u.bp.deserialize(*image);
        if (bs >= 0) {
            bpredStash_[bs].bp->copyStateFrom(u.bp);
            bpredStash_[bs].epoch = pointEpoch_;
        }
    }

    u.core.rebind(contextBindings(prog_, u.hier, u.bp));
    u.core.setApproxWrongPath(approxWrongPath);
}

WindowResult
ReplayContext::simulate(const LivePoint &point, bool approxWrongPath)
{
    loadPoint(point);
    return replay(0, approxWrongPath);
}

void
ReplayContext::loadPoint(const LivePoint &point)
{
    loaded_ = &point;
    ++pointEpoch_;
    // Resolve each unit's predictor image once per point instead of a
    // string-keyed map lookup per replay. A missing image only throws
    // if the configuration actually replays.
    for (std::size_t j = 0; j < units_.size(); ++j) {
        if (j > 0 && units_[j]->bpredKey == units_[j - 1]->bpredKey) {
            bpredImage_[j] = bpredImage_[j - 1];
            continue;
        }
        bpredImage_[j] = point.findBpredImage(units_[j]->bpredKey);
    }
}

void
ReplayContext::runPass(std::uint64_t mask, bool approxWrongPath)
{
    if (!loaded_)
        throw std::logic_error("ReplayContext: replay before loadPoint");
    std::size_t n = 0;
    for (std::size_t c = 0; c < units_.size(); ++c) {
        if (!((mask >> c) & 1))
            continue;
        prepareUnit(c, approxWrongPath);
        active_[n++] = &units_[c]->core;
    }
    if (n == 0)
        return;
    runWindow(prog_, chunk_, loaded_->regs.instIndex, loaded_->warmLen,
              loaded_->measureLen, &loaded_->memImage, active_.data(), n,
              results_.data());
}

void
ReplayContext::replayMask(std::uint64_t mask, WindowResult *out,
                          bool approxWrongPath)
{
    runPass(mask, approxWrongPath);
    std::size_t j = 0;
    for (std::size_t c = 0; c < units_.size(); ++c)
        if ((mask >> c) & 1)
            out[c] = results_[j++];
}

WindowResult
ReplayContext::replay(std::size_t cfgIdx, bool approxWrongPath)
{
    if (cfgIdx >= units_.size())
        throw std::out_of_range("ReplayContext: no such configuration");
    runPass(1ull << cfgIdx, approxWrongPath);
    return results_[0];
}

ReplayEngine::ReplayEngine(const Program &prog,
                           std::vector<CoreConfig> cfgs,
                           const ReplayEngineOptions &opt)
    : cfgs_(std::move(cfgs)), approxWrongPath_(opt.approxWrongPath),
      threads_(std::max(opt.threads, 1u)),
      producers_(opt.decodeThreads ? opt.decodeThreads
                                   : autoProducers(threads_)),
      ringSlots_(std::clamp<std::size_t>(2 * (threads_ + producers_), 8,
                                         64)),
      control_(opt.control)
{
    if (cfgs_.empty())
        throw std::invalid_argument("ReplayEngine: no configurations");
    if (cfgs_.size() > maxReplayConfigs)
        throw std::invalid_argument(
            "ReplayEngine: too many configurations");
    if (opt.sharedPool) {
        if (opt.sharedPool->size() < threads_ + producers_)
            throw std::invalid_argument(
                "ReplayEngine: shared pool is smaller than threads + "
                "decode producers");
        pool_ = opt.sharedPool;
    } else {
        ownedPool_ = std::make_unique<ThreadPool>(threads_ + producers_);
        pool_ = ownedPool_.get();
    }
    ctx_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        ctx_.push_back(std::make_unique<ReplayContext>(prog, cfgs_));
}

void
ReplayEngine::run(
    const LivePointLibrary &lib, const std::vector<std::size_t> &order,
    std::size_t blockSize, bool stopEarly,
    const std::function<void(std::size_t, const WindowResult *)>
        &foldPoint,
    const std::function<std::uint64_t(std::size_t)> &foldBarrier,
    const ReplayPlan *plan)
{
    const std::size_t n = order.size();
    // A block wider than the run folds as one block of the whole run;
    // clamping it there keeps every block-index product in range.
    blockSize = std::max<std::size_t>(std::min(blockSize, n), 1);
    const std::size_t first = plan ? plan->firstPoint : 0;
    if (first % blockSize != 0)
        throw std::invalid_argument(
            "ReplayEngine: plan start is not block-aligned");
    if (first >= n)
        return;
    const std::size_t numBlocks = (n + blockSize - 1) / blockSize;
    const std::size_t firstBlock = first / blockSize;
    const std::size_t nc = cfgs_.size();
    const std::size_t S = ringSlots_;
    const std::uint64_t allMask = replayMaskAll(nc);

    // The bounded decode ring. Slot j cycles through points first+j,
    // first+j+S, ...; nextFill sequences the producers, holds tells a
    // waiting worker its point has arrived. A decoded point holds
    // copies of everything it needs, so a slot keeps only the point.
    struct Slot
    {
        LivePoint point;
        std::size_t holds = 0;
        std::size_t nextFill = 0;
        bool full = false;
    };
    std::vector<Slot> slots(S);
    for (std::size_t j = 0; j < S; ++j)
        slots[(first + j) % S].nextFill = first + j;

    // One decode scratch per producer. Their chain caches together
    // keep at most 2 * S raw records.
    std::vector<LivePointDecodeScratch> scratches(producers_);
    for (LivePointDecodeScratch &sc : scratches)
        sc.keepChains = 2 * S / producers_;

    // Chain-affine decode: the run's chains (a plain record is a
    // one-record chain), in file order, are dealt round-robin to the
    // producers, and each producer decodes the points of its own
    // chains in visit order. Every walk down a chain then goes
    // through one scratch's chain cache, so more producers split the
    // decode work instead of multiplying it, and what each producer
    // decodes does not depend on thread timing.
    std::vector<std::uint32_t> owner;
    if (producers_ > 1) {
        std::vector<std::uint64_t> keyframes(n - first);
        for (std::size_t k = first; k < n; ++k)
            keyframes[k - first] = lib.chainKeyframe(order[k]);
        std::vector<std::uint64_t> chains = keyframes;
        std::sort(chains.begin(), chains.end());
        chains.erase(std::unique(chains.begin(), chains.end()),
                     chains.end());
        owner.resize(n - first);
        for (std::size_t j = 0; j < owner.size(); ++j)
            owner[j] = static_cast<std::uint32_t>(
                (std::lower_bound(chains.begin(), chains.end(),
                                  keyframes[j]) -
                 chains.begin()) %
                producers_);
    }

    std::mutex ringM;
    std::condition_variable cvFill;  //!< producers wait for a free slot
    std::condition_variable cvReady; //!< workers wait for their point

    std::mutex foldM;
    std::condition_variable cvBlockDone;    //!< folder waits on blocks
    std::condition_variable cvFoldProgress; //!< workers wait when gated
    std::size_t foldedPoints = first; //!< guarded by foldM

    std::atomic<std::size_t> simNext{first};
    std::atomic<bool> stop{false};
    // Configurations workers still replay. The fold barrier retires
    // converged ones; the fold side never reads results for a point
    // simulated after the retiring barrier, so the relaxed window
    // between the store and a worker's load costs only spare replays.
    std::atomic<std::uint64_t> activeMask{
        plan ? plan->initialMask & allMask : allMask};
    std::vector<std::atomic<std::size_t>> blockRemaining(numBlocks);
    for (std::size_t b = firstBlock; b < numBlocks; ++b)
        blockRemaining[b].store(
            std::min(n, (b + 1) * blockSize) -
            std::max(first, b * blockSize));

    // Row k lives at (k - first) * nc; nothing before `first` is
    // simulated or folded, so no storage is kept for it.
    std::vector<WindowResult> results((n - first) * nc);
    auto resultRow = [&results, first, nc](std::size_t k) {
        return results.data() + (k - first) * nc;
    };

    auto halt = [&]() {
        stop.store(true);
        {
            std::lock_guard<std::mutex> lk(ringM);
        }
        cvFill.notify_all();
        cvReady.notify_all();
        {
            std::lock_guard<std::mutex> lk(foldM);
        }
        cvBlockDone.notify_all();
        cvFoldProgress.notify_all();
    };

    auto producer = [&](unsigned id) {
        LivePointDecodeScratch &scratch = scratches[id];
        for (std::size_t k = first; k < n; ++k) {
            if (stop.load(std::memory_order_relaxed))
                return;
            if (!owner.empty() && owner[k - first] != id)
                continue;
            Slot &s = slots[k % S];
            {
                std::unique_lock<std::mutex> lk(ringM);
                cvFill.wait(lk, [&]() {
                    return stop.load() || (!s.full && s.nextFill == k);
                });
                if (stop.load())
                    return;
            }
            // The slot is exclusively ours until marked full.
            lib.decodeInto(order[k], scratch, s.point);
            bytesDecoded_.fetch_add(scratch.payload.size(),
                                    std::memory_order_relaxed);
            pointsDecoded_.fetch_add(1, std::memory_order_relaxed);
            recordsDecoded_.fetch_add(scratch.chain.size(),
                                      std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lk(ringM);
                s.full = true;
                s.holds = k;
            }
            cvReady.notify_all();
        }
    };

    // The per-replay fault site, passed once per (point, active
    // configuration). An injected error throws like a real replay
    // error, halting the run. An injected hang parks this worker until
    // the site is disarmed (the replay then proceeds, results
    // untouched) or the run halts; false means the run is halting.
    auto cellGate = [&]() -> bool {
        if (!failpointsArmed())
            return true;
        const FailpointOutcome o = failpointFire("replay.cell");
        if (o.fail)
            throw std::runtime_error(
                strfmt("replay.cell: %s", std::strerror(o.err)));
        while (o.hang && failpointArmed("replay.cell")) {
            if (stop.load(std::memory_order_relaxed))
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        return true;
    };

    auto worker = [&](unsigned w) {
        ReplayContext &ctx = *ctx_[w];
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t k = simNext.fetch_add(1);
            if (k >= n)
                return;
            if (stopEarly) {
                // Stay near the fold frontier so a satisfied
                // confidence check actually saves simulation work.
                std::unique_lock<std::mutex> lk(foldM);
                cvFoldProgress.wait(lk, [&]() {
                    return stop.load() ||
                           k < foldedPoints + 2 * blockSize;
                });
                if (stop.load())
                    return;
            }
            Slot &s = slots[k % S];
            {
                std::unique_lock<std::mutex> lk(ringM);
                cvReady.wait(lk, [&]() {
                    return stop.load() || (s.full && s.holds == k);
                });
                if (stop.load())
                    return;
            }
            // Decode-once fan-out: every still-active configuration
            // passes its cell gate first, in configuration order;
            // then the point is loaded once and all of them replay it
            // in one lockstep pass.
            const std::uint64_t run =
                activeMask.load(std::memory_order_acquire);
            std::uint64_t ran = 0;
            for (std::size_t c = 0; c < nc; ++c) {
                if (!((run >> c) & 1))
                    continue;
                if (!cellGate())
                    return;
                ++ran;
            }
            if (run) {
                ctx.loadPoint(s.point);
                ctx.replayMask(run, resultRow(k), approxWrongPath_);
                replaysExecuted_.fetch_add(ran,
                                           std::memory_order_relaxed);
            }
            if (control_)
                control_->progress.fetch_add(
                    1, std::memory_order_relaxed);
            {
                std::lock_guard<std::mutex> lk(ringM);
                s.full = false;
                s.nextFill = k + S;
            }
            cvFill.notify_all();
            const std::size_t b = k / blockSize;
            if (blockRemaining[b].fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lk(foldM);
                cvBlockDone.notify_all();
            }
        }
    };

    const std::function<void(unsigned)> job = [&](unsigned id) {
        try {
            if (id < producers_)
                producer(id);
            else if (id < producers_ + threads_)
                worker(id - producers_);
            // A shared pool may be wider than this run needs; the
            // excess workers return immediately.
        } catch (...) {
            halt();
            throw;
        }
    };

    pool_->start(job);

    try {
        std::size_t k = first;
        for (std::size_t b = firstBlock; b < numBlocks; ++b) {
            {
                std::unique_lock<std::mutex> lk(foldM);
                cvBlockDone.wait(lk, [&]() {
                    return stop.load() ||
                           blockRemaining[b].load() == 0;
                });
            }
            if (stop.load())
                break; // a worker failed; pool wait rethrows below
            const std::size_t end = std::min(n, (b + 1) * blockSize);
            for (; k < end; ++k)
                foldPoint(k, resultRow(k));
            const std::uint64_t keep = foldBarrier(end) & allMask;
            activeMask.store(keep, std::memory_order_release);
            {
                std::lock_guard<std::mutex> lk(foldM);
                foldedPoints = end;
            }
            cvFoldProgress.notify_all();
            if (keep == 0)
                break;
        }
    } catch (...) {
        // A fold callback threw. The pool threads still reference the
        // locals above (and `job` itself), so they must drain before
        // the stack unwinds; the fold exception outranks any worker
        // one.
        halt();
        try {
            pool_->wait();
        } catch (...) {
        }
        throw;
    }

    halt();
    pool_->wait();
}

} // namespace lp

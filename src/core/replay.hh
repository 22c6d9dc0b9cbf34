/**
 * @file
 * The pooled parallel replay engine. Live-point replay is the hot
 * path of everything downstream of a library, so the engine removes
 * every per-point cost the naive loop pays:
 *
 *  - **Pooled contexts.** Each worker owns one ReplayContext whose
 *    MemHierarchy, BranchPredictor, and OoOCore are reset and reused
 *    across points (zero-realloc reconstruction) instead of
 *    heap-constructed per point.
 *  - **Decode-once fan-out.** A context binds every configuration of
 *    the run at once: the worker decodes a live-point a single time,
 *    then replays it through every active configuration in one
 *    lockstep pass — each chunk of the window is fetched once, then
 *    timed by each configuration's core, and each mispredict's wrong
 *    path is derived once in the chunk for all of them. The decode
 *    cost Figure 7 shows dominating per-point replay, the window's
 *    fetch and its wrong paths are paid once per point, not once per
 *    configuration.
 *  - **Decode pipeline.** Dedicated producer threads decompress and
 *    deserialize points into a bounded ring of reusable slot buffers,
 *    so simulation workers never block on the library codec. Each
 *    producer owns one decode scratch whose chain cache keeps
 *    verified raw records of delta chains — together at most twice
 *    the ring depth — so a shuffled visit resumes partway down its
 *    chain instead of walking from the keyframe. Chains are dealt
 *    round-robin to the producers, each decoding its own chains'
 *    points, so a chain is only ever walked through one cache.
 *  - **Work stealing.** Points are claimed from an atomic counter, so
 *    a straggling point never serializes the tail the way static
 *    striding does.
 *  - **Block-synchronous folding.** Results are folded on the calling
 *    thread in deterministic block order; confidence checks (early
 *    stopping) happen at block barriers, and the barrier can retire
 *    individual configurations (a campaign cell that reached its
 *    confidence target) so freed workers migrate to the rest.
 *    Estimates are therefore bit-identical at every thread count,
 *    early stopping included.
 */

#ifndef LP_CORE_REPLAY_HH
#define LP_CORE_REPLAY_HH

#include <atomic>
#include <functional>
#include <memory>
#include <string>

#include "core/library.hh"
#include "uarch/core.hh"
#include "util/cancel.hh"
#include "util/threadpool.hh"

namespace lp
{

/** Fold granularity used when an options struct leaves it 0. */
inline constexpr std::size_t defaultFoldBlock = 32;

/** Configurations an engine can fan one decode out to (mask width). */
inline constexpr std::size_t maxReplayConfigs = 64;

/** Active-configuration mask with the low @p nc bits set. */
inline constexpr std::uint64_t
replayMaskAll(std::size_t nc)
{
    return nc >= maxReplayConfigs ? ~0ull : (1ull << nc) - 1;
}

/**
 * The canonical processing order every replay runner uses: identity,
 * or a seed-deterministic Fisher-Yates permutation when @p shuffleSeed
 * is nonzero. Shared so a campaign cell and a standalone
 * runLivePoints() with the same seed visit points identically — the
 * precondition for their results being bit-identical.
 */
std::vector<std::size_t> replayOrder(std::size_t n,
                                     std::uint64_t shuffleSeed);

struct ReplayEngineOptions
{
    unsigned threads = 1;       //!< simulation workers
    unsigned decodeThreads = 0; //!< decode producers; 0 = auto
    bool approxWrongPath = false;

    /**
     * Run on this pool instead of constructing one per engine (the
     * campaign engine shares one pool across every workload's run).
     * Must hold at least threads + decode producers workers; the
     * caller keeps ownership and must not run anything else on it
     * while this engine runs.
     */
    ThreadPool *sharedPool = nullptr;

    /**
     * Progress hook (optional; the caller keeps ownership). The
     * engine bumps control->progress once per simulated point — the
     * heartbeat a service's status replies report.
     */
    ReplayControl *control = nullptr;
};

/**
 * Decode producers an engine built with @p opt will use — what a
 * caller supplying a shared pool must size for (threads + this).
 */
unsigned replayDecodeThreads(const ReplayEngineOptions &opt);

/**
 * Cross-run schedule for ReplayEngine::run — where the run begins and
 * which configurations start active. The default plan replays every
 * configuration from point 0, which is what every non-resumed run
 * wants; a resumed campaign offsets the run to its fold frontier
 * (every unconverged cell sits exactly there) and masks out the
 * already-converged configurations, so finished work is never
 * replayed.
 */
struct ReplayPlan
{
    /**
     * First point position (into `order`) the run decodes, simulates,
     * and folds. Must be a multiple of the fold block size.
     */
    std::size_t firstPoint = 0;

    /** Configurations active at firstPoint. */
    std::uint64_t initialMask = ~0ull;
};

/**
 * One worker's reusable replay state for a fixed set of core
 * configurations. All owned structures are reset in place per point;
 * nothing is reallocated between points. A point is loaded once; a
 * replay then installs each requested configuration's warm state
 * from the point, walks the window in InstChunk-sized chunks,
 * fetching each once with the point's availability image, and
 * advances every requested configuration's core through it. Every
 * replay starts from the point's warm state, whatever was replayed
 * since the load.
 */
class ReplayContext
{
  public:
    ReplayContext(const Program &prog, const CoreConfig &cfg);
    ReplayContext(const Program &prog,
                  const std::vector<CoreConfig> &cfgs);

    ReplayContext(const ReplayContext &) = delete;
    ReplayContext &operator=(const ReplayContext &) = delete;

    std::size_t configCount() const { return units_.size(); }
    const CoreConfig &config(std::size_t i = 0) const;

    /**
     * Load @p point and replay it under configuration 0 — the
     * single-configuration hot path.
     */
    WindowResult simulate(const LivePoint &point,
                          bool approxWrongPath = false);

    /**
     * Load @p point once for any number of replays (resolving its
     * predictor images). @p point must stay alive until the last of
     * them.
     */
    void loadPoint(const LivePoint &point);

    /**
     * Replay the loaded point under every configuration whose bit is
     * set in @p mask, in one lockstep pass; out[c] receives
     * configuration c's timing (other entries are left alone).
     */
    void replayMask(std::uint64_t mask, WindowResult *out,
                    bool approxWrongPath = false);

    /** replayMask() of configuration @p cfgIdx alone. */
    WindowResult replay(std::size_t cfgIdx, bool approxWrongPath = false);

  private:
    /** Per-configuration rebindable microarchitectural state. */
    struct Unit
    {
        Unit(const Program &prog, const CoreConfig &config);

        CoreConfig cfg;
        std::string bpredKey;
        MemHierarchy hier;
        BranchPredictor bp;
        OoOCore core;
    };

    /** Install the loaded point's warm state into unit @p unitIdx. */
    void prepareUnit(std::size_t unitIdx, bool approxWrongPath);

    /**
     * Replay the loaded point under the configurations in @p mask;
     * results_[j] receives the j-th one's timing.
     */
    void runPass(std::uint64_t mask, bool approxWrongPath);

    /**
     * Pristine reconstructed warm state shared by every unit of one
     * cache-geometry (or predictor-table) group: the first unit of
     * the group to replay a point reconstructs from the record and
     * snapshots here, the rest memcpy the snapshot instead of
     * replaying the record again. `epoch` says which loadPoint() the
     * snapshot belongs to.
     */
    struct CacheStash
    {
        std::unique_ptr<MemHierarchy> hier;
        std::uint64_t epoch = 0;
    };
    struct BpredStash
    {
        std::unique_ptr<BranchPredictor> bp;
        std::uint64_t epoch = 0;
    };

    const Program &prog_;
    InstChunk chunk_;
    const LivePoint *loaded_ = nullptr;
    std::vector<std::unique_ptr<Unit>> units_;
    std::vector<OoOCore *> active_;     //!< cores of the current pass
    std::vector<WindowResult> results_; //!< their results, same order
    std::uint64_t pointEpoch_ = 0;
    std::vector<const Blob *> bpredImage_; //!< per unit, per point
    std::vector<int> cacheStashOf_;        //!< unit -> stash, -1 = none
    std::vector<int> bpredStashOf_;        //!< unit -> stash, -1 = none
    std::vector<CacheStash> cacheStash_;
    std::vector<BpredStash> bpredStash_;
};

class ReplayEngine
{
  public:
    /**
     * Build an engine simulating every point under each of @p cfgs
     * (one config for absolute estimation, two for matched pairs, a
     * whole campaign's design space for decode-once fan-out — all
     * configs of a point replay in one lockstep pass on the same
     * worker from one decode, so common-random-numbers pairing stays
     * exact).
     */
    ReplayEngine(const Program &prog, std::vector<CoreConfig> cfgs,
                 const ReplayEngineOptions &opt);

    unsigned threads() const { return threads_; }
    unsigned decodeThreads() const { return producers_; }
    std::size_t configCount() const { return cfgs_.size(); }

    /** Raw live-point bytes decoded so far, across all calls. */
    std::uint64_t bytesDecoded() const
    {
        return bytesDecoded_.load(std::memory_order_relaxed);
    }

    /** Points decoded so far (each may fan out to many replays). */
    std::uint64_t pointsDecoded() const
    {
        return pointsDecoded_.load(std::memory_order_relaxed);
    }

    /**
     * Records materialized so far — keyframes and delta-chain links
     * included — across all calls. Divided by pointsDecoded(), the
     * decode work one visit costs (1 for a plain library).
     */
    std::uint64_t recordsDecoded() const
    {
        return recordsDecoded_.load(std::memory_order_relaxed);
    }

    /** (point, config) replays executed so far, across all calls. */
    std::uint64_t replaysExecuted() const
    {
        return replaysExecuted_.load(std::memory_order_relaxed);
    }

    /**
     * Replay lib[order[k]] for every k. foldPoint(k, results) runs on
     * the calling thread for k = firstPoint, firstPoint + 1, ...
     * strictly in order (results[c] is the k-th point's outcome under
     * cfgs[c], valid only for configs scheduled at k); foldBarrier(end)
     * runs after each block of @p blockSize folds (a block wider than
     * the run is one block of the whole run) and returns the mask
     * of configurations to keep replaying — 0 stops the run, dropped
     * bits retire converged configurations so workers spend the freed
     * time on the rest. With @p stopEarly, workers are throttled to
     * stay near the fold frontier so stopping actually saves work;
     * without it they free-run to the end. @p plan (optional) offsets
     * the run for a campaign resume. An error in any worker, producer
     * or callback halts the run and is rethrown here, once the pool
     * has drained.
     */
    void run(const LivePointLibrary &lib,
             const std::vector<std::size_t> &order,
             std::size_t blockSize, bool stopEarly,
             const std::function<void(std::size_t, const WindowResult *)>
                 &foldPoint,
             const std::function<std::uint64_t(std::size_t)> &foldBarrier,
             const ReplayPlan *plan = nullptr);

  private:
    std::vector<CoreConfig> cfgs_;
    bool approxWrongPath_;
    unsigned threads_;
    unsigned producers_;
    /** Decode ring depth: two slots per worker and producer, clamped
     *  to [8, 64]. Also bounds the producers' chain caches, which
     *  together keep at most 2 * ringSlots_ raw records. */
    std::size_t ringSlots_;
    std::vector<std::unique_ptr<ReplayContext>> ctx_; //!< one per worker
    std::atomic<std::uint64_t> bytesDecoded_{0};
    std::atomic<std::uint64_t> pointsDecoded_{0};
    std::atomic<std::uint64_t> recordsDecoded_{0};
    std::atomic<std::uint64_t> replaysExecuted_{0};
    std::unique_ptr<ThreadPool> ownedPool_;
    ThreadPool *pool_;
    ReplayControl *control_;
};

} // namespace lp

#endif // LP_CORE_REPLAY_HH

/**
 * @file
 * The campaign engine — design-space exploration as a first-class
 * workload. A campaign is a (workload x configuration) grid of cells:
 * every workload's live-point library is replayed against every core
 * configuration. The engine schedules the grid on one shared
 * ThreadPool and replays with **decode-once fan-out**: a worker
 * decodes a live-point into its reusable buffer once and replays it
 * through all still-active configurations, so the decompress +
 * deserialize cost that dominates per-point replay (Figure 7) is paid
 * once per point instead of once per cell.
 *
 * Guarantees:
 *  - **Per-cell bit-identity.** Each cell's estimate, confidence
 *    trajectory, and stopping point are bit-identical to a standalone
 *    runLivePoints() of that (workload, config) with the same seed
 *    and block size, at every thread count.
 *  - **Common random numbers.** All configurations of a point replay
 *    from the same decode in the same order, so any pair of cells
 *    yields the exact per-point deltas runMatchedPair() produces.
 *  - **Independent stopping, shared workers.** Cells reach their
 *    confidence target independently (OnlineEstimator fold at block
 *    barriers) and retire; the workers they free migrate to the
 *    still-unconverged cells automatically, because the fan-out per
 *    decode shrinks.
 *  - **Resumability.** With a manifest path set, per-cell fold state
 *    is checkpointed (DER-encoded, keyed by library hash and config
 *    digest) at every block barrier; a killed campaign resumes
 *    without re-replaying finished work and finishes with results
 *    bit-identical to the uninterrupted run.
 *  - **Crash safety.** Each barrier replaces the whole manifest file
 *    atomically (temp, fsync, rename, directory fsync): one DER image
 *    plus a 16-byte checksum footer. A crash (kill -9, power loss,
 *    ENOSPC) leaves the previous barrier's file or this one's, never
 *    a torn one, and the resume starts from it. A file without an
 *    intact footer was damaged from outside; the run rejects it,
 *    naming the file, and leaves it as it is.
 *  - **Degraded-set tolerance.** A workload whose shard is
 *    quarantined (see LibrarySet::openRecover) or fails to open is
 *    marked failed-with-reason cell by cell; the campaign keeps
 *    going and its workers migrate to the healthy workloads.
 *    Transient errors (EINTR/EAGAIN) never get this far: each system
 *    call of the open retries its own.
 */

#ifndef LP_CORE_CAMPAIGN_HH
#define LP_CORE_CAMPAIGN_HH

#include <string>
#include <vector>

#include "core/library.hh"
#include "core/library_set.hh"
#include "core/sample.hh"
#include "stats/running_stat.hh"
#include "uarch/config.hh"
#include "util/cancel.hh"
#include "workload/generator.hh"

namespace lp
{

class ResultStore;
struct CellRecord;
struct ResultKey;

/**
 * One row of the campaign grid. The library comes from exactly one of
 * two places: a resident LivePointLibrary (@p lib), or a shard of a
 * sharded fleet store (@p set + @p shard). A set-backed workload is
 * opened lazily when its run begins — its metadata (point count,
 * content hash, used for scheduling and manifest keying) comes from
 * the set index — and is unloaded again once the workload finishes,
 * so a fleet larger than RAM streams through the campaign one shard
 * at a time and never loads workloads the resume manifest already
 * finished.
 */
struct CampaignWorkload
{
    std::string name;
    const Program *prog = nullptr;
    const LivePointLibrary *lib = nullptr;
    const LibrarySet *set = nullptr; //!< used when lib == nullptr
    std::size_t shard = 0;           //!< shard index within *set
};

struct CampaignOptions
{
    ConfidenceSpec spec{};

    /** Retire each cell as soon as it satisfies the spec. */
    bool stopAtConfidence = false;

    bool approxWrongPath = false;

    /** Per-workload processing order; 0 = stored order. */
    std::uint64_t shuffleSeed = 0;

    unsigned threads = 1;       //!< simulation workers
    unsigned decodeThreads = 0; //!< decode producers; 0 = auto
    std::size_t blockSize = 0;  //!< fold/stopping block; 0 = default

    /**
     * Global replay budget: the campaign stops (gracefully, at a
     * block barrier) once this many (point, config) replays have been
     * folded, counting work restored from a manifest. 0 = unlimited.
     * The check uses folded — not executed — replays, so the stopping
     * point is identical at every thread count.
     */
    std::uint64_t maxFoldedReplays = 0;

    /**
     * Checkpoint file. When set, per-cell fold state is written at
     * every block barrier, and an existing file is loaded and
     * validated before the run (mismatched campaigns throw). Empty =
     * no checkpointing.
     */
    std::string manifestPath;

    /**
     * Unload a set-backed workload's shard when its run finishes
     * (only shards this campaign opened), keeping the fleet's
     * resident set to roughly one shard.
     */
    bool unloadFinishedShards = true;

    /**
     * Control hook (optional; the caller keeps ownership).
     * control->cancel stops the campaign gracefully at the next block
     * barrier — after the barrier's manifest write, so the stop is a
     * valid resume point and a later resumption is bit-identical to
     * the uninterrupted run. control->progress is threaded through to
     * the replay engine (see ReplayEngineOptions::control).
     */
    ReplayControl *control = nullptr;

    /**
     * Wall-clock budget: when it expires the campaign stops at the
     * next block barrier exactly like a cancellation (manifest
     * consistent, resumable). Default: never.
     */
    Deadline deadline;

    /**
     * Fleet result store (optional; the caller keeps ownership).
     * Before any replay starts, each cell's full replay identity —
     * (library contentHash, config digest, shuffle seed, block size,
     * wrong-path mode, stopping mode, confidence spec) — is looked
     * up; a hit restores the stored fold state instead of replaying,
     * bit-identical to a fresh run by the engine's determinism
     * contract (the restore cross-checks the stored CPI bits and
     * throws on mismatch). Memoized cells never open their shard, are
     * excluded from the manifest and the replay budget, and pairs
     * where both cells are memoized restore their matched-pair delta
     * from the store. The store is read-only during run(); call
     * publish() afterwards to add this run's completed cells.
     */
    ResultStore *resultStore = nullptr;
};

/**
 * Machine-readable reason a cell failed — the stable vocabulary
 * reports and clients match on (free text lives in
 * CampaignCell::failureReason / the report's "detail").
 */
enum class CellFailReason
{
    none,             //!< healthy
    shardQuarantined, //!< the workload's shard is quarantined
    shardUnavailable, //!< the shard would not open
    replayFault,      //!< a replay error (injected or real)
    staleFoldState    //!< resumed cell was below the fold frontier
};

/** Stable token for @p r (e.g. "replay_fault"); never changes meaning. */
const char *cellFailReasonToken(CellFailReason r);

/** One (workload, configuration) cell's outcome. */
struct CampaignCell
{
    std::size_t workload = 0;
    std::size_t config = 0;
    OnlineSnapshot estimate;
    RunningStat stat;          //!< per-window CPI observations
    std::size_t processed = 0; //!< points folded, restored included
    std::size_t restored = 0;  //!< of which restored from the manifest
    std::uint64_t unavailableLoads = 0;
    bool converged = false;    //!< retired by its confidence target

    /**
     * The cell failed before it finished (quarantined or unopenable
     * shard, a replay error in its workload, or stale resume state):
     * the estimate covers only the points folded before the failure.
     * Converged cells retired before the failure are not marked.
     */
    bool failed = false;
    CellFailReason reason = CellFailReason::none;
    std::string failureReason; //!< free-text detail ("" when healthy)

    /**
     * Restored from the result store without replaying: processed /
     * stat / estimate are the stored run's, bit-identical to what
     * replaying would have produced.
     */
    bool memoized = false;

    double cpi() const { return estimate.mean; }
};

/**
 * A matched pair of cells on one workload: per-point CPI deltas
 * (configs[test] - configs[base]) over the prefix both cells were
 * active for — exactly what runMatchedPair() folds, because both
 * cells replay from the same decodes in the same order.
 */
struct CampaignPair
{
    std::size_t workload = 0;
    std::size_t base = 0;
    std::size_t test = 0;
    RunningStat delta;

    double meanDelta() const { return delta.mean(); }
};

struct CampaignResult
{
    std::vector<CampaignCell> cells; //!< workload-major grid
    std::vector<CampaignPair> pairs; //!< all config pairs per workload
    double wallSeconds = 0.0;
    std::uint64_t bytesDecoded = 0;
    std::uint64_t pointsDecoded = 0;   //!< decode calls this run
    std::uint64_t replaysExecuted = 0; //!< incl. speculative overshoot
    std::uint64_t foldedReplays = 0;   //!< deterministic, incl. restored
    std::uint64_t restoredReplays = 0; //!< replays skipped via manifest
    std::uint64_t migratedReplays = 0; //!< replays freed by retirement
    std::size_t retirements = 0;       //!< cells stopped early
    std::size_t failedCells = 0;       //!< cells failed-with-reason
    std::size_t memoizedCells = 0;     //!< cells resolved by the store
    /** Replays the result store made unnecessary this run. */
    std::uint64_t memoizedReplays = 0;
    bool budgetExhausted = false;

    /**
     * The run stopped early at a block barrier on a cancellation
     * request or an expired deadline. The manifest (when enabled)
     * holds the stop as a valid resume point; cells are not marked
     * failed.
     */
    bool cancelled = false;
    std::string cancelReason;

    const CampaignCell &cell(std::size_t workload, std::size_t config,
                             std::size_t numConfigs) const
    {
        return cells[workload * numConfigs + config];
    }

    /** Delta stat for (base, test) on a workload; null if not found. */
    const CampaignPair *pair(std::size_t workload, std::size_t base,
                             std::size_t test) const;
};

class CampaignEngine
{
  public:
    CampaignEngine(std::vector<CampaignWorkload> workloads,
                   std::vector<CoreConfig> configs,
                   const CampaignOptions &opt);

    std::size_t workloadCount() const { return workloads_.size(); }
    std::size_t configCount() const { return configs_.size(); }
    const CoreConfig &config(std::size_t i) const { return configs_[i]; }

    /**
     * Run (or resume) the campaign. Throws if an existing manifest
     * belongs to a different campaign (other libraries, configs,
     * seed, block size, or spec).
     */
    CampaignResult run();

    /**
     * The machine-readable campaign report: one JSON object with the
     * grid, per-cell estimates, matched-pair deltas at the campaign's
     * confidence level, and decode-amortization totals. Every
     * free-text field (names, failure details, cancel reasons) is
     * JSON-escaped; the output always parses.
     */
    std::string jsonReport(const CampaignResult &r) const;

    /**
     * Publish @p r's completed cells into @p store: every cell that
     * is not failed and either converged or consumed its whole
     * library, keyed by its full replay identity, plus the
     * matched-pair deltas between published cells. Memoized cells
     * republish their (identical) stored records, so publishing is
     * idempotent. Returns the number of records written. The caller
     * saves the store when it chooses.
     */
    std::size_t publish(const CampaignResult &r,
                        ResultStore &store) const;

  private:
    struct Manifest;

    Manifest loadManifest() const;
    void saveManifest(const Manifest &m) const;
    /** Result-store identity of cell (workload @p w, config @p c). */
    ResultKey cellKey(std::size_t w, std::size_t c) const;

    std::vector<CampaignWorkload> workloads_;
    std::vector<CoreConfig> configs_;
    std::vector<std::uint64_t> digests_;
    std::vector<std::uint64_t> libHashes_; //!< computed once; libraries
                                           //!< are immutable during a run
    std::vector<std::uint64_t> libSizes_;  //!< per-workload point count
    CampaignOptions opt_;
    std::size_t blockSize_;
};

} // namespace lp

#endif // LP_CORE_CAMPAIGN_HH

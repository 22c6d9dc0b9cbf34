/**
 * @file
 * The campaign service: a job queue and restart-recovery layer over
 * CampaignEngine. One service owns one
 * LibrarySet fleet store (opened with openRecover, so a degraded set
 * serves what it can) and one worker-slot budget; submitted JobSpecs
 * queue, run concurrently under that budget, and persist everything
 * they need to resume into per-job directories:
 *
 *     <jobsDir>/job-<id>/job.lpjob       the job record (svc/job.hh):
 *                                        spec, state, detail, report
 *     <jobsDir>/job-<id>/manifest.lpcmf  campaign checkpoint, replaced
 *                                        atomically at every barrier
 *     <jobsDir>/service.jsonl            structured event log
 *
 * A job changes state in one place: the record is replaced whole
 * first, then the job changes in memory, the event is logged,
 * waiters wake, and — when a job was queued or left `running` — the
 * lowest-id queued jobs that fit the slot budget start. No thread
 * other than the jobs' own runs. Recovery reads each record whole:
 * terminal jobs reload as results, the others queue again and resume
 * from their manifests. A missing, unreadable or undecodable record
 * skips its job with a `recover_skipped` event naming the file, and
 * leaves the directory untouched; a skipped id is never handed out
 * again.
 *
 * Guarantees:
 *  - **Bit-identity.** A job's result is bit-identical to running the
 *    same grid standalone (same spec, seed, block size) — including a
 *    job whose daemon was SIGKILLed mid-run and restarted: recovery
 *    re-enqueues it and its manifest resumes it at the last durable
 *    barrier.
 *  - **Admission control.** submit() rejects-with-retry-after when
 *    the queue is at maxQueueDepth or when the resident estimate
 *    would exceed maxResidentBytes. The estimate is the bytes of
 *    every distinct shard that an unfinished job names, plus the new
 *    job's shards outside that set: the service maps a shard once,
 *    however many jobs share it, and unmaps it when the last job
 *    using it ends.
 *  - **Contained replay errors.** A replay error, real or injected
 *    at `replay.cell`, fails every unconverged cell of its workload
 *    with reason `replay_fault`; the job's other workloads finish
 *    bit-identical and the job completes `done`.
 *  - **Graceful degradation.** A job naming a quarantined shard still
 *    runs; the campaign marks those cells failed-with-reason
 *    (`shard_quarantined`) and the job completes `done`.
 *  - **Cooperative cancellation.** cancel() stops a running job at
 *    the next block barrier, after its manifest write — the stop is a
 *    valid resume point, and resume() continues it bit-identically.
 */

#ifndef LP_SVC_SERVICE_HH
#define LP_SVC_SERVICE_HH

#include <condition_variable>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/library_set.hh"
#include "svc/job.hh"
#include "svc/proto.hh"

namespace lp
{

class ResultStore;

/**
 * Caps on the JobSpec fields that arrive off the socket and size what
 * a job allocates: submit() rejects a larger value before admission,
 * with an error naming the field. `threads` and `decodeThreads` size
 * the job's thread pool; each workload regenerates a program with
 * 64 KiB of initial data, and `tinyInsts` sizes its chunk table; the
 * block cap is wider than any library the builder writes; the string
 * cap covers the job, shard, profile, preset and config names. (A
 * job's config count is capped at maxReplayConfigs the same way.)
 */
inline constexpr std::uint32_t maxJobThreads = 256;
inline constexpr std::size_t maxJobWorkloads = 64;
inline constexpr std::uint64_t maxJobBlockSize = 1ull << 20;
inline constexpr std::uint64_t maxJobTinyInsts = 1ull << 32;
inline constexpr std::size_t maxJobStringBytes = 256;

struct ServiceConfig
{
    std::string jobsDir; //!< job directories + structured log
    std::string setDir;  //!< LibrarySet fleet store (openRecover)

    /** Total simulation-worker budget across concurrent jobs. */
    unsigned workerSlots = 4;

    /** Queued (not yet running) jobs beyond this are rejected. */
    std::size_t maxQueueDepth = 8;

    /** Resident-bytes admission bound; 0 = unlimited. */
    std::uint64_t maxResidentBytes = 0;

    /** Structured log path; "" = <jobsDir>/service.jsonl. */
    std::string logPath;

    /**
     * Fleet result store: every finished job publishes its completed
     * cells here, and every job memoizes against it before replaying
     * (see CampaignOptions::resultStore). "" = <jobsDir>/results.lpres.
     * A corrupt store file is moved aside and the service starts with
     * an empty store — it is a regenerable cache, never a reason to
     * refuse service.
     */
    std::string resultStorePath;
};

/** What submit()/resume() decided. */
struct SubmitOutcome
{
    bool accepted = false;
    bool retry = false; //!< admission full: retry after retryAfterMs
    std::uint64_t id = 0;
    std::uint64_t retryAfterMs = 0;
    std::string error; //!< rejection / retry detail
};

struct JobStatusInfo
{
    bool found = false;
    JobState state = JobState::queued;
    std::uint64_t progress = 0; //!< folded-replay heartbeat counter
    std::string detail;         //!< error / cancel reason ("" if none)
};

class CampaignService
{
  public:
    /**
     * Open the fleet set, scan @p cfg.jobsDir for jobs a previous
     * incarnation left behind (terminal jobs are reloaded as results;
     * queued/running jobs re-enqueue and resume from their
     * manifests), and start the queued jobs that fit.
     */
    explicit CampaignService(const ServiceConfig &cfg);

    /** Stops accepting, cancels what runs, and joins (resumable). */
    ~CampaignService();

    CampaignService(const CampaignService &) = delete;
    CampaignService &operator=(const CampaignService &) = delete;

    /**
     * Validate, admit and record a new job, and start it when it
     * fits. A record that cannot be written is an error: no job
     * exists, and a restart runs nothing.
     */
    SubmitOutcome submit(const JobSpec &spec);

    /**
     * Request cancellation. A queued job cancels immediately; a
     * running job drains to its next block barrier. False only when
     * @p id is unknown. Throws IoError, with the job as it was, when
     * a queued job's record cannot be written.
     */
    bool cancel(std::uint64_t id, const std::string &reason);

    /**
     * Re-enqueue a cancelled/failed job; resumes from its manifest.
     * A record that cannot be written is an error, with the job as it
     * was.
     */
    SubmitOutcome resume(std::uint64_t id);

    JobStatusInfo status(std::uint64_t id) const;

    /**
     * Terminal outcome of @p id: its state and, for done jobs, the
     * campaign JSON report. False when unknown or not yet terminal.
     */
    bool result(std::uint64_t id, JobState *state,
                std::string *json) const;

    /** Block until @p id is terminal; false on timeout/unknown. */
    bool waitForJob(std::uint64_t id, std::uint64_t timeoutMs = 0);

    /** Stop accepting, run the queue dry, join the job threads. */
    void drain();

    const LibrarySet &set() const { return set_; }
    const ServiceConfig &config() const { return cfg_; }

    /**
     * Answer a cross-campaign result query from the store with zero
     * simulation: a JSON object listing the stored cell records (and
     * matched-pair deltas), optionally filtered by workload shard
     * name (@p workload, "" = any) and config digest (@p configDigest,
     * 0 = any). Shard names resolve through the fleet set; a stored
     * record whose library is no longer in the set reports its raw
     * content hash instead of a name.
     */
    std::string queryResults(const std::string &workload,
                             std::uint64_t configDigest) const;

    /** All job ids, ascending (for status listings and tests). */
    std::vector<std::uint64_t> jobIds() const;

  private:
    struct Job;

    void recoverJobs();
    std::unique_ptr<Job> newJob(std::uint64_t id, JobRecord rec) const;
    void setStateLocked(Job &j, JobState s, const char *event,
                        std::string detail = "", std::string report = "");
    void admitLocked();
    void runJob(Job &j);
    void shutdown(bool cancelRunning);
    void logEvent(const std::string &event, const Job *j,
                  const std::string &detail);

    ServiceConfig cfg_;
    LibrarySet set_;
    std::unique_ptr<ResultStore> store_;

    mutable std::mutex m_;
    std::condition_variable cv_;
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    std::map<std::size_t, unsigned> shardRefs_; //!< loaded-shard users
    std::uint64_t nextId_ = 1;
    unsigned runningSlots_ = 0;
    bool draining_ = false; //!< no new submissions

    std::mutex logM_;
    std::FILE *log_ = nullptr;
};

} // namespace lp

#endif // LP_SVC_SERVICE_HH

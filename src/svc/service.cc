#include "svc/service.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <deque>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>

#include <sys/stat.h>
#include <sys/types.h>
#include <unistd.h>

#include "core/campaign.hh"
#include "core/replay.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "io/source.hh"
#include "store/result_store.hh"
#include "uarch/config.hh"
#include "util/cancel.hh"
#include "util/log.hh"
#include "workload/generator.hh"
#include "workload/profile.hh"

namespace lp
{

namespace
{

/** Retry hint returned with admission rejections. */
constexpr std::uint64_t kRetryAfterMs = 250;

/** A job directory's record (svc/job.hh). */
constexpr const char *kRecordFile = "/job.lpjob";

std::string
jobDir(const std::string &jobsDir, std::uint64_t id)
{
    return jobsDir +
           strfmt("/job-%llu", static_cast<unsigned long long>(id));
}

std::uint64_t
nowWallMs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::system_clock::now().time_since_epoch())
            .count());
}

void
makeDir(const std::string &path, const char *what)
{
    if (::mkdir(path.c_str(), 0777) == 0 || errno == EEXIST)
        return;
    throwIoError("create", what, path, errno);
}

/** The bundle a job runs from; programs must outlive the engine. */
struct MaterializedJob
{
    std::deque<Program> programs;
    std::vector<CampaignWorkload> workloads;
    std::vector<CoreConfig> configs;
    CampaignOptions opt;
};

CoreConfig
materializeConfig(const JobConfigSpec &c)
{
    CoreConfig cfg;
    if (c.preset.empty() || c.preset == "eight")
        cfg = CoreConfig::eightWay();
    else if (c.preset == "sixteen")
        cfg = CoreConfig::sixteenWay();
    else
        throw std::runtime_error(
            strfmt("unknown config preset '%s'", c.preset.c_str()));
    if (c.memLatency)
        cfg.mem.memLatency = c.memLatency;
    if (c.l2Latency)
        cfg.mem.l2Latency = c.l2Latency;
    if (c.l2SizeBytes)
        cfg.mem.l2.sizeBytes = c.l2SizeBytes;
    if (!c.name.empty())
        cfg.name = c.name;
    return cfg;
}

} // namespace

struct CampaignService::Job
{
    std::uint64_t id = 0;
    std::string dir;
    /**
     * The record as last written, except that a job recovered in
     * flight is queued until it starts. rec.spec never changes.
     */
    JobRecord rec;
    std::vector<std::size_t> shards;
    unsigned slots = 1;
    ReplayControl control;
    std::thread thread;
};

CampaignService::CampaignService(const ServiceConfig &cfg)
    : cfg_(cfg), set_(LibrarySet::openRecover(cfg.setDir))
{
    makeDir(cfg_.jobsDir, "service jobs directory");
    const std::string logPath = cfg_.logPath.empty()
                                    ? cfg_.jobsDir + "/service.jsonl"
                                    : cfg_.logPath;
    log_ = std::fopen(logPath.c_str(), "ab");
    if (!log_)
        throwIoError("open", "service log", logPath, errno);
    if (set_.recovery().degraded) {
        for (const std::string &note : set_.recovery().notes)
            logEvent("set_degraded", nullptr, note);
    }
    const std::string storePath =
        cfg_.resultStorePath.empty() ? cfg_.jobsDir + "/results.lpres"
                                     : cfg_.resultStorePath;
    store_ = std::make_unique<ResultStore>();
    try {
        store_->open(storePath);
        logEvent("result_store", nullptr,
                 strfmt("%zu cells, %zu pairs", store_->cellCount(),
                        store_->pairCount()));
    } catch (const std::exception &e) {
        // The store is a regenerable cache: a corrupt file is moved
        // aside (evidence for forensics) and the service starts
        // empty; the next save() writes a fresh valid store.
        const std::string aside = storePath + ".corrupt";
        std::rename(storePath.c_str(), aside.c_str());
        store_ = std::make_unique<ResultStore>();
        store_->open(storePath);
        logEvent("result_store_corrupt", nullptr,
                 strfmt("%s (moved aside to %s)", e.what(),
                        aside.c_str()));
    }
    recoverJobs();
    logEvent("service_start", nullptr,
             strfmt("slots=%u queue=%zu", cfg_.workerSlots,
                    cfg_.maxQueueDepth));
    std::lock_guard<std::mutex> lk(m_);
    admitLocked();
}

CampaignService::~CampaignService()
{
    shutdown(/*cancelRunning=*/true);
    if (log_)
        std::fclose(log_);
}

void
CampaignService::logEvent(const std::string &event, const Job *j,
                          const std::string &detail)
{
    std::string line =
        strfmt("{\"ts_ms\": %llu, \"event\": \"%s\"",
               static_cast<unsigned long long>(nowWallMs()),
               jsonEscape(event).c_str());
    if (j) {
        line += strfmt(", \"job\": %llu, \"state\": \"%s\"",
                       static_cast<unsigned long long>(j->id),
                       jobStateToken(j->rec.state));
    }
    if (!detail.empty())
        line += strfmt(", \"detail\": \"%s\"",
                       jsonEscape(detail).c_str());
    line += "}\n";
    std::lock_guard<std::mutex> lk(logM_);
    std::fwrite(line.data(), 1, line.size(), log_);
    std::fflush(log_);
}

void
CampaignService::recoverJobs()
{
    std::vector<std::uint64_t> ids;
    for (const auto &e : std::filesystem::directory_iterator(cfg_.jobsDir)) {
        const std::string name = e.path().filename().string();
        std::uint64_t id = 0;
        if (name.rfind("job-", 0) == 0 && parseDecimal(name.substr(4), &id) &&
            id != 0)
            ids.push_back(id);
    }
    std::sort(ids.begin(), ids.end());

    for (std::uint64_t id : ids) {
        // A skipped job's id is not handed out again, so no new job
        // writes into the directory recovery left alone.
        nextId_ = std::max(nextId_, id + 1);
        const std::string path = jobDir(cfg_.jobsDir, id) + kRecordFile;
        JobRecord rec;
        try {
            rec = decodeJobRecord(readWholeFile(path, "job record"), path);
        } catch (const std::exception &e) {
            logEvent("recover_skipped", nullptr, e.what());
            continue;
        }
        std::unique_ptr<Job> j = newJob(id, std::move(rec));
        if (!jobStateTerminal(j->rec.state)) {
            // queued / running: the previous incarnation died with
            // this job in flight. It queues again, and its manifest
            // resumes it bit-identically.
            j->rec.state = JobState::queued;
            logEvent("recovered", j.get(), "re-enqueued after restart");
        }
        jobs_.emplace(id, std::move(j));
    }
}

std::unique_ptr<CampaignService::Job>
CampaignService::newJob(std::uint64_t id, JobRecord rec) const
{
    auto j = std::make_unique<Job>();
    j->id = id;
    j->dir = jobDir(cfg_.jobsDir, id);
    j->slots = std::max(1u, rec.spec.threads);
    for (const JobWorkloadSpec &w : rec.spec.workloads) {
        const std::size_t i = set_.find(w.shard);
        if (i != LibrarySet::npos)
            j->shards.push_back(i);
    }
    j->rec = std::move(rec);
    return j;
}

SubmitOutcome
CampaignService::submit(const JobSpec &spec)
{
    SubmitOutcome out;
    if (spec.workloads.empty() || spec.configs.empty()) {
        out.error = "a job needs at least one workload and one config";
        return out;
    }
    if (spec.configs.size() > maxReplayConfigs) {
        out.error = strfmt("too many configs: %zu (at most %zu)",
                           spec.configs.size(), maxReplayConfigs);
        return out;
    }
    if (spec.workloads.size() > maxJobWorkloads) {
        out.error = strfmt("too many workloads: %zu (at most %zu)",
                           spec.workloads.size(), maxJobWorkloads);
        return out;
    }
    if (spec.threads > maxJobThreads) {
        out.error = strfmt("threads %u exceeds the limit of %u",
                           spec.threads, maxJobThreads);
        return out;
    }
    if (spec.decodeThreads > maxJobThreads) {
        out.error = strfmt("decodeThreads %u exceeds the limit of %u",
                           spec.decodeThreads, maxJobThreads);
        return out;
    }
    if (spec.blockSize > maxJobBlockSize) {
        out.error = strfmt("blockSize %llu exceeds the limit of %llu",
                           static_cast<unsigned long long>(spec.blockSize),
                           static_cast<unsigned long long>(maxJobBlockSize));
        return out;
    }
    // Names are only logged and reported, but a frame may carry
    // megabytes of them.
    auto tooLong = [&out](const std::string &s, const char *what) {
        if (s.size() <= maxJobStringBytes)
            return false;
        out.error = strfmt("%s is %zu bytes long (at most %zu)", what,
                           s.size(), maxJobStringBytes);
        return true;
    };
    if (tooLong(spec.name, "job name"))
        return out;
    for (const JobWorkloadSpec &w : spec.workloads) {
        if (tooLong(w.shard, "shard name") ||
            tooLong(w.profile, "profile name"))
            return out;
        if (w.tinyInsts > maxJobTinyInsts) {
            out.error = strfmt(
                "tinyInsts %llu exceeds the limit of %llu",
                static_cast<unsigned long long>(w.tinyInsts),
                static_cast<unsigned long long>(maxJobTinyInsts));
            return out;
        }
    }
    for (const JobConfigSpec &c : spec.configs) {
        if (tooLong(c.preset, "config preset") ||
            tooLong(c.name, "config name"))
            return out;
        if (!c.preset.empty() && c.preset != "eight" &&
            c.preset != "sixteen") {
            out.error =
                strfmt("unknown config preset '%s'", c.preset.c_str());
            return out;
        }
    }
    for (const JobWorkloadSpec &w : spec.workloads) {
        if (set_.find(w.shard) == LibrarySet::npos) {
            out.error = strfmt("shard '%s' is not in the fleet set",
                               w.shard.c_str());
            return out;
        }
    }

    std::unique_lock<std::mutex> lk(m_);
    if (draining_) {
        out.error = "service is draining";
        return out;
    }
    // A job's campaign keeps every shard it opens mapped, and the
    // service maps a shard once however many jobs name it, unmapping
    // it when the last of them ends. So the resident set is every
    // shard an unfinished job names, counted once.
    std::size_t queued = 0;
    std::set<std::size_t> live;
    for (const auto &kv : jobs_) {
        const Job &j = *kv.second;
        if (j.rec.state == JobState::queued)
            ++queued;
        if (!jobStateTerminal(j.rec.state))
            live.insert(j.shards.begin(), j.shards.end());
    }
    if (queued >= cfg_.maxQueueDepth) {
        out.retry = true;
        out.retryAfterMs = kRetryAfterMs;
        out.error = strfmt("queue full (%zu queued)", queued);
        return out;
    }
    auto bytesOf = [this](const std::set<std::size_t> &shards) {
        std::uint64_t sum = 0;
        for (const std::size_t i : shards)
            sum += set_.fileBytes(i);
        return sum;
    };
    std::set<std::size_t> after = live;
    for (const JobWorkloadSpec &w : spec.workloads)
        after.insert(set_.find(w.shard));
    const std::uint64_t resident = bytesOf(live);
    const std::uint64_t estimate = bytesOf(after) - resident;
    if (cfg_.maxResidentBytes &&
        resident + estimate > cfg_.maxResidentBytes &&
        resident != 0) {
        // resident == 0 means this job alone exceeds the budget; let
        // it run rather than wedge.
        out.retry = true;
        out.retryAfterMs = kRetryAfterMs;
        out.error = strfmt(
            "resident budget full (%llu + %llu > %llu bytes)",
            static_cast<unsigned long long>(resident),
            static_cast<unsigned long long>(estimate),
            static_cast<unsigned long long>(cfg_.maxResidentBytes));
        return out;
    }

    // A job whose first record cannot be written is erased again,
    // with its empty directory: a restart finds nothing to run.
    const std::uint64_t id = nextId_;
    const std::string dir = jobDir(cfg_.jobsDir, id);
    Job &j = *jobs_.emplace(id, newJob(id, {spec, JobState::queued, "", ""}))
                  .first->second;
    try {
        makeDir(dir, "job directory");
        setStateLocked(j, JobState::queued, "submitted");
    } catch (const std::exception &e) {
        jobs_.erase(id);
        ::rmdir(dir.c_str());
        out.error = e.what();
        return out;
    }
    ++nextId_;
    out.accepted = true;
    out.id = id;
    return out;
}

bool
CampaignService::cancel(std::uint64_t id, const std::string &reason)
{
    std::unique_lock<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    Job &j = *it->second;
    if (j.rec.state == JobState::queued) {
        setStateLocked(j, JobState::cancelled, "cancelled",
                       reason.empty() ? "cancelled" : reason);
    } else if (j.rec.state == JobState::running &&
               !j.control.cancel.cancelled()) {
        j.control.cancel.requestCancel(
            reason.empty() ? "cancel requested" : reason);
        logEvent("draining", &j, reason);
    }
    return true;
}

SubmitOutcome
CampaignService::resume(std::uint64_t id)
{
    SubmitOutcome out;
    std::unique_lock<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end()) {
        out.error = strfmt("no job %llu",
                           static_cast<unsigned long long>(id));
        return out;
    }
    Job &j = *it->second;
    if (draining_) {
        out.error = "service is draining";
        return out;
    }
    if (!jobStateTerminal(j.rec.state) || j.rec.state == JobState::done) {
        out.error = strfmt("job %llu is %s, not resumable",
                           static_cast<unsigned long long>(id),
                           jobStateToken(j.rec.state));
        return out;
    }
    j.control.cancel.reset();
    try {
        setStateLocked(j, JobState::queued, "resumed");
    } catch (const std::exception &e) {
        out.error = e.what();
        return out;
    }
    out.accepted = true;
    out.id = id;
    return out;
}

JobStatusInfo
CampaignService::status(std::uint64_t id) const
{
    JobStatusInfo info;
    std::unique_lock<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return info;
    const Job &j = *it->second;
    info.found = true;
    info.state = (j.rec.state == JobState::running &&
                  j.control.cancel.cancelled())
                     ? JobState::draining
                     : j.rec.state;
    info.progress =
        j.control.progress.load(std::memory_order_relaxed);
    info.detail = j.rec.detail;
    return info;
}

bool
CampaignService::result(std::uint64_t id, JobState *state,
                        std::string *json) const
{
    std::unique_lock<std::mutex> lk(m_);
    auto it = jobs_.find(id);
    if (it == jobs_.end())
        return false;
    const Job &j = *it->second;
    if (!jobStateTerminal(j.rec.state))
        return false;
    *state = j.rec.state;
    *json = j.rec.state == JobState::done ? j.rec.report : j.rec.detail;
    return true;
}

bool
CampaignService::waitForJob(std::uint64_t id, std::uint64_t timeoutMs)
{
    std::unique_lock<std::mutex> lk(m_);
    auto terminal = [&] {
        auto it = jobs_.find(id);
        return it != jobs_.end() &&
               jobStateTerminal(it->second->rec.state);
    };
    if (jobs_.find(id) == jobs_.end())
        return false;
    if (timeoutMs == 0) {
        cv_.wait(lk, terminal);
        return true;
    }
    return cv_.wait_for(lk, std::chrono::milliseconds(timeoutMs),
                        terminal);
}

std::string
CampaignService::queryResults(const std::string &workload,
                              std::uint64_t configDigest) const
{
    std::uint64_t libFilter = 0;
    if (!workload.empty()) {
        const std::size_t i = set_.find(workload);
        if (i == LibrarySet::npos)
            return strfmt(
                "{\"error\": \"shard '%s' is not in the fleet set\"}\n",
                jsonEscape(workload).c_str());
        libFilter = set_.contentHash(i);
    }
    // libHash -> shard name, so rows read like the fleet set.
    std::unordered_map<std::uint64_t, std::string> names;
    for (std::size_t i = 0; i < set_.size(); ++i)
        names.emplace(set_.contentHash(i), set_.name(i));
    return storeQueryJson(*store_, StoreQuery{libFilter, configDigest},
                          names);
}

std::vector<std::uint64_t>
CampaignService::jobIds() const
{
    std::unique_lock<std::mutex> lk(m_);
    std::vector<std::uint64_t> ids;
    ids.reserve(jobs_.size());
    for (const auto &kv : jobs_)
        ids.push_back(kv.first);
    return ids;
}

void
CampaignService::setStateLocked(Job &j, JobState s, const char *event,
                                std::string detail, std::string report)
{
    JobRecord next{j.rec.spec, s, std::move(detail), std::move(report)};
    try {
        const Blob image = encodeJobRecord(next);
        writeFileAtomic(j.dir + kRecordFile, image.data(), image.size(),
                        "job record");
    } catch (const std::exception &e) {
        // Submit, cancel and resume answer the error with the job as
        // it was. A job that is starting or ending cannot stay where
        // it is: it fails here, and its record keeps the last state
        // written (queued or running), which a restart runs again.
        if (s != JobState::running && j.rec.state != JobState::running)
            throw;
        next = JobRecord{j.rec.spec, JobState::failed,
                         strfmt("state write failed: %s", e.what()), ""};
        event = "finished";
    }

    // A terminal job's thread has left the lock for good and is
    // ending; join it before a resume can start a new one.
    for (auto &kv : jobs_) {
        Job &t = *kv.second;
        if (jobStateTerminal(t.rec.state) && t.thread.joinable() &&
            t.thread.get_id() != std::this_thread::get_id())
            t.thread.join();
    }

    const bool leftRunning = j.rec.state == JobState::running &&
                             next.state != JobState::running;
    if (leftRunning) {
        runningSlots_ -= j.slots;
        for (std::size_t sh : j.shards) {
            auto it = shardRefs_.find(sh);
            if (it != shardRefs_.end() && --it->second == 0) {
                shardRefs_.erase(it);
                if (set_.isLoaded(sh))
                    set_.unload(sh);
            }
        }
    } else if (next.state == JobState::running) {
        runningSlots_ += j.slots;
        for (std::size_t sh : j.shards)
            ++shardRefs_[sh];
    }
    j.rec.state = next.state;
    j.rec.detail = std::move(next.detail);
    j.rec.report = std::move(next.report);
    logEvent(event, &j, j.rec.detail);
    cv_.notify_all();
    if (leftRunning || j.rec.state == JobState::queued)
        admitLocked();
}

void
CampaignService::admitLocked()
{
    for (;;) {
        // The lowest-id queued job that fits the slot budget; an
        // oversized job runs alone rather than starving forever.
        Job *next = nullptr;
        for (auto &kv : jobs_) {
            Job &j = *kv.second;
            if (j.rec.state == JobState::queued &&
                (runningSlots_ == 0 ||
                 runningSlots_ + j.slots <= cfg_.workerSlots)) {
                next = &j;
                break;
            }
        }
        if (!next)
            return;
        setStateLocked(*next, JobState::running, "started");
        if (next->rec.state != JobState::running)
            continue; // its record could not be written: it failed
        try {
            next->thread = std::thread([this, next] { runJob(*next); });
        } catch (const std::system_error &e) {
            setStateLocked(*next, JobState::failed, "finished", e.what());
        }
    }
}

void
CampaignService::runJob(Job &j)
{
    JobState final = JobState::failed;
    std::string detail;
    std::string report;
    try {
        MaterializedJob mat;
        const JobSpec &spec = j.rec.spec;
        for (const JobWorkloadSpec &w : spec.workloads) {
            const WorkloadProfile prof =
                w.profile.empty()
                    ? tinyProfile(w.tinyInsts ? w.tinyInsts : 200'000,
                                  w.tinySeed ? w.tinySeed : 1)
                    : findProfile(w.profile);
            mat.programs.push_back(generateProgram(prof));
            CampaignWorkload cw;
            cw.name = w.shard;
            cw.prog = &mat.programs.back();
            cw.set = &set_;
            cw.shard = set_.find(w.shard);
            mat.workloads.push_back(cw);
        }
        for (const JobConfigSpec &c : spec.configs)
            mat.configs.push_back(materializeConfig(c));

        CampaignOptions &o = mat.opt;
        o.spec.level = spec.level;
        o.spec.relativeError = spec.relativeError;
        o.stopAtConfidence = spec.stopAtConfidence;
        o.approxWrongPath = spec.approxWrongPath;
        o.shuffleSeed = spec.shuffleSeed;
        o.threads = std::max(1u, spec.threads);
        o.decodeThreads = spec.decodeThreads;
        o.blockSize = static_cast<std::size_t>(spec.blockSize);
        o.maxFoldedReplays = spec.maxFoldedReplays;
        o.manifestPath = j.dir + "/manifest.lpcmf";
        // Concurrent jobs share shards through the service's
        // refcounts; a job must never unload a shard under another.
        o.unloadFinishedShards = false;
        o.control = &j.control;
        o.deadline = Deadline::inMs(spec.deadlineMs);
        // Cells another job already published resolve from the store
        // without replaying (bit-identical by the engine contract).
        o.resultStore = store_.get();

        CampaignEngine engine(mat.workloads, mat.configs, mat.opt);
        const CampaignResult res = engine.run();
        if (res.cancelled) {
            final = JobState::cancelled;
            detail = res.cancelReason;
        } else {
            final = JobState::done;
            report = engine.jsonReport(res);
            // Publish the finished cells so a re-submitted or widened
            // grid memoizes them; a failed save only costs the cache.
            const std::size_t published = engine.publish(res, *store_);
            try {
                store_->save();
                logEvent("published", &j,
                         strfmt("%zu records", published));
            } catch (const std::exception &e) {
                logEvent("store_save_failed", &j, e.what());
            }
        }
    } catch (const std::exception &e) {
        final = JobState::failed;
        detail = e.what();
    }
    // A crash before the record is written leaves `running` on disk,
    // and recovery runs the job again from its manifest.
    std::lock_guard<std::mutex> lk(m_);
    setStateLocked(j, final, "finished", std::move(detail),
                   std::move(report));
}

void
CampaignService::drain()
{
    shutdown(/*cancelRunning=*/false);
}

void
CampaignService::shutdown(bool cancelRunning)
{
    std::unique_lock<std::mutex> lk(m_);
    const bool first = !draining_;
    draining_ = true;
    if (cancelRunning) {
        for (auto &kv : jobs_) {
            Job &j = *kv.second;
            if (j.rec.state == JobState::queued) {
                try {
                    setStateLocked(j, JobState::cancelled, "cancelled",
                                   "service shutdown");
                    continue;
                } catch (const std::exception &) {
                    // Its record stays queued, so a restart runs it;
                    // should it start here, it stops at its first
                    // barrier.
                }
            }
            if (!jobStateTerminal(j.rec.state))
                j.control.cancel.requestCancel("service shutdown");
        }
    }
    cv_.wait(lk, [&] {
        for (const auto &kv : jobs_)
            if (!jobStateTerminal(kv.second->rec.state))
                return false;
        return true;
    });
    for (auto &kv : jobs_)
        if (kv.second->thread.joinable())
            kv.second->thread.join();
    if (first)
        logEvent("service_stop", nullptr, "");
}

} // namespace lp

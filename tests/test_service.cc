/**
 * The campaign service: protocol framing, the JobSpec and job record
 * codecs, job lifecycle over the in-process service (submit/status/
 * result/cancel/resume), admission control (each shard counted once),
 * the cancel/deadline matrix at threads 1/2/4 with resume
 * bit-identity, quarantined-shard degradation, a daemon+client socket
 * round trip with malformed requests answered by errors, a result
 * store that fails to load moved aside, recovery past an unreadable,
 * damaged or old-layout job directory, stop reasons kept across a
 * restart, record writes that fail at submit, cancel, resume and job
 * start, the daemon's retry-later path and stop(), and a fork-based
 * SIGKILL crash matrix: a daemon killed at successive barriers must
 * recover its jobs on restart and finish them bit-identical to
 * standalone runs.
 */

#include "test_util.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "core/campaign.hh"
#include "core/library_set.hh"
#include "codec/der.hh"
#include "core/replay.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "io/source.hh"
#include "svc/client.hh"
#include "svc/daemon.hh"
#include "svc/job.hh"
#include "svc/proto.hh"
#include "svc/service.hh"
#include "store/result_store.hh"
#include "util/bytes.hh"
#include "util/failpoint.hh"
#include "util/log.hh"
#include "util/rng.hh"

#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

namespace
{

using namespace lp;
using namespace lptest;

/** Arm one site programmatically. */
void
arm(const char *site, FailpointSpec::Trigger trig, std::uint64_t n,
    FailpointSpec::Action action, int err = EIO)
{
    FailpointSpec spec;
    spec.trigger = trig;
    spec.n = n;
    spec.action = action;
    spec.err = err;
    armFailpoint(site, spec);
}

/** The whole of @p path as text. */
std::string
readText(const std::string &path)
{
    const Blob data = readWholeFile(path, "test file");
    return std::string(data.begin(), data.end());
}

/** Every value of a repeated `"key": "..."` field, in report order. */
std::vector<std::string>
extractAll(const std::string &json, const std::string &key)
{
    const std::string needle = "\"" + key + "\": \"";
    std::vector<std::string> out;
    std::size_t pos = 0;
    while ((pos = json.find(needle, pos)) != std::string::npos) {
        pos += needle.size();
        const std::size_t end = json.find('"', pos);
        out.push_back(json.substr(pos, end - pos));
        pos = end;
    }
    return out;
}

/** Where specDer() writes one value the JobSpec codec does not expect. */
enum class Surplus
{
    none,
    workloadRow, //!< at the end of each workload row
    configRow,   //!< at the end of each config row
    budgetSlot,  //!< a 0 before deadlineMs: the previous release's layout
};

/** encodeJobSpec()'s layout, written out here with one @p surplus value. */
Blob
specDer(const JobSpec &spec, Surplus surplus)
{
    DerWriter w;
    w.beginSequence();
    w.putString(spec.name);
    w.beginSequence();
    for (const JobWorkloadSpec &wl : spec.workloads) {
        w.beginSequence();
        w.putString(wl.shard);
        w.putString(wl.profile);
        w.putUint(wl.tinyInsts);
        w.putUint(wl.tinySeed);
        if (surplus == Surplus::workloadRow)
            w.putUint(7);
        w.endSequence();
    }
    w.endSequence();
    w.beginSequence();
    for (const JobConfigSpec &c : spec.configs) {
        w.beginSequence();
        w.putString(c.preset);
        w.putString(c.name);
        w.putUint(c.memLatency);
        w.putUint(c.l2Latency);
        w.putUint(c.l2SizeBytes);
        if (surplus == Surplus::configRow)
            w.putUint(7);
        w.endSequence();
    }
    w.endSequence();
    w.putDouble(spec.level);
    w.putDouble(spec.relativeError);
    w.putUint(spec.stopAtConfidence ? 1 : 0);
    w.putUint(spec.approxWrongPath ? 1 : 0);
    w.putUint(spec.shuffleSeed);
    w.putUint(spec.threads);
    w.putUint(spec.decodeThreads);
    w.putUint(spec.blockSize);
    w.putUint(spec.maxFoldedReplays);
    if (surplus == Surplus::budgetSlot)
        w.putUint(0);
    w.putUint(spec.deadlineMs);
    w.endSequence();
    return w.finish();
}

/** "LPJOB1": the job record's magic. */
constexpr std::uint64_t kRecordMagic = 0x4c50'4a4f'4231ull;

/** What recordDer() writes; each field may hold what the codec rejects. */
struct RecordLayout
{
    std::uint64_t magic = kRecordMagic;
    std::uint64_t version = 1;
    Blob spec;         //!< the OCTET STRING's bytes
    std::string state; //!< any token
    std::string detail;
    std::string report;
    bool surplusInside = false; //!< one more value in the sequence
    bool surplusAfter = false;  //!< one more value after it
};

/** encodeJobRecord()'s layout, written out here and sealed. */
Blob
recordDer(const RecordLayout &r)
{
    DerWriter w;
    w.beginSequence();
    w.putUint(r.magic);
    w.putUint(r.version);
    w.putBytes(r.spec);
    w.putString(r.state);
    w.putString(r.detail);
    w.putString(r.report);
    if (r.surplusInside)
        w.putUint(7);
    w.endSequence();
    if (r.surplusAfter)
        w.putUint(7);
    Blob image = w.finish();
    appendChecksumFooter(image);
    return image;
}

/** True when decodeJobRecord() rejects @p image naming @p path. */
bool
recordRejected(const Blob &image, const std::string &path)
{
    try {
        decodeJobRecord(image, path);
    } catch (const IoError &e) {
        return std::string(e.what()).find("'" + path + "'") !=
               std::string::npos;
    }
    return false;
}

/** How many lines of @p log hold both @p a and @p b. */
std::size_t
countLines(const std::string &log, const std::string &a,
           const std::string &b)
{
    std::size_t n = 0, pos = 0;
    while (pos < log.size()) {
        std::size_t end = log.find('\n', pos);
        if (end == std::string::npos)
            end = log.size();
        const std::string line = log.substr(pos, end - pos);
        if (line.find(a) != std::string::npos &&
            line.find(b) != std::string::npos)
            ++n;
        pos = end + 1;
    }
    return n;
}

/** The standard two-workload, two-config job this suite submits. */
JobSpec
makeSpec(unsigned threads)
{
    JobSpec spec;
    spec.name = strfmt("t%u", threads);
    spec.workloads.push_back({"svc-a", "", 150'000, 40});
    spec.workloads.push_back({"svc-b", "", 150'000, 41});
    spec.configs.push_back({"eight", "", 0, 0, 0});
    spec.configs.push_back({"eight", "slow-mem", 400, 40, 0});
    spec.stopAtConfidence = false;
    spec.shuffleSeed = 3;
    spec.threads = threads;
    spec.blockSize = 4;
    return spec;
}

} // namespace

int
main()
{
    using namespace lp;
    using namespace lptest;

    setQuiet(true);
    const std::vector<CoreConfig> cfgs = {baseConfig(),
                                          slowMemConfig()};

    // ---- Fixtures: two shards and the standalone baseline ----------
    const TinyLib w0 = buildTinyLibrary("svc-a", 150'000, 40, 8, cfgs);
    const TinyLib w1 = buildTinyLibrary("svc-b", 150'000, 41, 8, cfgs);
    const std::string setDir = "svc-set";
    std::filesystem::remove_all(setDir);
    {
        LibrarySetWriter writer(setDir);
        writer.addShard("svc-a", w0.lib);
        writer.addShard("svc-b", w1.lib);
    }

    // The bit-identity reference: the same grid run standalone, with
    // exactly the options the service materializes from makeSpec().
    const std::vector<CampaignWorkload> grid{
        {"svc-a", &w0.prog, &w0.lib, nullptr, 0},
        {"svc-b", &w1.prog, &w1.lib, nullptr, 0},
    };
    CampaignOptions copt;
    copt.blockSize = 4;
    copt.shuffleSeed = 3;
    CampaignEngine baseEngine(grid, cfgs, copt);
    const CampaignResult baseline = baseEngine.run();
    CHECK_EQ(baseline.failedCells, 0u);
    const std::string baseReport = baseEngine.jsonReport(baseline);
    const std::vector<std::string> baseBits =
        extractAll(baseReport, "cpi_bits");
    CHECK_EQ(baseBits.size(), 4u);
    CHECK(baseReport.find("\"schema_version\": 4") !=
          std::string::npos);

    // ---- Protocol: JobSpec codec round trip ------------------------
    {
        JobSpec spec = makeSpec(2);
        spec.deadlineMs = 1234;
        spec.level = 0.95;
        const JobSpec back = decodeJobSpec(encodeJobSpec(spec));
        CHECK_EQ(back.name, spec.name);
        CHECK_EQ(back.workloads.size(), 2u);
        CHECK_EQ(back.workloads[1].shard, "svc-b");
        CHECK_EQ(back.workloads[1].tinySeed, 41u);
        CHECK_EQ(back.configs.size(), 2u);
        CHECK_EQ(back.configs[1].name, "slow-mem");
        CHECK_EQ(back.configs[1].memLatency, 400u);
        CHECK_NEAR(back.level, 0.95, 0.0);
        CHECK_EQ(back.threads, 2u);
        CHECK_EQ(back.blockSize, 4u);
        CHECK_EQ(back.deadlineMs, 1234u);
        CHECK(!back.stopAtConfidence);

        // A payload is exactly one spec in this layout: a value left
        // over anywhere is malformed, never ignored. The previous
        // release's layout (one more spec element, a resident-budget
        // slot before deadlineMs) must not decode its budget as the
        // deadline.
        CHECK(specDer(spec, Surplus::none) == encodeJobSpec(spec));
        for (const Surplus at : {Surplus::workloadRow, Surplus::configRow,
                                 Surplus::budgetSlot})
            CHECK_THROWS(decodeJobSpec(specDer(spec, at)));
        Blob trailing = encodeJobSpec(spec);
        trailing.push_back(0);
        CHECK_THROWS(decodeJobSpec(trailing));
    }

    // ---- The job record codec --------------------------------------
    // The record is one sealed DER sequence in this layout. Every
    // stored state round-trips; draining is never stored, and a bad
    // magic, version, spec or state, or a value left over anywhere,
    // is rejected with an error naming the file.
    {
        JobRecord rec;
        rec.spec = makeSpec(2);
        rec.spec.deadlineMs = 1234;
        rec.state = JobState::cancelled;
        rec.detail = "deadline expired";
        RecordLayout lay;
        lay.spec = encodeJobSpec(rec.spec);
        lay.state = "cancelled";
        lay.detail = rec.detail;
        CHECK(recordDer(lay) == encodeJobRecord(rec));
        for (const JobState st : {JobState::queued, JobState::running,
                                  JobState::done, JobState::failed,
                                  JobState::cancelled}) {
            rec.state = st;
            rec.report = st == JobState::done ? "{\"x\": 1}\n" : "";
            const JobRecord back =
                decodeJobRecord(encodeJobRecord(rec), "r.lpjob");
            CHECK(back.state == st);
            CHECK_EQ(back.detail, rec.detail);
            CHECK_EQ(back.report, rec.report);
            CHECK(encodeJobSpec(back.spec) == lay.spec);
        }

        const std::string path = "jobs/job-7/job.lpjob";
        std::vector<RecordLayout> bad(9, lay);
        bad[0].magic += 1;
        bad[1].version = 2;
        bad[2].state = "draining";
        bad[3].state = "dnoe";
        bad[4].state = "";
        bad[5].surplusInside = true;
        bad[6].surplusAfter = true;
        bad[7].spec = specDer(rec.spec, Surplus::budgetSlot);
        bad[8].spec.push_back(0);
        for (const RecordLayout &b : bad)
            CHECK(recordRejected(recordDer(b), path));
        Blob unsealed = recordDer(lay);
        unsealed.resize(unsealed.size() - checksumFooterBytes);
        CHECK(recordRejected(unsealed, path));
    }

    // ---- Protocol: frame integrity over a socketpair ---------------
    {
        int sp[2];
        CHECK_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
        const Blob payload = encodeJobSpec(makeSpec(1));
        sendFrame(sp[0], MsgType::submit, MsgStatus::ok, payload);
        Frame f;
        CHECK(recvFrame(sp[1], f));
        CHECK(f.type == MsgType::submit);
        CHECK(f.payload == payload);

        // A corrupted payload byte must fail the checksum, loudly.
        sendFrame(sp[0], MsgType::submit, MsgStatus::ok, payload);
        std::uint8_t hdr[32];
        CHECK_EQ(::read(sp[1], hdr, sizeof(hdr)),
                 static_cast<ssize_t>(sizeof(hdr)));
        Blob body(payload.size());
        CHECK_EQ(::read(sp[1], body.data(), body.size()),
                 static_cast<ssize_t>(body.size()));
        body[3] ^= 0x40;
        CHECK_EQ(::write(sp[0], hdr, sizeof(hdr)),
                 static_cast<ssize_t>(sizeof(hdr)));
        CHECK_EQ(::write(sp[0], body.data(), body.size()),
                 static_cast<ssize_t>(body.size()));
        CHECK_THROWS(recvFrame(sp[1], f));

        // Clean EOF at a frame boundary is a false return, not a
        // throw; EOF mid-frame is a torn frame.
        ::close(sp[0]);
        CHECK(!recvFrame(sp[1], f));
        ::close(sp[1]);
    }

    // ---- Lifecycle + bit-identity at threads 1/2/4 -----------------
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-basic";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        CampaignService svc(cfg);
        for (const unsigned threads : {1u, 2u, 4u}) {
            const SubmitOutcome out = svc.submit(makeSpec(threads));
            CHECK(out.accepted);
            CHECK(svc.waitForJob(out.id, 30'000));
            JobState state;
            std::string json;
            CHECK(svc.result(out.id, &state, &json));
            CHECK(state == JobState::done);
            CHECK(extractAll(json, "cpi_bits") == baseBits);
            CHECK(json.find("\"schema_version\": 4") !=
                  std::string::npos);
            CHECK(json.find("\"reason\": \"none\"") !=
                  std::string::npos);
            // The first run populates the service's result store;
            // identical resubmissions resolve every cell from it
            // (zero replays) with the same bits — the daemon-side
            // memoization contract at every thread count.
            if (threads == 1u) {
                CHECK(json.find("\"memoized_cells\": 0") !=
                      std::string::npos);
            } else {
                CHECK(json.find("\"memoized\": true") !=
                      std::string::npos);
                CHECK(json.find("\"memoized_cells\": 4") !=
                      std::string::npos);
                CHECK(json.find("\"replays_executed\": 0") !=
                      std::string::npos);
            }
        }

        // Unknown jobs and invalid specs are rejected loudly.
        CHECK(!svc.status(999).found);
        CHECK(!svc.cancel(999, "x"));
        JobSpec bad = makeSpec(1);
        bad.workloads[0].shard = "no-such-shard";
        CHECK(!svc.submit(bad).accepted);
        bad = makeSpec(1);
        bad.configs[0].preset = "mystery";
        CHECK(!svc.submit(bad).accepted);

        // Oversized jobs are turned away before admission, each with
        // an error naming what is over its cap (and no retry hint).
        // Only the rejections run here: no job that large starts.
        auto rejectedFor = [&](const JobSpec &spec, const char *what) {
            const SubmitOutcome r = svc.submit(spec);
            return !r.accepted && !r.retry &&
                   r.error.find(what) != std::string::npos;
        };
        bad = makeSpec(1);
        bad.configs.assign(maxReplayConfigs + 1, bad.configs[0]);
        CHECK(rejectedFor(bad, "too many configs"));
        bad = makeSpec(1);
        bad.threads = maxJobThreads + 1;
        CHECK(rejectedFor(bad, "threads"));
        bad = makeSpec(1);
        bad.decodeThreads = maxJobThreads + 1;
        CHECK(rejectedFor(bad, "decodeThreads"));
        bad = makeSpec(1);
        bad.workloads.assign(maxJobWorkloads + 1, bad.workloads[0]);
        CHECK(rejectedFor(bad, "too many workloads"));
        bad = makeSpec(1);
        bad.blockSize = maxJobBlockSize + 1;
        CHECK(rejectedFor(bad, "blockSize"));
        bad = makeSpec(1);
        bad.workloads[1].tinyInsts = maxJobTinyInsts + 1;
        CHECK(rejectedFor(bad, "tinyInsts"));
        const std::string longName(maxJobStringBytes + 1, 'x');
        bad = makeSpec(1);
        bad.name = longName;
        CHECK(rejectedFor(bad, "job name is"));
        bad = makeSpec(1);
        bad.workloads[1].shard = longName;
        CHECK(rejectedFor(bad, "shard name is"));
        bad = makeSpec(1);
        bad.workloads[1].profile = longName;
        CHECK(rejectedFor(bad, "profile name is"));
        bad = makeSpec(1);
        bad.configs[1].preset = longName;
        CHECK(rejectedFor(bad, "config preset is"));
        bad = makeSpec(1);
        bad.configs[1].name = longName;
        CHECK(rejectedFor(bad, "config name is"));

        // The repository benchmark's job shape — four configs, two
        // simulation threads, one decode producer, block 16 — is
        // still admitted and runs to completion.
        JobSpec bench = makeSpec(2);
        bench.decodeThreads = 1;
        bench.blockSize = 16;
        bench.configs.push_back({"eight", "mem-300", 300, 0, 0});
        bench.configs.push_back({"eight", "l2-512k", 0, 0, 512 * 1024});
        const SubmitOutcome ok = svc.submit(bench);
        CHECK(ok.accepted);
        CHECK(svc.waitForJob(ok.id, 30'000));
        JobState state;
        std::string json;
        CHECK(svc.result(ok.id, &state, &json));
        CHECK(state == JobState::done);
        CHECK(json.find("\"failed_cells\": 0") != std::string::npos);
        svc.drain();
    }

    // The repository benchmark's exact grid — three suite-profile
    // workloads named after their shards, its four configs, two
    // threads, one decode producer, block 16 — clears every cap:
    // against a set holding those shard names and a queue of depth 0,
    // submit gets as far as admission (a retry hint), so nothing is
    // built or run.
    {
        const std::string benchSet = "svc-set-bench";
        const char *const shards[] = {"eon-2", "gcc-2", "mcf"};
        std::filesystem::remove_all(benchSet);
        {
            LibrarySetWriter writer(benchSet);
            for (const char *shard : shards)
                writer.addShard(shard, w0.lib);
        }
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-bench";
        cfg.setDir = benchSet;
        cfg.maxQueueDepth = 0;
        std::filesystem::remove_all(cfg.jobsDir);
        {
            CampaignService svc(cfg);
            JobSpec grid;
            for (const char *shard : shards)
                grid.workloads.push_back({shard, shard, 0, 0});
            grid.configs = {{"eight", "eight", 0, 0, 0},
                            {"sixteen", "sixteen", 0, 0, 0},
                            {"eight", "eight-mem300", 300, 0, 0},
                            {"sixteen", "sixteen-l2-1m", 0, 0, 1ull << 20}};
            grid.threads = 2;
            grid.decodeThreads = 1;
            grid.blockSize = 16;
            const SubmitOutcome r = svc.submit(grid);
            CHECK(!r.accepted);
            CHECK(r.retry);
            svc.drain();
        }
        std::filesystem::remove_all(cfg.jobsDir);
        std::filesystem::remove_all(benchSet);
    }

    // ---- Admission: queue depth and resident budget ----------------
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-admit";
        cfg.setDir = setDir;
        cfg.workerSlots = 2; // one 2-thread job at a time
        cfg.maxQueueDepth = 1;
        std::filesystem::remove_all(cfg.jobsDir);
        CampaignService svc(cfg);
        // Park the first job so the schedule is deterministic: a runs
        // (parked), b queues, and the third submit must be turned
        // away with a retry hint.
        arm("replay.cell", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::hang);
        const SubmitOutcome a = svc.submit(makeSpec(2));
        CHECK(a.accepted);
        while (svc.status(a.id).state == JobState::queued)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        const SubmitOutcome b = svc.submit(makeSpec(2));
        CHECK(b.accepted);
        const SubmitOutcome c = svc.submit(makeSpec(2));
        CHECK(!c.accepted);
        CHECK(c.retry);
        CHECK(c.retryAfterMs > 0);
        disarmAllFailpoints();
        CHECK(svc.waitForJob(a.id, 30'000));
        CHECK(svc.waitForJob(b.id, 30'000));
        JobState state;
        std::string json;
        CHECK(svc.result(b.id, &state, &json));
        CHECK(state == JobState::done);
        CHECK(extractAll(json, "cpi_bits") == baseBits);
        svc.drain();
    }
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-resident";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        cfg.maxResidentBytes = 1; // any second job exceeds this
        std::filesystem::remove_all(cfg.jobsDir);
        CampaignService svc(cfg);
        // Park the first job so it stays resident for the check (the
        // hang releases when the site is disarmed, faulting nothing).
        arm("replay.cell", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::hang);
        const SubmitOutcome a = svc.submit(makeSpec(1));
        CHECK(a.accepted); // a lone job always runs, however large
        const SubmitOutcome b = svc.submit(makeSpec(1));
        CHECK(!b.accepted);
        CHECK(b.retry);
        disarmAllFailpoints();
        CHECK(svc.waitForJob(a.id, 30'000));
        JobState state;
        std::string json;
        CHECK(svc.result(a.id, &state, &json));
        CHECK(state == JobState::done);
        CHECK(extractAll(json, "cpi_bits") == baseBits);
        svc.drain();
    }

    // A job holds every shard it names until it finishes, but the
    // service maps a shard once however many jobs share it, so
    // admission counts each shard once. With the bound one byte short
    // of both fixture shards, a parked job over the larger shard
    // leaves room for a second job over that shard, none for a job
    // over the smaller one until the first two finish.
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-resident-shared";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::size_t larger = 0;
        {
            const LibrarySet set = LibrarySet::open(setDir);
            cfg.maxResidentBytes =
                set.fileBytes(0) + set.fileBytes(1) - 1;
            larger = set.fileBytes(1) > set.fileBytes(0) ? 1 : 0;
        }
        std::filesystem::remove_all(cfg.jobsDir);
        CampaignService svc(cfg);
        JobSpec big = makeSpec(1);
        big.workloads = {big.workloads[larger]};
        JobSpec small = makeSpec(1);
        small.workloads = {small.workloads[1 - larger]};
        arm("replay.cell", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::hang);
        const SubmitOutcome a = svc.submit(big);
        CHECK(a.accepted);
        const SubmitOutcome b = svc.submit(big);
        CHECK(b.accepted); // its shard is mapped already
        const SubmitOutcome c = svc.submit(small);
        CHECK(!c.accepted);
        CHECK(c.retry);
        CHECK(c.retryAfterMs > 0);
        disarmAllFailpoints();
        const std::vector<std::string> bigBits{baseBits[2 * larger],
                                               baseBits[2 * larger + 1]};
        for (const std::uint64_t id : {a.id, b.id}) {
            CHECK(svc.waitForJob(id, 30'000));
            JobState state;
            std::string json;
            CHECK(svc.result(id, &state, &json));
            CHECK(state == JobState::done);
            CHECK(extractAll(json, "cpi_bits") == bigBits);
        }
        // With both finished, their shard no longer counts.
        const SubmitOutcome d = svc.submit(small);
        CHECK(d.accepted);
        CHECK(svc.waitForJob(d.id, 30'000));
        svc.drain();
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- Cancel / deadline matrix at threads 1/2/4 -----------------
    // Park a worker mid-block, land the cancel (or let the deadline
    // lapse) while it is parked, release it: the run must stop at the
    // next barrier — a durable resume point — and resume() must carry
    // it to a final grid bit-identical to the standalone run.
    for (const unsigned threads : {1u, 2u, 4u}) {
        ServiceConfig cfg;
        cfg.jobsDir = strfmt("svc-jobs-cancel-%u", threads);
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        CampaignService svc(cfg);

        // Cancel leg.
        arm("replay.cell", FailpointSpec::Trigger::nth, 5,
            FailpointSpec::Action::hang);
        const SubmitOutcome out = svc.submit(makeSpec(threads));
        CHECK(out.accepted);
        while (svc.status(out.id).state == JobState::queued)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        CHECK(svc.cancel(out.id, "matrix cancel"));
        disarmAllFailpoints();
        CHECK(svc.waitForJob(out.id, 30'000));
        JobStatusInfo st = svc.status(out.id);
        CHECK(st.state == JobState::cancelled);
        CHECK(st.detail.find("matrix cancel") != std::string::npos);
        SubmitOutcome res = svc.resume(out.id);
        CHECK(res.accepted);
        CHECK(svc.waitForJob(out.id, 30'000));
        JobState state;
        std::string json;
        CHECK(svc.result(out.id, &state, &json));
        CHECK(state == JobState::done);
        CHECK(extractAll(json, "cpi_bits") == baseBits);

        // Deadline leg: the deadline lapses while the worker is
        // parked, so the stop is deterministic; each resume then has
        // a fresh budget and finishes the job. A fresh service (and
        // jobs dir) keeps its result store empty — the cancel leg's
        // completed job published this grid, and a memoized
        // resubmission would finish before any deadline could lapse.
        ServiceConfig dcfg = cfg;
        dcfg.jobsDir = strfmt("svc-jobs-deadline-%u", threads);
        std::filesystem::remove_all(dcfg.jobsDir);
        CampaignService dsvc(dcfg);
        arm("replay.cell", FailpointSpec::Trigger::nth, 5,
            FailpointSpec::Action::hang);
        JobSpec dspec = makeSpec(threads);
        dspec.deadlineMs = 100;
        const SubmitOutcome dout = dsvc.submit(dspec);
        CHECK(dout.accepted);
        while (dsvc.status(dout.id).state == JobState::queued)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        disarmAllFailpoints();
        CHECK(dsvc.waitForJob(dout.id, 30'000));
        st = dsvc.status(dout.id);
        CHECK(st.state == JobState::cancelled);
        CHECK(st.detail.find("deadline") != std::string::npos);
        // Every resume folds at least one more durable block, so the
        // job converges in a bounded number of rounds even against a
        // tight recurring deadline.
        int rounds = 0;
        while (dsvc.status(dout.id).state == JobState::cancelled &&
               rounds++ < 25) {
            CHECK(dsvc.resume(dout.id).accepted);
            CHECK(dsvc.waitForJob(dout.id, 30'000));
        }
        CHECK(dsvc.result(dout.id, &state, &json));
        CHECK(state == JobState::done);
        CHECK(extractAll(json, "cpi_bits") == baseBits);
        dsvc.drain();
        svc.drain();
        if (lpTestFailures)
            break;
    }

    // ---- Quarantined shards degrade, never abort -------------------
    {
        const std::string qDir = "svc-set-quarantine";
        std::filesystem::remove_all(qDir);
        {
            LibrarySetWriter writer(qDir);
            writer.addShard("svc-a", w0.lib);
            writer.addShard("svc-b", w1.lib);
        }
        // Tear svc-b's container: openRecover quarantines it.
        {
            LibrarySet probe = LibrarySet::open(qDir);
            const std::string path =
                probe.shardPath(probe.find("svc-b"));
            const auto size = std::filesystem::file_size(path);
            std::filesystem::resize_file(path, size / 2);
        }
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-quarantine";
        cfg.setDir = qDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        CampaignService svc(cfg);
        CHECK(svc.set().recovery().degraded);
        const SubmitOutcome out = svc.submit(makeSpec(2));
        CHECK(out.accepted);
        CHECK(svc.waitForJob(out.id, 30'000));
        JobState state;
        std::string json;
        CHECK(svc.result(out.id, &state, &json));
        CHECK(state == JobState::done);
        const std::vector<std::string> reasons =
            extractAll(json, "reason");
        const std::vector<std::string> bits =
            extractAll(json, "cpi_bits");
        CHECK_EQ(reasons.size(), 4u);
        // svc-a's cells (grid-major first) are healthy and
        // bit-identical; svc-b's carry the quarantine reason.
        CHECK_EQ(reasons[0], std::string("none"));
        CHECK_EQ(reasons[1], std::string("none"));
        CHECK_EQ(bits[0], baseBits[0]);
        CHECK_EQ(bits[1], baseBits[1]);
        CHECK_EQ(reasons[2], std::string("shard_quarantined"));
        CHECK_EQ(reasons[3], std::string("shard_quarantined"));
        svc.drain();
        std::filesystem::remove_all(qDir);
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- Daemon + client over the socket ---------------------------
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-daemon";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        const std::string sock = "svc-test.sock";
        SvcDaemon daemon(cfg, sock);
        std::thread server([&] { daemon.run(); });

        std::uint64_t jobId = 0;
        {
            SvcClient client(sock);
            const SvcReply sub = client.submit(makeSpec(2));
            CHECK(sub.ok);
            jobId = sub.id;
            const SvcReply fin = client.waitForJob(sub.id, 30'000);
            CHECK(fin.ok);
            CHECK_EQ(fin.state, std::string("done"));
            const SvcReply res = client.result(sub.id);
            CHECK(res.ok);
            CHECK(extractAll(res.resultJson, "cpi_bits") == baseBits);

            CHECK(!client.status(999).ok);
            CHECK(!client.cancel(999, "x").ok);
            JobSpec bad = makeSpec(1);
            bad.workloads[0].shard = "no-such-shard";
            CHECK(!client.submit(bad).ok);
        }

        // A request decodes whole: a value left over in its sequence,
        // or a byte after it, gets an error reply, and the connection
        // stays open for the next request, which is answered. The
        // daemon serves one connection at a time, so this raw one
        // opens after the client above has closed.
        {
            const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            CHECK(fd >= 0);
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, sock.c_str(),
                         sizeof(addr.sun_path) - 1);
            CHECK_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                               sizeof(addr)),
                     0);
            // @p type's request for the finished job, with one value
            // more when @p surplus.
            auto request = [jobId](MsgType type, bool surplus) {
                DerWriter w;
                w.beginSequence();
                if (type == MsgType::query) {
                    w.putString("");
                    w.putUint(0);
                } else {
                    w.putUint(jobId);
                }
                if (type == MsgType::cancel)
                    w.putString("x");
                if (surplus)
                    w.putUint(7);
                w.endSequence();
                return w.finish();
            };
            // Send one request and read its reply's status and, for
            // an error, its message.
            auto ask = [fd](MsgType type, const Blob &payload,
                            std::string *error) {
                sendFrame(fd, type, MsgStatus::ok, payload);
                Frame reply;
                if (!recvFrame(fd, reply) || reply.type != type)
                    return false;
                if (reply.status == MsgStatus::error) {
                    DerReader r(reply.payload);
                    *error = r.getSequence().getString();
                }
                return true;
            };
            for (const MsgType type :
                 {MsgType::status, MsgType::result, MsgType::cancel,
                  MsgType::query, MsgType::resume}) {
                Blob trailing = request(type, false);
                trailing.push_back(0);
                for (const Blob &bad : {request(type, true), trailing}) {
                    std::string error;
                    CHECK(ask(type, bad, &error));
                    CHECK(error.find("data left over") !=
                          std::string::npos);
                }
                // resume answers a finished job with an error of its
                // own; the other four answer ok.
                std::string error;
                CHECK(ask(type, request(type, false), &error));
                CHECK(type == MsgType::resume ? !error.empty()
                                              : error.empty());
                CHECK(error.find("left over") == std::string::npos);
            }
            ::close(fd);
        }

        CHECK(SvcClient(sock).drain().ok);
        server.join();
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- A store that fails to load is moved aside ----------------
    // The store is a regenerable cache. A file that does not load (one
    // in the retired LPRES1 layout, or random bytes) is renamed to
    // <path>.corrupt byte for byte, a result_store_corrupt event names
    // it, and the service starts empty; the next job publishes into a
    // fresh store that loads.
    {
        // The retired layout, as it stored an empty store: the 48-byte
        // header (magic "LPRES1\n\0", version 1, meta size, cell and
        // pair counts, the FNV-1a of those 40 bytes), the DER meta
        // (role, version, counts) and the checksum footer.
        DerWriter mw;
        mw.beginSequence();
        mw.putString("lp-result-store");
        mw.putUint(1);
        mw.putUint(0);
        mw.putUint(0);
        mw.endSequence();
        const Blob meta = mw.finish();
        Blob lpres1(48);
        std::memcpy(lpres1.data(), "LPRES1\n\0", 8);
        putU64le(lpres1.data() + 8, 1);
        putU64le(lpres1.data() + 16, meta.size());
        putU64le(lpres1.data() + 40, fnv1a(lpres1.data(), 40));
        lpres1.insert(lpres1.end(), meta.begin(), meta.end());
        appendChecksumFooter(lpres1);
        Rng rng(29, "svc-store-noise");
        Blob noise(4096);
        for (std::uint8_t &b : noise)
            b = static_cast<std::uint8_t>(rng.next());

        // The records the job publishes: the baseline's.
        ResultStore expected;
        baseEngine.publish(baseline, expected);
        CHECK_EQ(expected.cellCount(), 4u);

        int k = 0;
        for (const Blob *bad : {&lpres1, &noise}) {
            ServiceConfig cfg;
            cfg.jobsDir = strfmt("svc-jobs-store-%d", k++);
            cfg.setDir = setDir;
            cfg.workerSlots = 8;
            std::filesystem::remove_all(cfg.jobsDir);
            std::filesystem::create_directories(cfg.jobsDir);
            const std::string storePath = cfg.jobsDir + "/results.lpres";
            writeFileAtomic(storePath, bad->data(), bad->size(),
                            "result store");
            {
                CampaignService svc(cfg);
                const SubmitOutcome out = svc.submit(makeSpec(1));
                CHECK(out.accepted);
                CHECK(svc.waitForJob(out.id, 30'000));
                JobState state;
                std::string json;
                CHECK(svc.result(out.id, &state, &json));
                CHECK(state == JobState::done);
                CHECK(extractAll(json, "cpi_bits") == baseBits);
                svc.drain();
            }
            const std::string log =
                readText(cfg.jobsDir + "/service.jsonl");
            const std::size_t at =
                log.find("\"event\": \"result_store_corrupt\"");
            CHECK(at != std::string::npos);
            CHECK(log.find("'" + storePath + "'", at) !=
                  std::string::npos);
            const std::string aside = storePath + ".corrupt";
            CHECK(std::filesystem::exists(aside) &&
                  readWholeFile(aside, "test file") == *bad);
            ResultStore published;
            published.load(storePath);
            CHECK_EQ(published.cellCount(), expected.cellCount());
            CHECK_EQ(published.pairCount(), expected.pairCount());
            for (const CellRecord &want : expected.cells()) {
                CellRecord got;
                CHECK(published.find(want.key, &got));
                CHECK_EQ(got.cpiBits, want.cpiBits);
                CHECK_EQ(got.processed, want.processed);
            }
            std::filesystem::remove_all(cfg.jobsDir);
        }
    }

    // ---- Recovery past an unreadable job record --------------------
    // A record that exists but cannot be read skips that job with a
    // recover_skipped event naming the file, and leaves the file and
    // the job's id alone; the other jobs recover. The injected EIO
    // lands on job 3's record, which holds `done`.
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-recover";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        {
            CampaignService svc(cfg);
            for (int k = 0; k < 3; ++k) {
                const SubmitOutcome out = svc.submit(makeSpec(1));
                CHECK(out.accepted);
                CHECK(svc.waitForJob(out.id, 30'000));
            }
            svc.drain();
        }
        const std::string record3 = cfg.jobsDir + "/job-3/job.lpjob";
        const Blob done3 = readWholeFile(record3, "test file");
        CHECK(decodeJobRecord(done3, record3).state == JobState::done);

        // The reads a service makes before its first job record: count
        // them on an empty jobs directory with a never-firing arm.
        ServiceConfig empty = cfg;
        empty.jobsDir = "svc-jobs-recover-empty";
        std::filesystem::remove_all(empty.jobsDir);
        arm("io.open.read", FailpointSpec::Trigger::nth,
            ~std::uint64_t{0}, FailpointSpec::Action::error);
        std::uint64_t before = 0;
        {
            CampaignService probe(empty);
            before = failpointHits("io.open.read");
            probe.drain();
        }
        disarmAllFailpoints();
        std::filesystem::remove_all(empty.jobsDir);
        CHECK(before > 0);

        // One read per job: jobs 1 and 2, then job 3.
        arm("io.open.read", FailpointSpec::Trigger::nth, before + 3,
            FailpointSpec::Action::error, EIO);
        {
            CampaignService svc(cfg);
            disarmAllFailpoints();
            CHECK(svc.jobIds() == (std::vector<std::uint64_t>{1, 2}));
            for (const std::uint64_t id : svc.jobIds()) {
                JobState state;
                std::string json;
                CHECK(svc.result(id, &state, &json));
                CHECK(state == JobState::done);
                CHECK(extractAll(json, "cpi_bits") == baseBits);
            }
            const SubmitOutcome next = svc.submit(makeSpec(1));
            CHECK(next.accepted);
            CHECK_EQ(next.id, 4u);
            CHECK(svc.waitForJob(next.id, 30'000));
            svc.drain();
        }
        CHECK(readWholeFile(record3, "test file") == done3);
        const std::string log = readText(cfg.jobsDir + "/service.jsonl");
        CHECK_EQ(countLines(log, "\"event\": \"recover_skipped\"",
                            "'" + record3 + "'"),
                 1u);
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- Recovery past a job directory in the old layout -----------
    // Before the job record, a job lived in three files: `spec.der`,
    // a `state` token and `result.json`. Such a directory has no
    // record, so recovery skips it, leaves it byte for byte as it
    // was, and never reuses its id; resubmitting its spec memoizes
    // whatever cells it finished.
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-legacy";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        const std::string dir = cfg.jobsDir + "/job-1";
        std::filesystem::create_directories(dir);
        const Blob spec = encodeJobSpec(makeSpec(1));
        writeFileAtomic(dir + "/spec.der", spec.data(), spec.size(),
                        "job spec");
        const std::string running = "running\n";
        writeFileAtomic(
            dir + "/state",
            reinterpret_cast<const std::uint8_t *>(running.data()),
            running.size(), "job state");
        {
            CampaignService svc(cfg);
            CHECK(svc.jobIds().empty());
            const SubmitOutcome next = svc.submit(makeSpec(1));
            CHECK(next.accepted);
            CHECK_EQ(next.id, 2u);
            CHECK(svc.waitForJob(next.id, 30'000));
            svc.drain();
        }
        const std::string log = readText(cfg.jobsDir + "/service.jsonl");
        CHECK_EQ(countLines(log, "\"event\": \"recover_skipped\"",
                            "'" + dir + "/job.lpjob'"),
                 1u);
        CHECK(readWholeFile(dir + "/spec.der", "test file") == spec);
        CHECK_EQ(readText(dir + "/state"), running);
        std::size_t files = 0;
        for (const auto &e : std::filesystem::directory_iterator(dir)) {
            (void)e;
            ++files;
        }
        CHECK_EQ(files, 2u);
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- A job's directory and a damaged record --------------------
    // A finished job's directory holds its record and its manifest,
    // nothing else. Its record fails to decode at every truncation
    // and under every single-byte flip. A restart over a truncated or
    // flipped record, or over one resealed with an unknown state,
    // skips the job with recover_skipped naming the file: it leaves
    // the record and the manifest byte for byte as they were, never
    // runs the job again, and never reuses its id.
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-record";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        {
            CampaignService svc(cfg);
            const SubmitOutcome out = svc.submit(makeSpec(1));
            CHECK(out.accepted);
            CHECK_EQ(out.id, 1u);
            CHECK(svc.waitForJob(out.id, 30'000));
            svc.drain();
        }
        const std::string dir = cfg.jobsDir + "/job-1";
        std::set<std::string> names;
        for (const auto &e : std::filesystem::directory_iterator(dir))
            names.insert(e.path().filename().string());
        CHECK(names ==
              (std::set<std::string>{"job.lpjob", "manifest.lpcmf"}));
        const std::string path = dir + "/job.lpjob";
        const std::string manifest = dir + "/manifest.lpcmf";
        const Blob good = readWholeFile(path, "test file");
        const Blob goodManifest = readWholeFile(manifest, "test file");
        const JobRecord rec = decodeJobRecord(good, path);
        CHECK(rec.state == JobState::done);
        CHECK(rec.detail.empty());
        CHECK(extractAll(rec.report, "cpi_bits") == baseBits);

        std::size_t accepted = 0;
        for (std::size_t n = 0; n < good.size(); ++n) {
            if (!recordRejected(Blob(good.begin(), good.begin() + n), path))
                ++accepted;
            for (const std::uint8_t mask : {0x01, 0x80, 0xff}) {
                Blob flipped = good;
                flipped[n] ^= mask;
                if (!recordRejected(flipped, path))
                    ++accepted;
            }
        }
        CHECK_EQ(accepted, 0u);

        RecordLayout dnoe;
        dnoe.spec = encodeJobSpec(rec.spec);
        dnoe.state = "done";
        dnoe.report = rec.report;
        CHECK(recordDer(dnoe) == good);
        dnoe.state = "dnoe";
        Blob flipped = good;
        flipped[good.size() / 2] ^= 0x01;
        const std::vector<Blob> damaged = {
            Blob(good.begin(), good.begin() + good.size() / 2), flipped,
            recordDer(dnoe)};
        std::uint64_t lastId = 1;
        for (const Blob &bad : damaged) {
            writeFileAtomic(path, bad.data(), bad.size(), "test record");
            {
                CampaignService svc(cfg);
                const std::vector<std::uint64_t> ids = svc.jobIds();
                CHECK(std::find(ids.begin(), ids.end(), 1u) == ids.end());
                const SubmitOutcome next = svc.submit(makeSpec(1));
                CHECK(next.accepted);
                CHECK_EQ(next.id, lastId + 1);
                lastId = next.id;
                CHECK(svc.waitForJob(next.id, 30'000));
                svc.drain();
            }
            CHECK(readWholeFile(path, "test file") == bad);
            CHECK(readWholeFile(manifest, "test file") == goodManifest);
        }
        const std::string log = readText(cfg.jobsDir + "/service.jsonl");
        CHECK_EQ(countLines(log, "\"event\": \"recover_skipped\"",
                            "'" + path + "'"),
                 damaged.size());
        CHECK_EQ(countLines(log, "unknown state 'dnoe'", path), 1u);
        CHECK_EQ(countLines(log, "\"event\": \"started\"",
                            "\"job\": 1,"),
                 1u);
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- A stopped job keeps its reason across a restart -----------
    // A deadline-cancelled job answers `deadline expired` before and
    // after a restart. Shutdown cancels a queued job (logging
    // `cancelled`) and drains a running one, each with the reason
    // `service shutdown`; after the restart all three resume to the
    // baseline's bits.
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-reason";
        cfg.setDir = setDir;
        cfg.workerSlots = 1;
        std::filesystem::remove_all(cfg.jobsDir);
        auto svc = std::make_unique<CampaignService>(cfg);
        arm("replay.cell", FailpointSpec::Trigger::nth, 5,
            FailpointSpec::Action::hang);
        JobSpec dspec = makeSpec(1);
        dspec.deadlineMs = 100;
        const SubmitOutcome a = svc->submit(dspec);
        CHECK(a.accepted);
        std::this_thread::sleep_for(std::chrono::milliseconds(150));
        disarmAllFailpoints();
        CHECK(svc->waitForJob(a.id, 30'000));
        JobStatusInfo st = svc->status(a.id);
        CHECK(st.state == JobState::cancelled);
        CHECK_EQ(st.detail, std::string("deadline expired"));

        arm("replay.cell", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::hang);
        const SubmitOutcome b = svc->submit(makeSpec(1)); // parks
        const SubmitOutcome c = svc->submit(makeSpec(1)); // queues
        CHECK(b.accepted && c.accepted);
        CHECK(svc->status(b.id).state == JobState::running);
        CHECK(svc->status(c.id).state == JobState::queued);
        // The destructor cancels c and asks b to stop before it waits
        // for b, which stays parked until the site is disarmed.
        std::thread closer([&svc] { svc.reset(); });
        const std::string logPath = cfg.jobsDir + "/service.jsonl";
        const std::string cancelledC =
            strfmt("\"event\": \"cancelled\", \"job\": %llu,",
                   static_cast<unsigned long long>(c.id));
        while (readText(logPath).find(cancelledC) == std::string::npos)
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        disarmAllFailpoints();
        closer.join();
        CHECK_EQ(countLines(readText(logPath), cancelledC,
                            "service shutdown"),
                 1u);

        CampaignService again(cfg);
        const std::pair<std::uint64_t, const char *> reasons[] = {
            {a.id, "deadline expired"},
            {b.id, "service shutdown"},
            {c.id, "service shutdown"}};
        for (const auto &[id, why] : reasons) {
            st = again.status(id);
            CHECK(st.state == JobState::cancelled);
            CHECK_EQ(st.detail, std::string(why));
            JobState state;
            std::string json;
            CHECK(again.result(id, &state, &json));
            CHECK_EQ(json, std::string(why));
        }
        for (const auto &[id, why] : reasons) {
            (void)why;
            // a's 100 ms deadline starts over at each resume, and every
            // resume folds at least one more durable block.
            for (int rounds = 0;
                 again.status(id).state == JobState::cancelled &&
                 rounds < 25;
                 ++rounds) {
                CHECK(again.resume(id).accepted);
                CHECK(again.waitForJob(id, 30'000));
            }
            JobState state;
            std::string json;
            CHECK(again.result(id, &state, &json));
            CHECK(state == JobState::done);
            CHECK(extractAll(json, "cpi_bits") == baseBits);
        }
        again.drain();
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- A record that cannot be written ---------------------------
    // At submit, no job exists: the client gets the error and a
    // restart runs nothing. At cancel or resume, the job stays as it
    // was and the caller gets the error. At job start, the job fails
    // with the error as its detail and the service keeps serving; its
    // record still says queued, so a restart runs it to the
    // baseline's bits. (A job's record is the only file written
    // between a submit and the job's first barrier, so the record's
    // writes are the rename site's first hits.)
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-write";
        cfg.setDir = setDir;
        cfg.workerSlots = 1;
        std::filesystem::remove_all(cfg.jobsDir);
        {
            CampaignService svc(cfg);
            arm("io.rename", FailpointSpec::Trigger::nth, 1,
                FailpointSpec::Action::error, EIO);
            const SubmitOutcome r = svc.submit(makeSpec(1));
            disarmAllFailpoints();
            CHECK(!r.accepted);
            CHECK(!r.retry);
            CHECK(r.error.find("job record") != std::string::npos);
            CHECK(svc.jobIds().empty());
            CHECK(!std::filesystem::exists(cfg.jobsDir + "/job-1"));
            svc.drain();
        }
        std::uint64_t failedStart = 0, parked = 0, queued = 0;
        {
            CampaignService svc(cfg);
            CHECK(svc.jobIds().empty());

            arm("io.rename", FailpointSpec::Trigger::nth, 2,
                FailpointSpec::Action::error, EIO);
            const SubmitOutcome s = svc.submit(makeSpec(1));
            disarmAllFailpoints();
            CHECK(s.accepted);
            failedStart = s.id;
            JobStatusInfo st = svc.status(s.id);
            CHECK(st.state == JobState::failed);
            CHECK(st.detail.find("job record") != std::string::npos);
            CHECK(st.detail.find("Input/output error") != std::string::npos);

            arm("replay.cell", FailpointSpec::Trigger::nth, 1,
                FailpointSpec::Action::hang);
            const SubmitOutcome p = svc.submit(makeSpec(1)); // parks
            const SubmitOutcome q = svc.submit(makeSpec(1)); // queues
            CHECK(p.accepted && q.accepted);
            parked = p.id;
            queued = q.id;
            CHECK(svc.status(q.id).state == JobState::queued);
            arm("io.rename", FailpointSpec::Trigger::nth, 1,
                FailpointSpec::Action::error, EIO);
            CHECK_THROWS(svc.cancel(q.id, "why"));
            disarmFailpoint("io.rename");
            st = svc.status(q.id);
            CHECK(st.state == JobState::queued);
            CHECK(st.detail.empty());
            CHECK(svc.cancel(q.id, "why"));
            arm("io.rename", FailpointSpec::Trigger::nth, 1,
                FailpointSpec::Action::error, EIO);
            const SubmitOutcome rr = svc.resume(q.id);
            disarmFailpoint("io.rename");
            CHECK(!rr.accepted);
            CHECK(rr.error.find("job record") != std::string::npos);
            st = svc.status(q.id);
            CHECK(st.state == JobState::cancelled);
            CHECK_EQ(st.detail, std::string("why"));
            disarmAllFailpoints();
            CHECK(svc.resume(q.id).accepted);
            for (const std::uint64_t id : {p.id, q.id}) {
                CHECK(svc.waitForJob(id, 30'000));
                JobState state;
                std::string json;
                CHECK(svc.result(id, &state, &json));
                CHECK(state == JobState::done);
                CHECK(extractAll(json, "cpi_bits") == baseBits);
            }
            svc.drain();
        }
        {
            CampaignService svc(cfg);
            CHECK(svc.jobIds() == (std::vector<std::uint64_t>{
                                      failedStart, parked, queued}));
            CHECK(svc.waitForJob(failedStart, 30'000));
            JobState state;
            std::string json;
            CHECK(svc.result(failedStart, &state, &json));
            CHECK(state == JobState::done);
            CHECK(extractAll(json, "cpi_bits") == baseBits);
            svc.drain();
        }
        const std::string log = readText(cfg.jobsDir + "/service.jsonl");
        CHECK_EQ(countLines(log, "\"event\": \"recovered\"", "\"job\": "),
                 1u);
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- Daemon: retry-later over the socket, and stop() -----------
    // One job's threads fill the slot budget and one queued job fills
    // the queue, so a third submit is turned away: submitWithRetry
    // with two retries sleeps the daemon's 250 ms hint twice and
    // returns the retry. Once the parked job is released, a default
    // submitWithRetry is accepted and all three jobs finish with the
    // baseline's bits. A cancel whose record write fails gets an error
    // reply. stop() from this thread makes run() return, and the
    // daemon removes its socket file. The daemon serves one
    // connection at a time, so one client is open at a time.
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-retry";
        cfg.setDir = setDir;
        cfg.workerSlots = 2;
        cfg.maxQueueDepth = 1;
        std::filesystem::remove_all(cfg.jobsDir);
        const std::string sock = "svc-retry.sock";
        auto daemon = std::make_unique<SvcDaemon>(cfg, sock);
        std::thread server([&daemon] { daemon->run(); });
        {
            SvcClient client(sock);
            arm("replay.cell", FailpointSpec::Trigger::nth, 1,
                FailpointSpec::Action::hang);
            const SvcReply a = client.submit(makeSpec(2)); // parks
            const SvcReply b = client.submit(makeSpec(2)); // queues
            CHECK(a.ok && b.ok);
            RetryPolicy twice;
            twice.attempts = 2;
            const auto t0 = std::chrono::steady_clock::now();
            const SvcReply c = client.submitWithRetry(makeSpec(2), twice);
            const auto waited = std::chrono::steady_clock::now() - t0;
            CHECK(!c.ok);
            CHECK(c.retry);
            CHECK_EQ(c.retryAfterMs, 250u);
            CHECK(waited >= std::chrono::milliseconds(500));
            // A cancel whose record cannot be written is answered with
            // the error, over a connection that stays open, and the
            // job stays queued.
            arm("io.rename", FailpointSpec::Trigger::nth, 1,
                FailpointSpec::Action::error, EIO);
            const SvcReply failed = client.cancel(b.id, "why");
            disarmFailpoint("io.rename");
            CHECK(!failed.ok);
            CHECK(failed.detail.find("job record") != std::string::npos);
            CHECK_EQ(client.status(b.id).state, std::string("queued"));
            disarmAllFailpoints();
            const SvcReply d = client.submitWithRetry(makeSpec(2));
            CHECK(d.ok);
            for (const std::uint64_t id : {a.id, b.id, d.id}) {
                const SvcReply fin = client.waitForJob(id, 30'000);
                CHECK_EQ(fin.state, std::string("done"));
                const SvcReply res = client.result(id);
                CHECK(extractAll(res.resultJson, "cpi_bits") == baseBits);
            }
        }
        daemon->stop();
        server.join();
        daemon.reset();
        CHECK(!std::filesystem::exists(sock));
        std::filesystem::remove_all(cfg.jobsDir);
    }

    // ---- The SIGKILL crash matrix ----------------------------------
    // A child daemon (in-process service: the kill semantics are the
    // process's, not the socket's) arms a crash failpoint at its
    // j-th new barrier and dies there mid-flight with >= 2 concurrent
    // jobs; each restart recovers the job directories, resumes every
    // manifest, and the eventually-completed results must be
    // bit-identical to the standalone grid. The first incarnation
    // parks the first replay of either job, submits both jobs, arms
    // the crash and only then releases the parked replay: no crash
    // can land between the two submits, and the parked job meets
    // every one of its barriers armed, however late the arm runs. A
    // restart arms before its service recovers and resumes the job
    // directories.
    {
        ServiceConfig cfg;
        cfg.jobsDir = "svc-jobs-crash";
        cfg.setDir = setDir;
        cfg.workerSlots = 8;
        std::filesystem::remove_all(cfg.jobsDir);
        int crashes = 0;
        bool completed = false;
        // hit >= 2 guarantees >= 1 new durable barrier per attempt,
        // so the loop makes progress no matter where the site sits
        // relative to the manifest write.
        for (std::uint64_t hit = 2; hit <= 24 && !completed; ++hit) {
            const bool firstIncarnation = hit == 2;
            std::fflush(stdout);
            std::fflush(stderr);
            const pid_t pid = ::fork();
            CHECK(pid >= 0);
            if (pid == 0) {
                // Child: exit codes only — never return into the
                // parent's harness.
                auto armCrash = [hit] {
                    arm("campaign.barrier", FailpointSpec::Trigger::nth,
                        hit, FailpointSpec::Action::crash);
                };
                if (firstIncarnation)
                    arm("replay.cell", FailpointSpec::Trigger::nth, 1,
                        FailpointSpec::Action::hang);
                else
                    armCrash();
                try {
                    CampaignService svc(cfg);
                    if (firstIncarnation) {
                        if (!svc.submit(makeSpec(2)).accepted ||
                            !svc.submit(makeSpec(2)).accepted)
                            ::_exit(99);
                        armCrash();
                        disarmFailpoint("replay.cell");
                    }
                    for (const std::uint64_t id : svc.jobIds())
                        svc.waitForJob(id);
                    for (const std::uint64_t id : svc.jobIds()) {
                        JobState state;
                        std::string json;
                        if (!svc.result(id, &state, &json) ||
                            state != JobState::done)
                            ::_exit(98);
                    }
                    svc.drain();
                } catch (...) {
                    ::_exit(99);
                }
                ::_exit(0);
            }
            int status = 0;
            CHECK_EQ(::waitpid(pid, &status, 0), pid);
            CHECK(WIFEXITED(status));
            const int code =
                WIFEXITED(status) ? WEXITSTATUS(status) : -1;
            CHECK(code == failpointCrashStatus || code == 0);
            if (code == failpointCrashStatus)
                ++crashes;
            else if (code == 0)
                completed = true;
            else
                break;
        }
        CHECK(crashes > 0);
        CHECK(completed);

        // The surviving directories recover as terminal results.
        CampaignService svc(cfg);
        const std::vector<std::uint64_t> ids = svc.jobIds();
        CHECK(ids.size() >= 2u);
        for (const std::uint64_t id : ids) {
            JobState state;
            std::string json;
            CHECK(svc.result(id, &state, &json));
            CHECK(state == JobState::done);
            CHECK(extractAll(json, "cpi_bits") == baseBits);
        }
        svc.drain();
        std::filesystem::remove_all(cfg.jobsDir);
    }

    for (const char *dir :
         {"svc-jobs-basic", "svc-jobs-admit", "svc-jobs-resident",
          "svc-jobs-cancel-1", "svc-jobs-cancel-2",
          "svc-jobs-cancel-4", "svc-jobs-deadline-1",
          "svc-jobs-deadline-2", "svc-jobs-deadline-4"})
        std::filesystem::remove_all(dir);
    std::filesystem::remove_all(setDir);
    std::filesystem::remove("svc-test.sock");
    return TEST_MAIN_RESULT();
}

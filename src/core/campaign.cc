#include "core/campaign.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <stdexcept>

#include "core/replay.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "io/source.hh"
#include "store/result_store.hh"
#include "util/failpoint.hh"
#include "util/log.hh"
#include "util/threadpool.hh"

namespace lp
{

namespace
{

using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kManifestMagic = 0x4c50'434d'4631ull; // LPCMF1
constexpr std::uint64_t kManifestVersion = 1;

/**
 * A manifest write failure. Distinct from replay faults so run()'s
 * per-workload containment can rethrow it: a campaign that cannot
 * checkpoint must abort loudly, not keep replaying undurably.
 */
struct ManifestWriteError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

double
seconds(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

const char *
cellFailReasonToken(CellFailReason r)
{
    switch (r) {
    case CellFailReason::shardQuarantined:
        return "shard_quarantined";
    case CellFailReason::shardUnavailable:
        return "shard_unavailable";
    case CellFailReason::replayFault:
        return "replay_fault";
    case CellFailReason::staleFoldState:
        return "stale_fold_state";
    case CellFailReason::none:
    default:
        return "none";
    }
}

const CampaignPair *
CampaignResult::pair(std::size_t workload, std::size_t base,
                     std::size_t test) const
{
    for (const CampaignPair &p : pairs) {
        if (p.workload != workload)
            continue;
        if (p.base == base && p.test == test)
            return &p;
    }
    return nullptr;
}

/**
 * The checkpoint image: per workload, the fold frontier and every
 * cell's and pair's accumulator state. Restoring a stat and folding
 * onward is arithmetically identical to never having stopped, which
 * is what makes resume exact.
 */
struct CampaignEngine::Manifest
{
    struct Cell
    {
        std::uint64_t processed = 0;
        bool converged = false;
        std::uint64_t unavailable = 0;
        RunningStat stat;
    };

    struct Workload
    {
        std::uint64_t frontier = 0; //!< points folded so far
        std::vector<Cell> cells;
        std::vector<RunningStat> pairs; //!< delta stats, (a<b) order
    };

    std::vector<Workload> workloads;
    bool restored = false; //!< loaded from disk (a resume)
};

CampaignEngine::CampaignEngine(std::vector<CampaignWorkload> workloads,
                               std::vector<CoreConfig> configs,
                               const CampaignOptions &opt)
    : workloads_(std::move(workloads)), configs_(std::move(configs)),
      opt_(opt),
      blockSize_(opt.blockSize ? opt.blockSize : defaultFoldBlock)
{
    if (workloads_.empty())
        throw std::invalid_argument("campaign: no workloads");
    if (configs_.empty())
        throw std::invalid_argument("campaign: no configurations");
    if (configs_.size() > maxReplayConfigs)
        throw std::invalid_argument(
            "campaign: too many configurations for one decode fan-out");
    for (const CampaignWorkload &w : workloads_) {
        if (!w.prog || (!w.lib && !w.set))
            throw std::invalid_argument(
                strfmt("campaign: workload '%s' has no program or "
                       "library",
                       w.name.c_str()));
        if (!w.lib && w.shard >= w.set->size())
            throw std::invalid_argument(
                strfmt("campaign: workload '%s' references shard %zu "
                       "of a %zu-shard set",
                       w.name.c_str(), w.shard, w.set->size()));
    }
    digests_.reserve(configs_.size());
    for (const CoreConfig &c : configs_)
        digests_.push_back(configDigest(c));
    // Hashing a resident library touches every record byte; the
    // manifest writes at every block barrier, so pay the scan once up
    // front. Set-backed workloads read the hash (and point count)
    // from the set index instead — no shard is opened here.
    libHashes_.reserve(workloads_.size());
    libSizes_.reserve(workloads_.size());
    for (const CampaignWorkload &w : workloads_) {
        libHashes_.push_back(w.lib ? w.lib->contentHash()
                                   : w.set->contentHash(w.shard));
        libSizes_.push_back(w.lib ? w.lib->size()
                                  : w.set->points(w.shard));
    }
}

void
CampaignEngine::saveManifest(const Manifest &m) const
{
    // The per-barrier site: `crash` here kills the campaign at a
    // block barrier before any checkpoint bytes move — the coarsest
    // point in the crash matrix.
    if (failpointsArmed()) {
        const FailpointOutcome o = failpointFire("campaign.barrier");
        if (o.fail)
            throw ManifestWriteError(
                ioErrorMsg("checkpoint", "campaign manifest",
                           opt_.manifestPath, o.err));
    }
    DerWriter w;
    w.beginSequence();
    w.putUint(kManifestMagic);
    w.putUint(kManifestVersion);
    w.putUint(opt_.shuffleSeed);
    w.putUint(blockSize_);
    w.putUint(doubleBits(opt_.spec.level));
    w.putUint(doubleBits(opt_.spec.relativeError));
    w.putUint(opt_.stopAtConfidence ? 1 : 0);
    w.putUint(opt_.approxWrongPath ? 1 : 0);
    w.putUint(workloads_.size());
    w.putUint(configs_.size());
    w.beginSequence();
    for (const std::uint64_t d : digests_)
        w.putUint(d);
    w.endSequence();
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
        const Manifest::Workload &mw = m.workloads[i];
        w.beginSequence();
        w.putString(workloads_[i].name);
        w.putUint(libHashes_[i]);
        w.putUint(libSizes_[i]);
        w.putUint(mw.frontier);
        for (const Manifest::Cell &c : mw.cells) {
            w.beginSequence();
            w.putUint(c.processed);
            w.putUint(c.converged ? 1 : 0);
            w.putUint(c.unavailable);
            putFoldState(w, c.stat.state());
            w.endSequence();
        }
        for (const RunningStat &p : mw.pairs)
            putFoldState(w, p.state());
        w.endSequence();
    }
    w.endSequence();
    Blob image = w.finish();
    appendChecksumFooter(image);

    // The whole file is replaced at every barrier (temp, fsync,
    // rename, directory fsync), so a crash leaves either the previous
    // checkpoint or this one. Each of those system calls retries its
    // own transient errors.
    try {
        writeFileAtomic(opt_.manifestPath, image.data(), image.size(),
                        "campaign manifest");
    } catch (const IoError &e) {
        throw ManifestWriteError(e.what());
    }
}

CampaignEngine::Manifest
CampaignEngine::loadManifest() const
{
    const std::size_t numPairs =
        configs_.size() * (configs_.size() - 1) / 2;
    Manifest m;
    m.workloads.resize(workloads_.size());
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
        m.workloads[i].cells.resize(configs_.size());
        m.workloads[i].pairs.resize(numPairs);
    }
    if (opt_.manifestPath.empty())
        return m;

    Blob data;
    try {
        data = readWholeFile(opt_.manifestPath, "campaign manifest");
    } catch (const IoError &e) {
        if (e.errnum() == ENOENT)
            return m; // no manifest yet: a fresh campaign
        throw;
    }

    // Every write replaces the whole file atomically, so a crash never
    // leaves a torn manifest: a file without an intact footer was
    // damaged from outside, or is some other file. Either way it is
    // rejected and left as it is.
    std::size_t payloadSize = 0;
    if (!checksummedPayload(data.data(), data.size(), &payloadSize))
        throw std::runtime_error(
            strfmt("campaign: '%s' is not a campaign manifest (torn "
                   "or corrupt)",
                   opt_.manifestPath.c_str()));

    auto mismatch = [this](const char *what) {
        return std::runtime_error(
            strfmt("campaign: manifest '%s' belongs to a different "
                   "campaign (%s changed); delete it to start over",
                   opt_.manifestPath.c_str(), what));
    };

    // The manifest is exactly one image in this layout: a value left
    // over anywhere is damage, never ignored.
    auto expectEnd = [this](const DerReader &r, const char *where) {
        if (!r.atEnd())
            throw std::runtime_error(
                strfmt("campaign: manifest '%s' has data left over in "
                       "%s",
                       opt_.manifestPath.c_str(), where));
    };

    DerReader top(ByteSpan(data.data(), payloadSize));
    DerReader seq = top.getSequence();
    if (seq.getUint() != kManifestMagic ||
        seq.getUint() != kManifestVersion)
        throw mismatch("format");
    if (seq.getUint() != opt_.shuffleSeed)
        throw mismatch("shuffle seed");
    if (seq.getUint() != blockSize_)
        throw mismatch("block size");
    if (seq.getUint() != doubleBits(opt_.spec.level) ||
        seq.getUint() != doubleBits(opt_.spec.relativeError))
        throw mismatch("confidence spec");
    if (seq.getUint() != (opt_.stopAtConfidence ? 1u : 0u))
        throw mismatch("stopping mode");
    if (seq.getUint() != (opt_.approxWrongPath ? 1u : 0u))
        throw mismatch("wrong-path mode");
    if (seq.getUint() != workloads_.size() ||
        seq.getUint() != configs_.size())
        throw mismatch("grid shape");
    {
        DerReader ds = seq.getSequence();
        for (const std::uint64_t d : digests_)
            if (ds.getUint() != d)
                throw mismatch("configuration");
        expectEnd(ds, "the config digests");
    }
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
        Manifest::Workload &mw = m.workloads[i];
        DerReader ws = seq.getSequence();
        if (ws.getString() != workloads_[i].name)
            throw mismatch("workload name");
        // A quarantined shard recovered by an index rescan has no
        // trusted hash (0): accept the manifest's record — its cells
        // are failed-with-reason and never folded further.
        const std::uint64_t hash = ws.getUint();
        const std::uint64_t size = ws.getUint();
        if (libHashes_[i] != 0 && hash != libHashes_[i])
            throw mismatch("library content");
        if (libHashes_[i] != 0 && size != libSizes_[i])
            throw mismatch("library size");
        mw.frontier = ws.getUint();
        for (Manifest::Cell &c : mw.cells) {
            DerReader cs = ws.getSequence();
            c.processed = cs.getUint();
            c.converged = cs.getUint() != 0;
            c.unavailable = cs.getUint();
            c.stat = RunningStat::fromState(getFoldState(cs));
            expectEnd(cs, "a cell record");
        }
        for (RunningStat &p : mw.pairs)
            p = RunningStat::fromState(getFoldState(ws));
        expectEnd(ws, "a workload record");
    }
    expectEnd(seq, "the manifest");
    expectEnd(top, "the file");
    m.restored = true;
    return m;
}

CampaignResult
CampaignEngine::run()
{
    const auto t0 = Clock::now();
    const std::size_t nc = configs_.size();
    const std::size_t numPairs = nc * (nc - 1) / 2;
    auto pairIndex = [nc](std::size_t a, std::size_t b) {
        // (a < b) pairs in lexicographic order.
        return a * nc - a * (a + 1) / 2 + (b - a - 1);
    };

    Manifest m = loadManifest();

    // Result-store memoization: resolve every cell whose full replay
    // identity the store already holds, before any shard opens or
    // worker starts. Memoized cells never become active, stay out of
    // the manifest and the replay budget, and a workload whose cells
    // all resolve never opens its shard at all — O(lookup) instead
    // of O(replay).
    std::vector<char> memoHit(workloads_.size() * nc, 0);
    std::vector<CellRecord> memoRec(workloads_.size() * nc);
    if (opt_.resultStore) {
        for (std::size_t w = 0; w < workloads_.size(); ++w) {
            if (libHashes_[w] == 0)
                continue; // recovered shard: hash untrusted
            for (std::size_t c = 0; c < nc; ++c) {
                CellRecord rec;
                if (!opt_.resultStore->find(cellKey(w, c), &rec))
                    continue;
                if (rec.libPoints != libSizes_[w])
                    continue; // stale record
                memoHit[w * nc + c] = 1;
                memoRec[w * nc + c] = rec;
            }
        }
    }

    CampaignResult res;
    res.cells.resize(workloads_.size() * nc);
    res.pairs.reserve(workloads_.size() * numPairs);

    ReplayEngineOptions ropt;
    ropt.threads = std::max(opt_.threads, 1u);
    ropt.decodeThreads = opt_.decodeThreads;
    ropt.approxWrongPath = opt_.approxWrongPath;
    ropt.control = opt_.control;
    ropt.decodeThreads = replayDecodeThreads(ropt);
    ThreadPool pool(ropt.threads + ropt.decodeThreads);
    ropt.sharedPool = &pool;

    // Replays folded so far, campaign-wide, restored work included —
    // the deterministic quantity the global budget is charged against.
    std::uint64_t folded = 0;
    for (const Manifest::Workload &mw : m.workloads)
        for (const Manifest::Cell &c : mw.cells) {
            folded += c.processed;
            res.restoredReplays += c.processed;
        }
    res.foldedReplays = folded;
    // A resumed campaign may already satisfy the budget; without this
    // the first barrier only notices after replaying one more block.
    if (opt_.maxFoldedReplays && folded >= opt_.maxFoldedReplays)
        res.budgetExhausted = true;
    const bool stopping =
        opt_.stopAtConfidence || opt_.maxFoldedReplays != 0;
    // Marks the run cancelled, once, on a cancellation or an expired
    // deadline; true once it is.
    auto stopRequested = [this, &res] {
        if (!res.cancelled && opt_.control &&
            opt_.control->cancel.cancelled()) {
            res.cancelled = true;
            res.cancelReason = opt_.control->cancel.reason();
        }
        if (!res.cancelled && opt_.deadline.expired()) {
            res.cancelled = true;
            res.cancelReason = "deadline expired";
        }
        return res.cancelled;
    };

    for (std::size_t w = 0; w < workloads_.size(); ++w) {
        const CampaignWorkload &wk = workloads_[w];
        Manifest::Workload &mw = m.workloads[w];
        const std::size_t n =
            static_cast<std::size_t>(libSizes_[w]);

        // Rebuild the live fold state from the manifest image. Every
        // still-active cell sits exactly at the workload's frontier
        // (cells only leave the frontier by retiring), so one
        // first-point offset resumes them all.
        struct CellRun
        {
            OnlineEstimator est;
            RunningStat block;
            bool active = true;
        };
        std::vector<CellRun> cells;
        cells.reserve(nc);
        std::vector<std::size_t> restoredAtStart(nc, 0);
        std::vector<std::string> staleDetail(nc); //!< "" = not stale
        std::uint64_t initialMask = 0;
        for (std::size_t c = 0; c < nc; ++c) {
            cells.push_back(CellRun{OnlineEstimator(opt_.spec),
                                    RunningStat{}, true});
            // A store-memoized cell resolves wholly outside the run:
            // no manifest state, no staleness check, no replay.
            if (memoHit[w * nc + c]) {
                cells[c].active = false;
                continue;
            }
            restoredAtStart[c] =
                m.restored
                    ? static_cast<std::size_t>(mw.cells[c].processed)
                    : 0;
            if (mw.cells[c].stat.count())
                cells[c].est.fold(mw.cells[c].stat);
            cells[c].active =
                !mw.cells[c].converged && mw.frontier < n;
            // An unconverged cell sits below the fold frontier only
            // when the run that wrote the manifest took it from the
            // result store, which no longer holds it (a corrupt store
            // moved aside, or another store). Its fold state stops
            // short of the frontier whether or not its workload has
            // points left, so it fails rather than fold from the
            // wrong offset or pass for finished.
            if (m.restored && !mw.cells[c].converged &&
                mw.cells[c].processed != mw.frontier) {
                cells[c].active = false;
                staleDetail[c] = strfmt(
                    "resumed below the fold frontier (%llu of %llu "
                    "points): the run that wrote the manifest took "
                    "this cell from the result store",
                    static_cast<unsigned long long>(
                        mw.cells[c].processed),
                    static_cast<unsigned long long>(mw.frontier));
            }
            if (cells[c].active)
                initialMask |= 1ull << c;
        }

        // A failed workload is contained, not fatal: its cells carry
        // the reason, its workers migrate to the next workload.
        std::string failReason;
        CellFailReason failKind = CellFailReason::none;
        if (!wk.lib && wk.set->quarantined(wk.shard)) {
            failReason = wk.set->quarantineReason(wk.shard);
            failKind = CellFailReason::shardQuarantined;
        }

        // A cancellation or expired deadline observed between
        // workloads stops before the next one opens its shard.
        const bool stopped = stopRequested();
        if (failReason.empty() && initialMask != 0 &&
            !res.budgetExhausted && !stopped) {
            // A set-backed workload's shard opens here — only now,
            // only because this workload actually has work left — and
            // closes again below. Workloads the manifest already
            // finished (or the budget never reaches) stay on disk.
            // The open's own system calls retry transient errors, so
            // any error here fails the workload.
            const bool lazyShard =
                !wk.lib && !wk.set->isLoaded(wk.shard);
            const LivePointLibrary *lib = wk.lib;
            if (!lib) {
                try {
                    lib = &wk.set->shard(wk.shard);
                } catch (const std::exception &e) {
                    failReason = e.what();
                    failKind = CellFailReason::shardUnavailable;
                }
            }

            if (lib) {
                const std::vector<std::size_t> order =
                    replayOrder(n, opt_.shuffleSeed);
                ReplayEngine engine(*wk.prog, configs_, ropt);

                ReplayPlan plan;
                plan.firstPoint =
                    static_cast<std::size_t>(mw.frontier);
                plan.initialMask = initialMask;

                try {
                    engine.run(
                        *lib, order, blockSize_, stopping,
                        [&](std::size_t, const WindowResult *row) {
                            for (std::size_t c = 0; c < nc; ++c) {
                                if (!cells[c].active)
                                    continue;
                                cells[c].block.add(row[c].cpi);
                                mw.cells[c].unavailable +=
                                    row[c].unavailableLoads;
                            }
                            for (std::size_t a = 0; a < nc; ++a) {
                                if (!cells[a].active)
                                    continue;
                                for (std::size_t b = a + 1; b < nc;
                                     ++b) {
                                    if (!cells[b].active)
                                        continue;
                                    mw.pairs[pairIndex(a, b)].add(
                                        row[b].cpi - row[a].cpi);
                                }
                            }
                        },
                        [&](std::size_t end) -> std::uint64_t {
                            std::uint64_t keep = 0;
                            for (std::size_t c = 0; c < nc; ++c) {
                                if (!cells[c].active)
                                    continue;
                                const OnlineSnapshot snap =
                                    cells[c].est.fold(
                                        cells[c].block);
                                cells[c].block = RunningStat();
                                folded += end - mw.frontier;
                                mw.cells[c].processed = end;
                                mw.cells[c].stat =
                                    cells[c].est.stat();
                                if (opt_.stopAtConfidence &&
                                    snap.satisfied) {
                                    cells[c].active = false;
                                    mw.cells[c].converged = true;
                                } else {
                                    keep |= 1ull << c;
                                }
                            }
                            mw.frontier = end;
                            if (opt_.maxFoldedReplays &&
                                folded >= opt_.maxFoldedReplays) {
                                res.budgetExhausted = true;
                                keep = 0;
                            }
                            // Cancellation and deadlines stop here —
                            // after the barrier's state update,
                            // before the manifest write — so the
                            // stop is a valid resume point and a
                            // later resumption is bit-identical to
                            // the uninterrupted run.
                            if (stopRequested())
                                keep = 0;
                            if (!opt_.manifestPath.empty())
                                saveManifest(m);
                            return keep;
                        },
                        &plan);
                } catch (const ManifestWriteError &) {
                    // A campaign that cannot checkpoint must not
                    // keep replaying as if it could: abort.
                    throw;
                } catch (const std::exception &e) {
                    failReason = strfmt("replay failed: %s",
                                        e.what());
                    failKind = CellFailReason::replayFault;
                    warn("campaign: workload '%s' failed: %s",
                         wk.name.c_str(), e.what());
                }

                res.bytesDecoded += engine.bytesDecoded();
                res.pointsDecoded += engine.pointsDecoded();
                res.replaysExecuted += engine.replaysExecuted();
                if (lazyShard && opt_.unloadFinishedShards)
                    wk.set->unload(wk.shard);
            } else {
                warn("campaign: workload '%s' unavailable: %s",
                     wk.name.c_str(), failReason.c_str());
            }
        }

        // Publish the workload's cells and pairs.
        for (std::size_t c = 0; c < nc; ++c) {
            CampaignCell &cell = res.cells[w * nc + c];
            cell.workload = w;
            cell.config = c;
            if (memoHit[w * nc + c]) {
                const CellRecord &rec = memoRec[w * nc + c];
                OnlineEstimator est(opt_.spec);
                est.fold(RunningStat::fromState(rec.stat));
                cell.stat = est.stat();
                cell.estimate = est.snapshot();
                cell.processed =
                    static_cast<std::size_t>(rec.processed);
                cell.unavailableLoads = rec.unavailableLoads;
                cell.converged = rec.converged;
                cell.memoized = true;
                // The stored-vs-replayed bit-identity assertion: the
                // restored fold state must reproduce the stored CPI
                // bits exactly, or the store is inconsistent with
                // the engine that produced it.
                if (doubleBits(cell.estimate.mean) != rec.cpiBits)
                    throw std::runtime_error(strfmt(
                        "result store: memoized cell (workload '%s', "
                        "config %zu) does not reproduce its stored "
                        "CPI bits",
                        wk.name.c_str(), c));
                ++res.memoizedCells;
                res.memoizedReplays += rec.processed;
                continue;
            }
            cell.stat = mw.cells[c].stat;
            cell.estimate = cells[c].est.snapshot();
            cell.processed =
                static_cast<std::size_t>(mw.cells[c].processed);
            cell.restored = restoredAtStart[c];
            cell.unavailableLoads = mw.cells[c].unavailable;
            cell.converged = mw.cells[c].converged;
            // Cells already retired by their confidence target have
            // complete estimates; only the ones a failure cut short
            // are marked failed. Stale resume state (never a converged
            // cell) outranks the workload-level reason.
            if (!staleDetail[c].empty()) {
                cell.failed = true;
                cell.reason = CellFailReason::staleFoldState;
                cell.failureReason = staleDetail[c];
                ++res.failedCells;
            } else if (!failReason.empty() && !cell.converged) {
                cell.failed = true;
                cell.reason = failKind;
                cell.failureReason = failReason;
                ++res.failedCells;
            }
            if (cell.converged)
                ++res.retirements;
            res.migratedReplays += mw.frontier - mw.cells[c].processed;
        }
        for (std::size_t a = 0; a < nc; ++a)
            for (std::size_t b = a + 1; b < nc; ++b) {
                CampaignPair p;
                p.workload = w;
                p.base = a;
                p.test = b;
                p.delta = mw.pairs[pairIndex(a, b)];
                // Both cells memoized → no per-point delta replayed
                // here; restore the matched-pair stat the producing
                // run published. (A pair between a memoized and a
                // fresh cell stays empty: per-point deltas cannot be
                // reconstructed from per-cell fold state.)
                if (p.delta.count() == 0 && opt_.resultStore &&
                    memoHit[w * nc + a] && memoHit[w * nc + b]) {
                    PairRecord rec;
                    if (opt_.resultStore->findPair(
                            PairKey{cellKey(w, a), digests_[b]}, &rec))
                        p.delta = RunningStat::fromState(rec.delta);
                }
                res.pairs.push_back(std::move(p));
            }
    }

    res.foldedReplays = folded;
    res.wallSeconds = seconds(t0);
    return res;
}

ResultKey
CampaignEngine::cellKey(std::size_t w, std::size_t c) const
{
    return ResultKey::make(libHashes_[w], digests_[c], opt_.shuffleSeed,
                           blockSize_, opt_.stopAtConfidence,
                           opt_.approxWrongPath, opt_.spec);
}

std::size_t
CampaignEngine::publish(const CampaignResult &r,
                        ResultStore &store) const
{
    const std::size_t nc = configs_.size();
    std::size_t written = 0;
    // A cell is publishable when its result is canonical for its key:
    // not failed, and either retired by its confidence target or run
    // over the whole library. Budget- or cancel-truncated cells stop
    // at a non-canonical point and must not poison the store.
    std::vector<char> ok(r.cells.size(), 0);
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
        const CampaignCell &cell = r.cells[i];
        const std::size_t w = cell.workload;
        if (libHashes_[w] == 0)
            continue; // recovered shard: hash untrusted
        const bool complete =
            cell.converged ||
            cell.processed ==
                static_cast<std::size_t>(libSizes_[w]);
        if (cell.failed || !complete || cell.processed == 0)
            continue;
        ok[i] = 1;
        CellRecord rec;
        rec.key = cellKey(w, cell.config);
        rec.libPoints = libSizes_[w];
        rec.processed = cell.processed;
        rec.unavailableLoads = cell.unavailableLoads;
        rec.converged = cell.converged;
        rec.cpiBits = doubleBits(cell.estimate.mean);
        rec.stat = cell.stat.state();
        store.put(rec);
        ++written;
    }
    for (const CampaignPair &p : r.pairs) {
        if (p.delta.count() == 0)
            continue;
        if (!ok[p.workload * nc + p.base] ||
            !ok[p.workload * nc + p.test])
            continue;
        PairRecord rec;
        rec.key = PairKey{cellKey(p.workload, p.base), digests_[p.test]};
        rec.delta = p.delta.state();
        store.putPair(rec);
        ++written;
    }
    return written;
}

std::string
CampaignEngine::jsonReport(const CampaignResult &r) const
{
    const std::size_t nc = configs_.size();
    const double z = confidenceZ(opt_.spec.level);
    // Version 4 dropped the totals' peak resident-window bytes along
    // with the resident-budget replay mode they reported on.
    // Version 3: every free-text string field (workload and config
    // names included) is JSON-escaped, and the result-store
    // memoization fields were added (per-cell "memoized", totals
    // "memoized_cells" / "memoized_replays"). Version 2 added
    // schema_version, per-cell cpi_bits (exact IEEE bits, the
    // bit-identity contract clients verify), the stable
    // machine-readable per-cell "reason" token (free text moved to
    // "detail"), and the cancelled/cancel_reason totals.
    std::string out = "{\n  \"schema_version\": 4,\n  \"workloads\": [";
    for (std::size_t w = 0; w < workloads_.size(); ++w)
        out += strfmt("%s\"%s\"", w ? ", " : "",
                      jsonEscape(workloads_[w].name).c_str());
    out += "],\n  \"configs\": [";
    for (std::size_t c = 0; c < nc; ++c)
        out += strfmt("%s\n    {\"name\": \"%s\", \"digest\": "
                      "\"%016llx\"}",
                      c ? "," : "",
                      jsonEscape(configs_[c].name).c_str(),
                      static_cast<unsigned long long>(digests_[c]));
    out += "\n  ],\n  \"cells\": [";
    for (std::size_t i = 0; i < r.cells.size(); ++i) {
        const CampaignCell &cell = r.cells[i];
        out += strfmt(
            "%s\n    {\"workload\": %zu, \"config\": %zu, "
            "\"points\": %zu, \"cpi\": %.9f, \"cpi_bits\": "
            "\"%016llx\", \"rel_half_width\": %.6f, "
            "\"converged\": %s, \"unavailable_loads\": %llu, "
            "\"memoized\": %s, "
            "\"failed\": %s, \"reason\": \"%s\", \"detail\": \"%s\"}",
            i ? "," : "", cell.workload, cell.config, cell.processed,
            cell.estimate.mean,
            static_cast<unsigned long long>(
                doubleBits(cell.estimate.mean)),
            cell.estimate.relHalfWidth,
            cell.converged ? "true" : "false",
            static_cast<unsigned long long>(cell.unavailableLoads),
            cell.memoized ? "true" : "false",
            cell.failed ? "true" : "false",
            jsonEscape(cellFailReasonToken(cell.reason)).c_str(),
            jsonEscape(cell.failureReason).c_str());
    }
    out += "\n  ],\n  \"pairs\": [";
    for (std::size_t i = 0; i < r.pairs.size(); ++i) {
        const CampaignPair &p = r.pairs[i];
        const double hw = p.delta.halfWidth(z);
        const double base =
            r.cells[p.workload * nc + p.base].estimate.mean;
        const bool significant =
            p.delta.count() >= minCltSample &&
            std::fabs(p.delta.mean()) > hw;
        out += strfmt(
            "%s\n    {\"workload\": %zu, \"base\": %zu, \"test\": %zu, "
            "\"pairs\": %llu, \"mean_delta\": %.9f, \"rel_delta\": "
            "%.6f, \"half_width\": %.9f, \"significant\": %s}",
            i ? "," : "", p.workload, p.base, p.test,
            static_cast<unsigned long long>(p.delta.count()),
            p.delta.mean(),
            base != 0.0 ? p.delta.mean() / base : 0.0, hw,
            significant ? "true" : "false");
    }
    out += strfmt(
        "\n  ],\n  \"totals\": {\"wall_seconds\": %.6f, "
        "\"bytes_decoded\": %llu, \"points_decoded\": %llu, "
        "\"replays_executed\": %llu, \"folded_replays\": %llu, "
        "\"restored_replays\": %llu, \"migrated_replays\": %llu, "
        "\"memoized_replays\": %llu, "
        "\"retirements\": %zu, \"failed_cells\": %zu, "
        "\"memoized_cells\": %zu, "
        "\"budget_exhausted\": %s, "
        "\"cancelled\": %s, \"cancel_reason\": \"%s\", "
        "\"decode_fanout\": %.3f}\n}\n",
        r.wallSeconds, static_cast<unsigned long long>(r.bytesDecoded),
        static_cast<unsigned long long>(r.pointsDecoded),
        static_cast<unsigned long long>(r.replaysExecuted),
        static_cast<unsigned long long>(r.foldedReplays),
        static_cast<unsigned long long>(r.restoredReplays),
        static_cast<unsigned long long>(r.migratedReplays),
        static_cast<unsigned long long>(r.memoizedReplays),
        r.retirements, r.failedCells, r.memoizedCells,
        r.budgetExhausted ? "true" : "false",
        r.cancelled ? "true" : "false",
        jsonEscape(r.cancelReason).c_str(),
        r.pointsDecoded
            ? static_cast<double>(r.replaysExecuted) /
                  static_cast<double>(r.pointsDecoded)
            : 0.0);
    return out;
}

} // namespace lp

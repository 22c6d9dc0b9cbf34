/**
 * Durability and fault injection: the failpoint framework's trigger
 * semantics, atomic-write publication (temp cleanup, checksum
 * footers), transient-errno retry loops, LibrarySet torn-index
 * recovery and shard quarantine, the campaign manifest's rejection
 * of truncation and corruption at every byte, and a fork-based crash
 * matrix: campaigns killed at every barrier and at each step of the
 * atomic manifest write must resume bit-identical to the
 * uninterrupted run.
 */

#include "test_util.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "codec/der.hh"
#include "core/campaign.hh"
#include "core/library_set.hh"
#include "core/runners.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "io/source.hh"
#include "store/result_store.hh"
#include "util/failpoint.hh"

#include <sys/wait.h>
#include <unistd.h>

namespace
{

using namespace lp;
using namespace lptest;

Blob
readBytes(const std::string &path)
{
    return readWholeFile(path, "test file");
}

void
writeBytes(const std::string &path, const std::uint8_t *data,
           std::size_t size)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    if (!f)
        return;
    if (size > 0)
        CHECK_EQ(std::fwrite(data, 1, size, f), size);
    std::fclose(f);
}

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

/** Two campaign results agree bit for bit (cells and pairs). */
void
checkSameGrid(const CampaignResult &a, const CampaignResult &b)
{
    CHECK_EQ(a.cells.size(), b.cells.size());
    for (std::size_t i = 0; i < a.cells.size(); ++i) {
        CHECK_EQ(a.cells[i].processed, b.cells[i].processed);
        CHECK_NEAR(a.cells[i].cpi(), b.cells[i].cpi(), 0.0);
        CHECK_NEAR(a.cells[i].estimate.relHalfWidth,
                   b.cells[i].estimate.relHalfWidth, 0.0);
        CHECK_EQ(a.cells[i].converged, b.cells[i].converged);
        CHECK(!a.cells[i].failed);
        CHECK(!b.cells[i].failed);
    }
    CHECK_EQ(a.pairs.size(), b.pairs.size());
    for (std::size_t i = 0; i < a.pairs.size(); ++i) {
        CHECK_EQ(a.pairs[i].delta.count(), b.pairs[i].delta.count());
        CHECK_NEAR(a.pairs[i].meanDelta(), b.pairs[i].meanDelta(),
                   0.0);
    }
}

/** Where manifestDer() writes one integer the reader does not expect. */
enum class ManifestSurplus
{
    none,
    digestList,       //!< at the end of the config-digest list
    cellRecord,       //!< at the end of the first cell record
    workloadRecord,   //!< at the end of the first workload record
    manifestSequence, //!< at the end of the manifest sequence
    payload,          //!< after the manifest sequence
};

/** A campaign manifest's values, field by field in its layout. */
struct ManifestFields
{
    struct Cell
    {
        std::uint64_t processed = 0, converged = 0, unavailable = 0;
        RunningStat::State stat;
    };
    struct Workload
    {
        std::string name;
        std::uint64_t hash = 0, size = 0, frontier = 0;
        std::vector<Cell> cells;
        std::vector<RunningStat::State> pairs;
    };
    /** Magic, version, seed, block size, level and error bits,
     *  stopping and wrong-path modes, workload and config counts. */
    std::vector<std::uint64_t> head;
    std::vector<std::uint64_t> digests;
    std::vector<Workload> workloads;
};

/** Read a sealed manifest image field by field. */
ManifestFields
readManifestFields(const Blob &file)
{
    std::size_t payload = 0;
    CHECK(checksummedPayload(file.data(), file.size(), &payload));
    DerReader top(ByteSpan(file.data(), payload));
    DerReader seq = top.getSequence();
    ManifestFields m;
    for (int i = 0; i < 10; ++i)
        m.head.push_back(seq.getUint());
    const std::uint64_t workloads = m.head[8], configs = m.head[9];
    DerReader ds = seq.getSequence();
    while (!ds.atEnd())
        m.digests.push_back(ds.getUint());
    for (std::uint64_t w = 0; w < workloads; ++w) {
        DerReader ws = seq.getSequence();
        ManifestFields::Workload mw;
        mw.name = ws.getString();
        mw.hash = ws.getUint();
        mw.size = ws.getUint();
        mw.frontier = ws.getUint();
        for (std::uint64_t c = 0; c < configs; ++c) {
            DerReader cs = ws.getSequence();
            ManifestFields::Cell cell;
            cell.processed = cs.getUint();
            cell.converged = cs.getUint();
            cell.unavailable = cs.getUint();
            cell.stat = getFoldState(cs);
            mw.cells.push_back(cell);
        }
        while (!ws.atEnd())
            mw.pairs.push_back(getFoldState(ws));
        m.workloads.push_back(mw);
    }
    return m;
}

/** The manifest layout written out here with one @p surplus integer,
 *  and sealed. */
Blob
manifestDer(const ManifestFields &m, ManifestSurplus surplus)
{
    DerWriter w;
    w.beginSequence();
    for (const std::uint64_t v : m.head)
        w.putUint(v);
    w.beginSequence();
    for (const std::uint64_t d : m.digests)
        w.putUint(d);
    if (surplus == ManifestSurplus::digestList)
        w.putUint(7);
    w.endSequence();
    for (std::size_t i = 0; i < m.workloads.size(); ++i) {
        const ManifestFields::Workload &mw = m.workloads[i];
        w.beginSequence();
        w.putString(mw.name);
        w.putUint(mw.hash);
        w.putUint(mw.size);
        w.putUint(mw.frontier);
        for (std::size_t c = 0; c < mw.cells.size(); ++c) {
            const ManifestFields::Cell &cell = mw.cells[c];
            w.beginSequence();
            w.putUint(cell.processed);
            w.putUint(cell.converged);
            w.putUint(cell.unavailable);
            putFoldState(w, cell.stat);
            if (surplus == ManifestSurplus::cellRecord && i == 0 && c == 0)
                w.putUint(7);
            w.endSequence();
        }
        for (const RunningStat::State &p : mw.pairs)
            putFoldState(w, p);
        if (surplus == ManifestSurplus::workloadRecord && i == 0)
            w.putUint(7);
        w.endSequence();
    }
    if (surplus == ManifestSurplus::manifestSequence)
        w.putUint(7);
    w.endSequence();
    if (surplus == ManifestSurplus::payload)
        w.putUint(7);
    Blob image = w.finish();
    appendChecksumFooter(image);
    return image;
}

} // namespace

int
main()
{
    using namespace lp;
    using namespace lptest;

    // ---- Failpoint framework semantics -----------------------------
    {
        CHECK(!failpointsArmed());
        arm("t.a", FailpointSpec::Trigger::nth, 2,
            FailpointSpec::Action::error, EIO);
        CHECK(failpointsArmed());
        // hit:2 fires on exactly the second hit.
        CHECK(!failpointFire("t.a").fail);
        FailpointOutcome o = failpointFire("t.a");
        CHECK(o.fail);
        CHECK_EQ(o.err, EIO);
        CHECK(!failpointFire("t.a").fail);
        CHECK_EQ(failpointHits("t.a"), 3u);

        // every:2 fires on hits 2, 4, 6, ...
        arm("t.b", FailpointSpec::Trigger::every, 2,
            FailpointSpec::Action::error, EINTR);
        CHECK(!failpointFire("t.b").fail);
        CHECK(failpointFire("t.b").fail);
        CHECK(!failpointFire("t.b").fail);
        CHECK(failpointFire("t.b").fail);

        // An unarmed site never fires, even while others are armed.
        CHECK(!failpointFire("t.unarmed").fail);

        // shortOp is reported distinctly from fail.
        arm("t.c", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::shortOp);
        o = failpointFire("t.c");
        CHECK(o.shortOp);
        CHECK(!o.fail);

        disarmFailpoint("t.a");
        CHECK(!failpointFire("t.a").fail);
        CHECK(failpointsArmed()); // t.b, t.c still armed
        disarmAllFailpoints();
        CHECK(!failpointsArmed());

        // The LP_FAILPOINTS grammar: valid specs arm, typos throw.
        armFailpointsFromSpec(
            "io.read=hit:3:err:EINTR;io.fsync=every:2:crash");
        CHECK(failpointsArmed());
        disarmAllFailpoints();
        CHECK_THROWS(armFailpointsFromSpec("io.read=hit:3:bogus"));
        CHECK_THROWS(armFailpointsFromSpec("io.read"));
        CHECK_THROWS(armFailpointsFromSpec("io.read=hit:zero:crash"));
        CHECK_THROWS(armFailpointsFromSpec("io.read=hit:0:crash"));
        disarmAllFailpoints();

        CHECK(transientErrno(EINTR));
        CHECK(transientErrno(EAGAIN));
        CHECK(!transientErrno(EIO));
        CHECK(!transientErrno(ENOSPC));
    }

    // ---- Atomic publication and the checksum footer ----------------
    {
        const std::string path = "faults-atomic.bin";
        const std::string tmp = AtomicFileWriter::tempFileName(path);
        std::filesystem::remove(path);
        std::filesystem::remove(tmp);
        const std::uint8_t payload[] = {1, 2, 3, 4, 5};

        writeFileAtomic(path, payload, sizeof(payload), "test file");
        CHECK(std::filesystem::exists(path));
        CHECK(!std::filesystem::exists(tmp));
        const Blob back = readBytes(path);
        CHECK_EQ(back.size(), sizeof(payload));

        // An uncommitted writer leaves nothing behind.
        {
            AtomicFileWriter w("faults-uncommitted.bin", "test file");
            w.write(payload, sizeof(payload));
        }
        CHECK(!std::filesystem::exists("faults-uncommitted.bin"));
        CHECK(!std::filesystem::exists("faults-uncommitted.bin.tmp"));

        // A failed rename keeps the old content and removes the temp.
        arm("io.rename", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, EACCES);
        const std::uint8_t other[] = {9, 9};
        CHECK_THROWS(
            writeFileAtomic(path, other, sizeof(other), "test file"));
        disarmAllFailpoints();
        CHECK(!std::filesystem::exists(tmp));
        CHECK_EQ(readBytes(path).size(), sizeof(payload));

        // A transient write error is retried to success; a hard one
        // throws IoError carrying the errno and cleans the temp up.
        arm("io.write", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, EINTR);
        writeFileAtomic(path, other, sizeof(other), "test file");
        disarmAllFailpoints();
        CHECK_EQ(readBytes(path).size(), sizeof(other));

        arm("io.write", FailpointSpec::Trigger::every, 1,
            FailpointSpec::Action::error, EIO);
        bool threwIo = false;
        try {
            writeFileAtomic(path, payload, sizeof(payload),
                            "test file");
        } catch (const IoError &e) {
            threwIo = true;
            CHECK_EQ(e.errnum(), EIO);
            CHECK(!e.transient());
            CHECK(std::string(e.what()).find(path) !=
                  std::string::npos);
        }
        disarmAllFailpoints();
        CHECK(threwIo);
        CHECK(!std::filesystem::exists(tmp));

        // Footer round trip, and detection of any corrupt byte.
        Blob data(payload, payload + sizeof(payload));
        appendChecksumFooter(data);
        CHECK_EQ(data.size(), sizeof(payload) + checksumFooterBytes);
        std::size_t got = 0;
        CHECK(checksummedPayload(data.data(), data.size(), &got));
        CHECK_EQ(got, sizeof(payload));
        for (std::size_t i = 0; i < data.size(); ++i) {
            Blob bad = data;
            bad[i] ^= 0x40;
            CHECK(!checksummedPayload(bad.data(), bad.size(), &got));
        }
        CHECK(!checksummedPayload(data.data(), checksumFooterBytes - 1,
                                  &got));

        std::filesystem::remove(path);
    }

    // ---- Read-path retry loops -------------------------------------
    {
        const std::string path = "faults-read.bin";
        Blob content(4096);
        for (std::size_t i = 0; i < content.size(); ++i)
            content[i] = static_cast<std::uint8_t>(i * 7);
        writeBytes(path, content.data(), content.size());

        // A transient read error and a short read both recover to the
        // full, correct content.
        arm("io.read", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, EINTR);
        Blob back = readBytes(path);
        disarmAllFailpoints();
        CHECK_EQ(back.size(), content.size());
        CHECK(std::equal(back.begin(), back.end(), content.begin()));

        arm("io.read", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::shortOp);
        back = readBytes(path);
        disarmAllFailpoints();
        CHECK_EQ(back.size(), content.size());
        CHECK(std::equal(back.begin(), back.end(), content.begin()));

        // A persistent transient is bounded: it must fail cleanly,
        // not spin forever.
        arm("io.read", FailpointSpec::Trigger::every, 1,
            FailpointSpec::Action::error, EINTR);
        CHECK_THROWS(readBytes(path));
        disarmAllFailpoints();

        // Hard errors carry path + strerror context.
        arm("io.open.read", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, EACCES);
        bool threw = false;
        try {
            readBytes(path);
        } catch (const IoError &e) {
            threw = true;
            const std::string msg = e.what();
            CHECK(msg.find(path) != std::string::npos);
            CHECK(msg.find(std::strerror(EACCES)) !=
                  std::string::npos);
        }
        disarmAllFailpoints();
        CHECK(threw);
        std::filesystem::remove(path);
    }

    // Shared fixtures for the storage and campaign suites.
    std::vector<CoreConfig> cfgs{baseConfig(), slowMemConfig()};
    const TinyLib w0 = buildTinyLibrary("flt-a", 250'000, 31, 24, cfgs);
    const TinyLib w1 = buildTinyLibrary("flt-b", 200'000, 37, 16, cfgs);

    // ---- Library save faults ---------------------------------------
    {
        const std::string path = "faults-lib.lpl";
        std::filesystem::remove(path);
        arm("io.open.write", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, ENOSPC);
        CHECK_THROWS(w0.lib.save(path));
        disarmAllFailpoints();
        CHECK(!std::filesystem::exists(path));
        CHECK(!std::filesystem::exists(path + ".tmp"));

        // A hard write error mid-container leaves no temp either.
        arm("io.write", FailpointSpec::Trigger::nth, 2,
            FailpointSpec::Action::error, EIO);
        CHECK_THROWS(w0.lib.save(path));
        disarmAllFailpoints();
        CHECK(!std::filesystem::exists(path + ".tmp"));

        // And a clean save round-trips.
        w0.lib.save(path);
        const LivePointLibrary lib = LivePointLibrary::load(path);
        CHECK_EQ(lib.contentHash(), w0.lib.contentHash());
        std::filesystem::remove(path);
    }

    // ---- LibrarySet: torn-index recovery and quarantine ------------
    const std::string setDir = "faults-set";
    std::filesystem::remove_all(setDir);
    {
        LibrarySetWriter writer(setDir);
        writer.addShard("flt-a", w0.lib);
        writer.addShard("flt-b", w1.lib);
    }
    const std::string idxPath =
        setDir + "/" + LibrarySet::indexFileName();
    const Blob idxBytes = readBytes(idxPath);

    {
        // Healthy strict open as the reference.
        const LibrarySet healthy = LibrarySet::open(setDir);
        CHECK_EQ(healthy.size(), 2u);
        CHECK(!healthy.recovery().degraded);

        // Truncation at EVERY byte, the footer-less cut included:
        // strict open rejects cleanly, and openRecover rebuilds the
        // full entry table from the shards.
        for (std::size_t cut = 0; cut < idxBytes.size(); ++cut) {
            writeBytes(idxPath, idxBytes.data(), cut);
            CHECK_THROWS(LibrarySet::open(setDir));
            const LibrarySet rec = LibrarySet::openRecover(setDir);
            CHECK(rec.recovery().degraded);
            CHECK(rec.recovery().indexRebuilt);
            CHECK_EQ(rec.size(), 2u);
            const std::size_t a = rec.find("flt-a");
            const std::size_t b = rec.find("flt-b");
            CHECK(a != LibrarySet::npos);
            CHECK(b != LibrarySet::npos);
            if (a == LibrarySet::npos || b == LibrarySet::npos)
                break; // one detailed failure is enough
            CHECK(!rec.quarantined(a));
            CHECK_EQ(rec.points(a), w0.lib.size());
            CHECK_EQ(rec.contentHash(a), w0.lib.contentHash());
            CHECK_EQ(rec.points(b), w1.lib.size());
            if (lpTestFailures)
                break;
        }
        // Byte-flip corruption (sampled): same contract.
        for (std::size_t i = 0; i < idxBytes.size(); i += 7) {
            Blob bad = idxBytes;
            bad[i] ^= 0x20;
            writeBytes(idxPath, bad.data(), bad.size());
            bool strictOk = true;
            try {
                LibrarySet::open(setDir);
            } catch (const std::exception &) {
                strictOk = false;
            }
            // The checksum footer covers every payload byte: strict
            // open must never silently accept a flipped index.
            CHECK(!strictOk);
            const LibrarySet rec = LibrarySet::openRecover(setDir);
            CHECK_EQ(rec.size(), 2u);
            if (lpTestFailures)
                break;
        }
        // A missing index recovers too.
        std::filesystem::remove(idxPath);
        const LibrarySet rec = LibrarySet::openRecover(setDir);
        CHECK_EQ(rec.size(), 2u);
        CHECK(rec.recovery().indexRebuilt);
        // Restore the healthy index.
        writeBytes(idxPath, idxBytes.data(), idxBytes.size());
        CHECK_EQ(LibrarySet::open(setDir).size(), 2u);
    }

    {
        // Orphaned staging temps are ignored by recovery scans and
        // swept by the writer.
        const std::string stray = setDir + "/stray.lpl.tmp";
        const std::string strayIdx = idxPath + ".tmp";
        const std::uint8_t junk[] = {0xde, 0xad};
        writeBytes(stray, junk, sizeof(junk));
        writeBytes(strayIdx, junk, sizeof(junk));
        const LibrarySet rec = LibrarySet::openRecover(setDir);
        CHECK_EQ(rec.size(), 2u);
        {
            LibrarySetWriter writer(setDir);
            CHECK_EQ(writer.shards(), 2u);
        }
        CHECK(!std::filesystem::exists(stray));
        CHECK(!std::filesystem::exists(strayIdx));

        // Reopening a torn-index set and appending repairs the index
        // on disk.
        writeBytes(idxPath, idxBytes.data(), idxBytes.size() / 2);
        const TinyLib w2 =
            buildTinyLibrary("flt-c", 150'000, 41, 8, cfgs);
        {
            LibrarySetWriter writer(setDir);
            CHECK_EQ(writer.shards(), 2u);
            writer.addShard("flt-c", w2.lib);
        }
        const LibrarySet set = LibrarySet::open(setDir); // strict again
        CHECK_EQ(set.size(), 3u);
        CHECK_EQ(set.contentHash(set.find("flt-a")),
                 w0.lib.contentHash());
    }

    // Rebuild a clean two-shard set for the campaign suites.
    std::filesystem::remove_all(setDir);
    {
        LibrarySetWriter writer(setDir);
        writer.addShard("flt-a", w0.lib);
        writer.addShard("flt-b", w1.lib);
    }

    // ---- Campaign fixtures -----------------------------------------
    const std::vector<CampaignWorkload> grid{
        {"flt-a", &w0.prog, &w0.lib, nullptr, 0},
        {"flt-b", &w1.prog, &w1.lib, nullptr, 0},
    };
    CampaignOptions copt;
    copt.blockSize = 4;
    copt.shuffleSeed = 3;
    const CampaignResult baseline =
        CampaignEngine(grid, cfgs, copt).run();
    CHECK_EQ(baseline.failedCells, 0u);

    const std::string manifestPath = "faults-manifest";
    const std::string manifestTmp =
        AtomicFileWriter::tempFileName(manifestPath);
    auto runWithManifest = [&]() {
        CampaignOptions o = copt;
        o.manifestPath = manifestPath;
        return CampaignEngine(grid, cfgs, o).run();
    };

    // ---- Manifest: truncation and corruption -----------------------
    {
        std::filesystem::remove(manifestPath);
        const CampaignResult first = runWithManifest();
        checkSameGrid(first, baseline);
        const Blob manifest = readBytes(manifestPath);
        // One image plus its checksum footer, and no staging temp.
        std::size_t payloadSize = 0;
        CHECK(checksummedPayload(manifest.data(), manifest.size(),
                                 &payloadSize));
        CHECK_EQ(payloadSize + checksumFooterBytes, manifest.size());
        CHECK(!std::filesystem::exists(manifestTmp));

        // A completed manifest resumes to the identical grid without
        // replaying anything.
        const CampaignResult resumed = runWithManifest();
        checkSameGrid(resumed, baseline);
        CHECK_EQ(resumed.restoredReplays, baseline.foldedReplays);

        // Writes replace the whole file, so a crash never tears it:
        // damage comes from outside. Truncation at every byte and a
        // flip of every byte are each rejected before any replay (an
        // armed, never-firing replay.cell site counts them), with the
        // file named and left byte-for-byte as it was.
        arm("replay.cell", FailpointSpec::Trigger::nth,
            ~std::uint64_t{0}, FailpointSpec::Action::error);
        auto rejected = [&](const Blob &bad) {
            writeBytes(manifestPath, bad.data(), bad.size());
            bool named = false;
            try {
                (void)runWithManifest();
            } catch (const std::exception &e) {
                const std::string msg = e.what();
                named = msg.find(manifestPath) != std::string::npos &&
                        msg.find("not a campaign manifest") !=
                            std::string::npos;
            }
            return named && readBytes(manifestPath) == bad;
        };
        for (std::size_t cut = 0; cut < manifest.size(); ++cut) {
            CHECK(rejected(Blob(manifest.begin(),
                                manifest.begin() +
                                    static_cast<std::ptrdiff_t>(cut))));
            if (lpTestFailures)
                break;
        }
        for (std::size_t i = 0; i < manifest.size(); ++i) {
            Blob bad = manifest;
            bad[i] ^= 0x01;
            CHECK(rejected(bad));
            if (lpTestFailures)
                break;
        }
        CHECK_EQ(failpointHits("replay.cell"), 0u);
        disarmAllFailpoints();

        // A file that is not a manifest — short text, or a DER
        // SEQUENCE — is rejected as such and left byte-for-byte alone,
        // never replaced by a fresh manifest.
        {
            const std::string text = "manifest\n"; // 9 bytes
            DerWriter w;
            w.beginSequence();
            w.putUint(7);
            w.putString("some other file");
            w.endSequence();
            const Blob der = w.finish();
            const Blob inputs[] = {Blob(text.begin(), text.end()), der};
            for (const Blob &foreign : inputs) {
                writeBytes(manifestPath, foreign.data(), foreign.size());
                try {
                    (void)runWithManifest();
                    CHECK(false);
                } catch (const std::exception &e) {
                    CHECK(std::string(e.what()).find(
                              "not a campaign manifest") !=
                          std::string::npos);
                }
                CHECK(readBytes(manifestPath) == foreign);
            }
        }
        std::filesystem::remove(manifestPath);
    }

    // ---- Manifest: a value left over anywhere ----------------------
    // A manifest is exactly one image in its layout. The layout is
    // written out here, checked equal to what a finished run writes,
    // and given one surplus integer at each place a sequence ends:
    // each resealed file is rejected before any replay, named, and
    // left byte-for-byte as it was.
    {
        std::filesystem::remove(manifestPath);
        (void)runWithManifest();
        const Blob manifest = readBytes(manifestPath);
        const ManifestFields fields = readManifestFields(manifest);
        CHECK_EQ(fields.workloads.size(), grid.size());
        CHECK(manifestDer(fields, ManifestSurplus::none) == manifest);
        arm("replay.cell", FailpointSpec::Trigger::nth,
            ~std::uint64_t{0}, FailpointSpec::Action::error);
        for (const ManifestSurplus at :
             {ManifestSurplus::digestList, ManifestSurplus::cellRecord,
              ManifestSurplus::workloadRecord,
              ManifestSurplus::manifestSequence,
              ManifestSurplus::payload}) {
            const Blob bad = manifestDer(fields, at);
            writeBytes(manifestPath, bad.data(), bad.size());
            bool named = false;
            try {
                (void)runWithManifest();
            } catch (const std::exception &e) {
                const std::string msg = e.what();
                named = msg.find(manifestPath) != std::string::npos &&
                        msg.find("left over") != std::string::npos;
            }
            CHECK(named);
            CHECK(readBytes(manifestPath) == bad);
        }
        CHECK_EQ(failpointHits("replay.cell"), 0u);
        disarmAllFailpoints();
        std::filesystem::remove(manifestPath);
    }

    // ---- Manifest write faults: retry vs abort ---------------------
    {
        std::filesystem::remove(manifestPath);
        // The atomic writer retries its own open like every other
        // system call: one transient open failure is invisible to the
        // campaign.
        arm("io.open.write", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, EINTR);
        bool completed = false;
        try {
            checkSameGrid(runWithManifest(), baseline);
            completed = true;
        } catch (const std::exception &) {
        }
        disarmAllFailpoints();
        CHECK(completed);

        // A persistent transient exhausts the bounded retries and
        // still fails cleanly rather than hanging.
        std::filesystem::remove(manifestPath);
        arm("io.write", FailpointSpec::Trigger::every, 1,
            FailpointSpec::Action::error, EINTR);
        CHECK_THROWS(runWithManifest());
        disarmAllFailpoints();
        CHECK(!std::filesystem::exists(manifestTmp));

        // A hard checkpoint failure aborts the campaign loudly —
        // replaying without durability would betray the manifest's
        // contract.
        std::filesystem::remove(manifestPath);
        arm("io.fsync", FailpointSpec::Trigger::nth, 2,
            FailpointSpec::Action::error, EIO);
        CHECK_THROWS(runWithManifest());
        disarmAllFailpoints();
        // ... and the first barrier's manifest it left on disk resumes
        // bit-identically.
        const CampaignResult after = runWithManifest();
        checkSameGrid(after, baseline);
        CHECK(after.restoredReplays > 0);
        std::filesystem::remove(manifestPath);
    }

    // ---- Replay faults are contained per workload ------------------
    // A replay error has one outcome, whatever its cause: every cell
    // of the first workload fails as replay_fault with the cause in
    // its detail, and the second workload's cells match @p ref's
    // workload @p refW bit for bit.
    auto firstWorkloadFailed = [](const CampaignResult &r,
                                  const CampaignResult &ref,
                                  std::size_t refW, std::size_t nc,
                                  const char *cause) {
        CHECK_EQ(r.failedCells, nc);
        for (std::size_t c = 0; c < nc; ++c) {
            const CampaignCell &cell = r.cell(0, c, nc);
            CHECK(cell.failed);
            CHECK(cell.reason == CellFailReason::replayFault);
            CHECK(cell.failureReason.find(cause) != std::string::npos);
            const CampaignCell &ok = r.cell(1, c, nc);
            CHECK(!ok.failed);
            CHECK_EQ(ok.processed, ref.cell(refW, c, nc).processed);
            CHECK_NEAR(ok.cpi(), ref.cell(refW, c, nc).cpi(), 0.0);
        }
    };
    {
        // The first decode of the run fails (injected codec fault).
        arm("codec.decompress", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error);
        const CampaignResult r = CampaignEngine(grid, cfgs, copt).run();
        disarmAllFailpoints();
        firstWorkloadFailed(r, baseline, 1, cfgs.size(),
                            "codec.decompress");
        const std::string report =
            CampaignEngine(grid, cfgs, copt).jsonReport(r);
        CHECK(report.find("\"failed\": true") != std::string::npos);
        CHECK(report.find("codec.decompress") != std::string::npos);
    }
    {
        // The first replay fails (injected at replay.cell): it throws
        // from the worker like a real replay error, so its workload's
        // other configuration fails with it.
        arm("replay.cell", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error);
        const CampaignResult r = CampaignEngine(grid, cfgs, copt).run();
        disarmAllFailpoints();
        firstWorkloadFailed(r, baseline, 1, cfgs.size(), "replay.cell");
        const std::string report =
            CampaignEngine(grid, cfgs, copt).jsonReport(r);
        CHECK(report.find("\"reason\": \"replay_fault\"") !=
              std::string::npos);
    }
    {
        // A real replay error: the first workload's library covers
        // only the 8-way predictor, and the grid also replays the
        // 16-way. Its 8-way cell fails too; the second workload's
        // library covers both and matches its standalone run.
        const std::vector<CoreConfig> wide{baseConfig(),
                                           CoreConfig::sixteenWay()};
        const TinyLib both =
            buildTinyLibrary("flt-w", 200'000, 37, 16, wide);
        const CampaignWorkload covered{"flt-w", &both.prog, &both.lib,
                                       nullptr, 0};
        const CampaignResult ref =
            CampaignEngine({covered}, wide, copt).run();
        CHECK_EQ(ref.failedCells, 0u);
        const CampaignResult r =
            CampaignEngine({grid[0], covered}, wide, copt).run();
        firstWorkloadFailed(r, ref, 0, wide.size(),
                            "library does not cover predictor");
        CHECK(r.cell(0, 0, wide.size()).failureReason.find(
                  wide[1].bpred.key()) != std::string::npos);
    }

    // ---- Set-backed campaigns: quarantine and transient retries ----
    {
        LibrarySet set = LibrarySet::openRecover(setDir);
        std::vector<CampaignWorkload> setGrid(2);
        setGrid[0] = {"flt-a", &w0.prog, nullptr, &set,
                      set.find("flt-a")};
        setGrid[1] = {"flt-b", &w1.prog, nullptr, &set,
                      set.find("flt-b")};

        // A transient shard-open error is retried at the open: the
        // campaign completes with no failed cells.
        arm("io.mmap.open", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, EINTR);
        CampaignResult r = CampaignEngine(setGrid, cfgs, copt).run();
        disarmAllFailpoints();
        CHECK_EQ(r.failedCells, 0u);
        checkSameGrid(r, baseline);

        // A persistently failing shard open fails that workload's
        // cells with the reason; the campaign keeps going.
        set.unload(setGrid[0].shard);
        set.unload(setGrid[1].shard);
        arm("io.mmap.open", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, EIO);
        r = CampaignEngine(setGrid, cfgs, copt).run();
        disarmAllFailpoints();
        CHECK_EQ(r.failedCells, cfgs.size());
        CHECK(r.cell(0, 0, cfgs.size()).failed);
        CHECK(!r.cell(1, 0, cfgs.size()).failed);

        // A shard that fails to map is not read some other way: its
        // workload's cells are shard_unavailable with the file named,
        // and the other workload's estimates keep their exact bits.
        set.unload(setGrid[0].shard);
        set.unload(setGrid[1].shard);
        arm("io.mmap.map", FailpointSpec::Trigger::nth, 1,
            FailpointSpec::Action::error, ENOMEM);
        r = CampaignEngine(setGrid, cfgs, copt).run();
        disarmAllFailpoints();
        CHECK_EQ(r.failedCells, cfgs.size());
        auto cpiBits = [](const CampaignCell &cell) {
            const double v = cell.cpi();
            std::uint64_t b = 0;
            std::memcpy(&b, &v, sizeof(b));
            return b;
        };
        const std::string shardA = set.shardPath(setGrid[0].shard);
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const CampaignCell &lost = r.cell(0, c, cfgs.size());
            CHECK(lost.failed);
            CHECK(std::string(cellFailReasonToken(lost.reason)) ==
                  "shard_unavailable");
            CHECK(lost.failureReason.find(shardA) != std::string::npos);
            CHECK(!r.cell(1, c, cfgs.size()).failed);
            CHECK_EQ(cpiBits(r.cell(1, c, cfgs.size())),
                     cpiBits(baseline.cell(1, c, cfgs.size())));
        }

        // A torn shard container quarantines on recovering open; its
        // cells fail with the quarantine reason, the healthy workload
        // is unaffected — the campaign never aborts.
        const std::string shardB = set.shardPath(set.find("flt-b"));
        const Blob shardBytes = readBytes(shardB);
        writeBytes(shardB, shardBytes.data(), shardBytes.size() / 2);
        const LibrarySet degraded = LibrarySet::openRecover(setDir);
        CHECK(degraded.recovery().degraded);
        const std::size_t qa = degraded.find("flt-a");
        std::size_t qb = LibrarySet::npos;
        for (std::size_t i = 0; i < degraded.size(); ++i)
            if (degraded.quarantined(i))
                qb = i;
        CHECK(qb != LibrarySet::npos);
        CHECK(!degraded.quarantined(qa));
        if (qb != LibrarySet::npos) {
            CHECK_THROWS(degraded.shard(qb));
            std::vector<CampaignWorkload> dgrid(2);
            dgrid[0] = {"flt-a", &w0.prog, nullptr, &degraded, qa};
            dgrid[1] = {"flt-b", &w1.prog, nullptr, &degraded, qb};
            const CampaignResult dr =
                CampaignEngine(dgrid, cfgs, copt).run();
            CHECK_EQ(dr.failedCells, cfgs.size());
            for (std::size_t c = 0; c < cfgs.size(); ++c) {
                CHECK(dr.cell(1, c, cfgs.size()).failed);
                CHECK(!dr.cell(1, c, cfgs.size())
                           .failureReason.empty());
                CHECK(!dr.cell(0, c, cfgs.size()).failed);
                CHECK_NEAR(dr.cell(0, c, cfgs.size()).cpi(),
                           baseline.cell(0, c, cfgs.size()).cpi(),
                           0.0);
            }
        }
        // Restore the shard for later suites.
        writeBytes(shardB, shardBytes.data(), shardBytes.size());
    }

    // ---- The crash matrix ------------------------------------------
    // Fork a child campaign, kill it (real _exit, no unwinding) at
    // every barrier and at each step of the atomic manifest write,
    // resume in the parent, and require bit-identity with the
    // uninterrupted run and no staging temp left behind.
    {
        const char *sites[] = {
            "campaign.barrier", "io.open.write", "io.write",
            "io.fsync",         "io.rename",     "io.dirsync",
        };
        int crashes = 0;
        int completions = 0;
        // The grid checkpoints 10 barriers (6 for flt-a, 4 for
        // flt-b), each one write; hits 1..7 kill the child mid-run, 11
        // and 12 never fire so the child completes — both matrix
        // outcomes run.
        const std::uint64_t hits[] = {1, 2, 3, 4, 5, 6, 7, 11, 12};
        for (const char *site : sites) {
            for (const std::uint64_t hit : hits) {
                std::filesystem::remove(manifestPath);
                std::fflush(stdout);
                std::fflush(stderr);
                const pid_t pid = ::fork();
                CHECK(pid >= 0);
                if (pid == 0) {
                    // Child: arm the kill and run. Exit codes only —
                    // never return into the parent's harness.
                    arm(site, FailpointSpec::Trigger::nth, hit,
                        FailpointSpec::Action::crash);
                    try {
                        CampaignOptions o = copt;
                        o.manifestPath = manifestPath;
                        CampaignEngine(grid, cfgs, o).run();
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
                // Either the child died at the failpoint, or the hit
                // count exceeded the barrier count and it finished.
                CHECK(code == failpointCrashStatus || code == 0);
                code == failpointCrashStatus ? ++crashes
                                             : ++completions;
                const CampaignResult r = runWithManifest();
                checkSameGrid(r, baseline);
                CHECK(!std::filesystem::exists(manifestTmp));
                if (lpTestFailures)
                    break;
            }
            if (lpTestFailures)
                break;
        }
        // The matrix must actually have exercised both outcomes.
        CHECK(crashes > 0);
        CHECK(completions > 0);
        std::filesystem::remove(manifestPath);
    }

    // ---- Crash mid-shard-write: the writer sweeps and repairs ------
    {
        std::fflush(stdout);
        std::fflush(stderr);
        const pid_t pid = ::fork();
        CHECK(pid >= 0);
        if (pid == 0) {
            arm("io.write", FailpointSpec::Trigger::nth, 2,
                FailpointSpec::Action::crash);
            try {
                LibrarySetWriter writer(setDir);
                const TinyLib w3 =
                    buildTinyLibrary("flt-d", 150'000, 43, 8, cfgs);
                writer.addShard("flt-d", w3.lib);
            } catch (...) {
                ::_exit(99);
            }
            ::_exit(0);
        }
        int status = 0;
        CHECK_EQ(::waitpid(pid, &status, 0), pid);
        CHECK(WIFEXITED(status) &&
              WEXITSTATUS(status) == failpointCrashStatus);

        // The kill left an orphaned temp and no index entry; the set
        // still opens strict, and a writer reopen sweeps the temp.
        bool orphan = false;
        for (const auto &de :
             std::filesystem::directory_iterator(setDir))
            orphan = orphan ||
                     AtomicFileWriter::isTempFileName(
                         de.path().filename().string());
        CHECK(orphan);
        CHECK_EQ(LibrarySet::open(setDir).size(), 2u);
        {
            LibrarySetWriter writer(setDir);
            CHECK_EQ(writer.shards(), 2u);
        }
        for (const auto &de :
             std::filesystem::directory_iterator(setDir))
            CHECK(!AtomicFileWriter::isTempFileName(
                de.path().filename().string()));
    }

    std::filesystem::remove_all(setDir);
    return TEST_MAIN_RESULT();
}

/**
 * Library round-trips: build -> save -> load -> byte-identical
 * records, deterministic shuffling, breakdown accounting — and
 * container robustness: every header and record-table field of a
 * saved library corrupted in place, and the file truncated at every
 * section boundary, must produce a clean load error, never a crash;
 * crafted record counts must fail by name before they size a buffer;
 * and a replay producer's chain-cache scratch must decode, and fail,
 * exactly as a default scratch does. A loaded library maps its file
 * and refuses appends. Also the sharded fleet store (LibrarySet):
 * streaming writes, lazy opens, index metadata, and integrity
 * failures.
 */

#include "test_util.hh"

#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <vector>

#include "codec/der.hh"
#include "codec/zip.hh"
#include "core/builder.hh"
#include "core/library.hh"
#include "core/library_set.hh"
#include "core/replay.hh"
#include "uarch/config.hh"
#include "util/bytes.hh"

namespace
{

/** Read a whole file. */
lp::Blob
slurpFile(const std::string &path)
{
    lp::Blob out;
    if (FILE *f = std::fopen(path.c_str(), "rb")) {
        std::fseek(f, 0, SEEK_END);
        out.resize(static_cast<std::size_t>(std::ftell(f)));
        std::fseek(f, 0, SEEK_SET);
        if (!out.empty() &&
            std::fread(out.data(), 1, out.size(), f) != out.size())
            out.clear();
        std::fclose(f);
    }
    return out;
}

/** Overwrite a whole file. */
void
spewFile(const std::string &path, const lp::Blob &data)
{
    FILE *f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    if (!data.empty())
        CHECK(std::fwrite(data.data(), 1, data.size(), f) ==
              data.size());
    std::fclose(f);
}

/**
 * LivePointLibrary::contentHash() folded one record at a time, the
 * definition the four-lane hash must reproduce. A delta record's base
 * is the previous record, which is the previous stored one in an
 * unshuffled library.
 */
std::uint64_t
refContentHash(const lp::LivePointLibrary &lib)
{
    using namespace lp;
    std::uint64_t h = hashMix(0x6c70'6c69'62ull);
    for (const char ch : lib.benchmark())
        h = hashCombine(h, static_cast<std::uint64_t>(ch));
    h = hashCombine(h, lib.design().benchLength);
    h = hashCombine(h, lib.design().count);
    h = hashCombine(h, lib.design().measureLen);
    h = hashCombine(h, lib.design().warmLen);
    for (std::size_t i = 0; i < lib.size(); ++i) {
        h = hashCombine(h, lib.windowIndex(i));
        const ByteSpan rec = lib.record(i);
        h = hashCombine(h, fnv1a(rec.data, rec.size));
        if (lib.recordFlags(i) & LivePointLibrary::kFlagDelta) {
            h = hashCombine(h, lib.recordFlags(i));
            h = hashCombine(h, i - 1);
        }
    }
    return h;
}

} // namespace

int
main()
{
    using namespace lp;
    using namespace lptest;

    const CoreConfig cfg = CoreConfig::eightWay();
    TinyLib t = buildTinyLibrary("libtest", 400'000, 5, 40);
    const Program &prog = t.prog;
    const SampleDesign &design = t.design;
    LivePointLibrary &lib = t.lib;

    // An in-memory build holds its records in the append arena.
    CHECK_EQ(lib.backingBytes(), 0u);

    CHECK_EQ(lib.size(), design.count);
    CHECK(lib.benchmark() == "libtest");
    CHECK(lib.design() == design);
    CHECK(lib.totalCompressedBytes() > 0);
    CHECK(lib.totalUncompressedBytes() > lib.totalCompressedBytes());

    // Same build twice -> byte-identical libraries, equal content
    // hashes; shuffling changes the stored order and so the hash.
    {
        const TinyLib again =
            buildTinyLibrary("libtest", 400'000, 5, 40);
        CHECK_EQ(lib.totalCompressedBytes(),
                 again.lib.totalCompressedBytes());
        for (std::size_t i = 0; i < lib.size(); ++i)
            CHECK(lib.get(i).serialize() ==
                  again.lib.get(i).serialize());
        CHECK_EQ(lib.contentHash(), again.lib.contentHash());
        LivePointLibrary shuffled = lib;
        Rng rng(3, "hash-shuffle");
        shuffled.shuffle(rng);
        CHECK(shuffled.contentHash() != lib.contentHash());
    }

    // Golden pins: the content hashes of this plain build and of its
    // predecessor-delta build, recorded from the per-instruction
    // stream derivation. A mismatch means the simulated stream or the
    // container bytes changed.
    {
        CHECK_PIN(lib.contentHash(), 0xaf60d378fab88835ull);
        const TinyLib delta = buildTinyLibrary(
            "libtest", 400'000, 5, 40, {cfg}, 0,
            [](LivePointBuilderConfig &bc) { bc.deltaEncode = true; });
        CHECK(delta.lib.deltaCount() > 0);
        CHECK_PIN(delta.lib.contentHash(), 0x1aac5f435c16cf3eull);

        // Container pins: the saved file bytes of both builds (LPLIB3
        // and LPLIB4), so every header and table byte the writer lays
        // down stays fixed, not only what a load accepts.
        const std::string pinPath = "libtest-pin.lpl";
        lib.save(pinPath);
        const Blob plainFile = slurpFile(pinPath);
        CHECK_PIN(fnv1a(plainFile.data(), plainFile.size()),
                  0x787c2c8c7251e627ull);
        delta.lib.save(pinPath);
        const Blob deltaFile = slurpFile(pinPath);
        CHECK_PIN(fnv1a(deltaFile.data(), deltaFile.size()),
                  0xdb8eb807fdabd753ull);
        std::remove(pinPath.c_str());
    }

    // contentHash() hashes four records at a time and must equal the
    // one-record-at-a-time fold, for plain and delta libraries of 1 to
    // 9 records. Record sizes are drawn so lanes run out at different
    // times, take the next record, and leave a tail; some records are
    // empty. A shuffled plain library checks that records hashed in
    // file order are folded in stored order.
    {
        Rng rng(29, "lane-hash");
        for (int delta = 0; delta < 2; ++delta) {
            for (std::size_t n = 1; n <= 9; ++n) {
                LivePointLibrary l("lanes", design);
                for (std::size_t i = 0; i < n; ++i) {
                    const std::uint64_t pick = rng.nextBounded(4);
                    const std::size_t size =
                        pick == 0 ? rng.nextBounded(2)
                                  : pick == 1 ? 1 + rng.nextBounded(16)
                                              : rng.nextBounded(6000);
                    Blob rec(size);
                    for (std::uint8_t &b : rec)
                        b = static_cast<std::uint8_t>(rng.next());
                    const bool isDelta =
                        delta && i > 0 && rng.nextBounded(4) != 0;
                    l.addEncoded(rec, size + 1, 100 + i,
                                 isDelta ? LivePointLibrary::kFlagDelta
                                         : 0,
                                 0);
                }
                CHECK_EQ(l.contentHash(), refContentHash(l));
                if (!delta) {
                    Rng order(n, "lane-hash-shuffle");
                    l.shuffle(order);
                    CHECK_EQ(l.contentHash(), refContentHash(l));
                }
            }
        }
        CHECK_EQ(lib.contentHash(), refContentHash(lib));
    }

    // Points carry consistent metadata and a usable predictor image.
    {
        const LivePoint p = lib.get(lib.size() / 2);
        CHECK_EQ(p.windowStart,
                 design.windowStart(lib.size() / 2));
        CHECK_EQ(p.regs.instIndex, p.windowStart);
        CHECK_EQ(p.warmLen, design.warmLen);
        CHECK(p.findBpredImage(cfg.bpred.key()) != nullptr);
        CHECK(p.findBpredImage("comb-nonexistent") == nullptr);
        CHECK(p.memImage.blockCount() > 0);
        const LivePointBreakdown b = p.breakdown();
        CHECK(b.total > 0);
        CHECK(b.memData > 0);
        CHECK(b.l2Tags > 0);
        CHECK(b.bpred > 0);
    }

    // Save -> load -> identical content (LPLIB3, the default).
    const std::string path = "libtest-roundtrip.lpl";
    lib.save(path);
    const LivePointLibrary loaded = LivePointLibrary::load(path);
    CHECK(loaded.design() == lib.design());
    CHECK(loaded.benchmark() == lib.benchmark());
    CHECK_EQ(loaded.size(), lib.size());
    CHECK_EQ(loaded.totalCompressedBytes(), lib.totalCompressedBytes());
    CHECK_EQ(loaded.totalUncompressedBytes(),
             lib.totalUncompressedBytes());
    for (std::size_t i = 0; i < lib.size(); ++i) {
        CHECK_EQ(loaded.compressedSize(i), lib.compressedSize(i));
        CHECK_EQ(loaded.windowIndex(i), lib.windowIndex(i));
        CHECK(loaded.get(i).serialize() == lib.get(i).serialize());
    }

    // The loaded library maps the container: record-identical,
    // hash-identical and decode-identical to the build, and read-only.
    {
        CHECK_EQ(loaded.backingBytes(), std::filesystem::file_size(path));
        CHECK(identicalRecords(loaded, lib));
        CHECK_EQ(loaded.contentHash(), lib.contentHash());
        for (std::size_t i = 0; i < lib.size(); ++i)
            CHECK_EQ(loaded.rawSize(i), lib.rawSize(i));
        LivePointDecodeScratch scratch;
        LivePoint pt;
        for (const std::size_t i :
             {std::size_t{0}, lib.size() / 2, lib.size() - 1}) {
            loaded.decodeInto(i, scratch, pt);
            CHECK(pt.serialize() == lib.get(i).serialize());
        }
        auto refused = [](const std::function<void()> &append) {
            try {
                append();
            } catch (const std::logic_error &) {
                return true;
            }
            return false;
        };
        LivePointLibrary appended = loaded;
        const ByteSpan rec = lib.record(0);
        CHECK(refused([&] {
            appended.addEncoded(Blob(rec.data, rec.data + rec.size),
                                lib.rawSize(0), lib.windowIndex(0), 0, 0);
        }));
        CHECK(refused([&] { appended.reserve(rec.size, 1); }));
        CHECK(identicalRecords(appended, lib));
    }
    std::remove(path.c_str());

    // Zero-copy spans: a loaded library's records point into one
    // backing buffer, in stored order, and survive a library move.
    {
        const std::string p3 = "libtest-span.lpl";
        lib.save(p3);
        LivePointLibrary span = LivePointLibrary::load(p3);
        const std::uint8_t *base = span.record(0).data;
        for (std::size_t i = 1; i < span.size(); ++i) {
            const ByteSpan prev = span.record(i - 1);
            CHECK(span.record(i).data == prev.data + prev.size);
        }
        const LivePointLibrary moved = std::move(span);
        CHECK(moved.record(0).data == base);
        CHECK(moved.get(0).serialize() == lib.get(0).serialize());
        std::remove(p3.c_str());
    }

    // Malformed container files raise, never crash or leak.
    {
        const std::string pbad = "libtest-bad.lpl";
        lib.save(pbad);
        std::filesystem::resize_file(pbad, 80); // truncate mid-table
        CHECK_THROWS(LivePointLibrary::load(pbad));
        std::remove(pbad.c_str());
        CHECK_THROWS(
            LivePointLibrary::load("libtest-does-not-exist.lpl"));
    }

    // LPLIB3 robustness: corrupting any header field or any
    // record-table field, or truncating at any section boundary, must
    // produce a clean load error.
    {
        const std::string pbad = "libtest-corrupt.lpl";
        lib.save(pbad);
        const Blob good = slurpFile(pbad);
        CHECK(good.size() > 64 + lib.size() * 32);
        CHECK((LivePointLibrary::load(pbad), true));

        // Header fields at offsets 8..56: version, count, metaOffset,
        // metaSize, tableOffset, dataOffset, fileSize. Each corrupted
        // two ways: off-by-one and absurd.
        for (std::size_t off = 8; off < 64; off += 8) {
            for (const std::uint8_t how : {0, 1}) {
                Blob bad = good;
                if (how == 0)
                    bad[off] ^= 0x01;
                else
                    for (std::size_t j = 0; j < 8; ++j)
                        bad[off + j] = 0xff;
                spewFile(pbad, bad);
                CHECK_THROWS(LivePointLibrary::load(pbad));
            }
        }
        // Magic corruption: no container load() accepts, and the
        // error names the file.
        auto rejectedNamingFile = [&](const Blob &bad) {
            spewFile(pbad, bad);
            try {
                (void)LivePointLibrary::load(pbad);
                CHECK(false);
            } catch (const std::exception &e) {
                CHECK(std::string(e.what()).find(pbad) !=
                      std::string::npos);
            }
        };
        {
            Blob bad = good;
            bad[0] ^= 0xff;
            rejectedNamingFile(bad);
        }
        // The retired LPLIB2 layout — the whole library as one DER
        // sequence opening with the "LPLIB2" magic integer — is no
        // longer a container either.
        {
            DerWriter w;
            w.beginSequence();
            w.putUint(0x4c50'4c49'4232ull); // "LPLIB2"
            w.putString(lib.benchmark());
            w.beginSequence();
            w.putUint(design.benchLength);
            w.putUint(design.count);
            w.putUint(design.measureLen);
            w.putUint(design.warmLen);
            w.endSequence();
            w.putUint(lib.size());
            for (std::size_t i = 0; i < lib.size(); ++i) {
                const ByteSpan rec = lib.record(i);
                w.putUint(lib.rawSize(i));
                w.putUint(lib.windowIndex(i));
                w.putBytes(rec.data, rec.size);
            }
            w.endSequence();
            rejectedNamingFile(w.finish());
        }

        // Record-table fields: offset / size / rawSize / index of the
        // first, a middle, and the last record. Offset and size are
        // layout (any bit flip must be caught); rawSize and index are
        // accounting, so the *detectable* corruption is layout-scale;
        // flip them together with a size so the table stays
        // inconsistent.
        const std::size_t tableAt = [&good]() {
            std::size_t v = 0;
            for (unsigned j = 0; j < 8; ++j)
                v |= static_cast<std::size_t>(good[40 + j]) << (8 * j);
            return v;
        }();
        for (const std::size_t rec :
             {std::size_t{0}, lib.size() / 2, lib.size() - 1}) {
            for (const std::size_t field : {0, 8}) {
                Blob bad = good;
                bad[tableAt + rec * 32 + field] ^= 0x01;
                spewFile(pbad, bad);
                CHECK_THROWS(LivePointLibrary::load(pbad));
            }
            // rawSize and index are accounting, not layout: the file
            // still loads, but decoding the record must fail the
            // cross-check instead of returning a silently wrong
            // point.
            for (const std::size_t field : {16, 24}) {
                Blob bad = good;
                bad[tableAt + rec * 32 + field] ^= 0x01;
                spewFile(pbad, bad);
                const LivePointLibrary damaged =
                    LivePointLibrary::load(pbad);
                CHECK_THROWS(damaged.get(rec));
            }
        }

        // Truncation at every section boundary (and just around
        // them), plus an appended byte: the size bookkeeping must
        // catch each.
        const std::size_t dataAt = [&good]() {
            std::size_t v = 0;
            for (unsigned j = 0; j < 8; ++j)
                v |= static_cast<std::size_t>(good[48 + j]) << (8 * j);
            return v;
        }();
        for (const std::size_t cut :
             {std::size_t{0}, std::size_t{7}, std::size_t{63},
              std::size_t{64}, tableAt - 1, tableAt, tableAt + 32,
              dataAt - 1, dataAt, dataAt + 1,
              (dataAt + good.size()) / 2, good.size() - 1}) {
            Blob bad(good.begin(),
                     good.begin() + static_cast<std::ptrdiff_t>(cut));
            spewFile(pbad, bad);
            CHECK_THROWS(LivePointLibrary::load(pbad));
        }
        {
            Blob bad = good;
            bad.push_back(0);
            spewFile(pbad, bad);
            CHECK_THROWS(LivePointLibrary::load(pbad));
        }

        // The pristine bytes still load after all of the above (the
        // corruption harness itself is sound).
        spewFile(pbad, good);
        CHECK((LivePointLibrary::load(pbad), true));
        std::remove(pbad.c_str());
    }

    // Crafted plain records (LPLIB3 carries no raw checksum, so a
    // library file reaches the record parsers as is): wire counts
    // that would size a buffer far past the record, and a block count
    // whose product with the block size wraps 64 bits. Each must be
    // rejected with a runtime_error naming its section — never an
    // allocation failure or a write past a buffer.
    {
        const LivePoint p0 = lib.get(0);
        enum class Craft { csrCount, imageCount, imageWrap, imageBlock };
        auto craftRecord = [&p0](Craft c) {
            DerWriter w;
            w.beginSequence();
            w.putUint(p0.index);
            w.putUint(p0.windowStart);
            w.putUint(p0.warmLen);
            w.putUint(p0.measureLen);
            p0.regs.serialize(w);
            if (c == Craft::csrCount) {
                p0.memImage.serialize(w);
            } else {
                const std::uint64_t blockBytes =
                    c == Craft::imageWrap    ? std::uint64_t{1} << 31
                    : c == Craft::imageBlock ? (std::uint64_t{1} << 32) + 64
                                             : 64;
                const std::uint64_t count =
                    c == Craft::imageWrap ? std::uint64_t{1} << 33
                    : c == Craft::imageBlock ? 1
                                             : std::uint64_t{1} << 40;
                w.beginSequence();
                w.putUint(blockBytes);
                w.putUint(count);
                w.putUint(0);
                w.putBytes(Blob(64, 0xab));
                w.endSequence();
            }
            if (c == Craft::csrCount) {
                w.beginSequence();
                w.putUint(32 * 1024);
                w.putUint(2);
                w.putUint(64);
                w.putUint(std::uint64_t{1} << 40);
                for (std::uint64_t j = 0; j < 8; ++j)
                    w.putUint(j * 2);
                w.endSequence();
            } else {
                p0.l1i.serialize(w);
            }
            p0.l1d.serialize(w);
            p0.l2.serialize(w);
            p0.itlb.serialize(w);
            p0.dtlb.serialize(w);
            w.putUint(p0.bpredImages.size());
            for (const auto &kv : p0.bpredImages) {
                w.putString(kv.first);
                w.putBytes(kv.second);
            }
            w.endSequence();
            return w.finish();
        };
        const std::string pcraft = "libtest-crafted.lpl";
        for (const Craft c : {Craft::csrCount, Craft::imageCount,
                              Craft::imageWrap, Craft::imageBlock}) {
            const Blob raw = craftRecord(c);
            LivePointLibrary crafted(lib.benchmark(), lib.design());
            crafted.addEncoded(zipCompress(raw), raw.size(), p0.index, 0,
                               0);
            crafted.save(pcraft);
            const char *section = c == Craft::csrCount
                                      ? "cache set record"
                                      : "memory image";
            const LivePointLibrary loaded =
                LivePointLibrary::load(pcraft);
            bool named = false;
            try {
                loaded.get(0);
            } catch (const std::runtime_error &e) {
                named = std::string(e.what()).find(section) !=
                        std::string::npos;
            }
            CHECK(named);
        }
        std::remove(pcraft.c_str());
    }

    // Checkpoint economics: a delta-chained library (LPLIB4) decodes
    // point-for-point identically to the plain build, stores fewer
    // bytes, and survives save/load/shuffle with strict corruption
    // detection.
    {
        TinyLib tc = buildTinyLibrary(
            "libtest", 400'000, 5, 40, {cfg}, 0,
            [](LivePointBuilderConfig &bc) { bc.deltaEncode = true; });
        LivePointLibrary &clib = tc.lib;
        CHECK(clib.deltaCount() > 0);
        CHECK(clib.deltaCount() < clib.size()); // keyframes remain
        CHECK(clib.totalCompressedBytes() < lib.totalCompressedBytes());
        for (std::size_t i = 0; i < lib.size(); ++i) {
            CHECK(clib.get(i).serialize() == lib.get(i).serialize());
            CHECK_EQ(clib.rawSize(i), lib.rawSize(i));
            // Built in file order, each delta's base is the record
            // before it: a record sits depth links above its keyframe.
            CHECK_EQ(clib.chainKeyframe(i) + clib.chainDepth(i), i);
            CHECK_EQ(clib.chainDepth(i) > 0,
                     (clib.recordFlags(i) &
                      LivePointLibrary::kFlagDelta) != 0);
        }

        // The scratch decoder in stored order (the replay producer
        // pattern, chain cache hot) and in random order (cold chain
        // walks) must both reproduce the plain build's points.
        {
            LivePointDecodeScratch scratch;
            LivePoint p;
            for (std::size_t i = 0; i < clib.size(); ++i) {
                clib.decodeInto(i, scratch, p);
                CHECK(p.serialize() == lib.get(i).serialize());
            }
            Rng rng(11, "lpl4-order");
            for (int k = 0; k < 40; ++k) {
                const std::size_t i = rng.nextBounded(clib.size());
                clib.decodeInto(i, scratch, p);
                CHECK(p.serialize() == lib.get(i).serialize());
            }
        }

        // A library with delta records saves as LPLIB4; a plain one
        // stays LPLIB3.
        const std::string p4 = "libtest-lpl4.lpl";
        clib.save(p4);
        {
            const Blob head = slurpFile(p4);
            CHECK(head.size() > 80);
            CHECK(std::memcmp(head.data(), "LPLIB4\n", 7) == 0);
            const std::string p3 = "libtest-magic3.lpl";
            lib.save(p3);
            const Blob plainHead = slurpFile(p3);
            CHECK(std::memcmp(plainHead.data(), "LPLIB3\n", 7) == 0);
            std::remove(p3.c_str());
        }

        const LivePointLibrary b =
            LivePointLibrary::load(p4);
        CHECK(identicalRecords(b, clib));
        CHECK_EQ(b.contentHash(), clib.contentHash());
        CHECK_EQ(b.deltaCount(), clib.deltaCount());
        LivePointDecodeScratch scratch;
        LivePoint p;
        for (std::size_t i = 0; i < b.size(); ++i) {
            CHECK_EQ(b.recordFlags(i), clib.recordFlags(i));
            // validateChains rebuilds what addEncoded recorded.
            CHECK_EQ(b.chainDepth(i), clib.chainDepth(i));
            CHECK_EQ(b.chainKeyframe(i), clib.chainKeyframe(i));
            b.decodeInto(i, scratch, p);
            CHECK(p.serialize() == lib.get(i).serialize());
        }

        // Shuffle -> save -> reload: delta chains link records by
        // file position, not view position, so the permuted library
        // must decode identically (matched via its window indices).
        {
            LivePointLibrary sh = clib;
            Rng rng(21, "lpl4-shuffle");
            sh.shuffle(rng);
            CHECK_EQ(sh.deltaCount(), clib.deltaCount());
            const std::string psh = "libtest-lpl4-shuffled.lpl";
            sh.save(psh);
            const LivePointLibrary b =
                LivePointLibrary::load(psh);
            CHECK(identicalRecords(b, sh));
            CHECK_EQ(b.contentHash(), sh.contentHash());
            LivePointDecodeScratch scratch;
            LivePoint p;
            for (std::size_t i = 0; i < b.size(); ++i) {
                CHECK_EQ(b.windowIndex(i), sh.windowIndex(i));
                CHECK_EQ(b.chainDepth(i), sh.chainDepth(i));
                CHECK_EQ(b.chainDepth(i) == 0,
                         !(b.recordFlags(i) &
                           LivePointLibrary::kFlagDelta));
                b.decodeInto(i, scratch, p);
                CHECK(p.serialize() ==
                      lib.get(b.windowIndex(i)).serialize());
            }

            // A replay producer's scratch (a chain cache of 16)
            // visiting in shuffled order decodes every record
            // exactly as a fresh scratch does, while walking
            // fewer records than cold walks (depth + 1 each).
            LivePointDecodeScratch cached;
            cached.keepChains = 16;
            std::size_t walked = 0;
            std::size_t cold = 0;
            for (const std::size_t i : replayOrder(b.size(), 41)) {
                LivePointDecodeScratch fresh;
                LivePoint q;
                b.decodeInto(i, cached, p);
                b.decodeInto(i, fresh, q);
                CHECK(p.serialize() == q.serialize());
                CHECK(cached.payload == fresh.payload);
                walked += cached.chain.size();
                cold += b.chainDepth(i) + 1;
            }
            CHECK(walked < cold);
            std::remove(psh.c_str());
        }

        // Corruption strictness: a flipped byte in a delta record's
        // stream or in a record's table metadata must be rejected at
        // load or at decode — never a silently different point (every
        // delta record carries a raw checksum) — and the retired
        // dictionary encoding must be rejected at load.
        {
            const Blob good = slurpFile(p4);
            auto u64At = [&good](std::size_t off) {
                std::size_t v = 0;
                for (unsigned j = 0; j < 8; ++j)
                    v |= static_cast<std::size_t>(good[off + j])
                         << (8 * j);
                return v;
            };
            const std::size_t count = u64At(16);
            const std::size_t metaSize = u64At(32);
            const std::size_t dictAt = u64At(40);
            const std::size_t tableAt = u64At(56);
            const std::size_t dataAt = u64At(64);
            CHECK_EQ(u64At(48), 0u); // the reserved section is empty
            CHECK_EQ(dictAt, tableAt);
            CHECK_EQ(count, clib.size());
            const std::string pbad = "libtest-lpl4-bad.lpl";

            // The plain build's raw bytes per position: what every
            // successful decode, and every raw a chain cache keeps,
            // must hold.
            std::vector<Blob> plainRaw;
            for (std::size_t i = 0; i < lib.size(); ++i)
                plainRaw.push_back(lib.get(i).serialize());

            // The damaged file through a replay producer's scratch (a
            // 16-chain cache) in shuffled order: each record fails or
            // succeeds exactly as through a default scratch, each
            // success equals the plain build, and after every decode
            // each kept raw is its record's verified raw — a failed
            // decode never leaves an entry behind.
            auto sameThroughChainCache = [&](const LivePointLibrary &d) {
                std::vector<bool> decodes(d.size());
                LivePoint p;
                for (std::size_t i = 0; i < d.size(); ++i) {
                    LivePointDecodeScratch fresh;
                    try {
                        d.decodeInto(i, fresh, p);
                        decodes[i] = true;
                    } catch (const std::exception &) {
                    }
                }
                LivePointDecodeScratch cached;
                cached.keepChains = 16;
                for (const std::size_t i : replayOrder(d.size(), 31)) {
                    bool ok = true;
                    try {
                        d.decodeInto(i, cached, p);
                        CHECK(p.serialize() == plainRaw[i]);
                    } catch (const std::exception &) {
                        ok = false;
                    }
                    CHECK_EQ(ok, decodes[i]);
                    for (const auto &e : cached.kept)
                        if (e.pos != ~std::uint64_t(0))
                            CHECK(e.raw == plainRaw[e.pos]);
                }
            };

            // The file must fail loudly: load throws, or at least one
            // decode throws — and no decode may return wrong bytes.
            auto mustFail = [&](const Blob &bad) {
                spewFile(pbad, bad);
                LivePointDecodeScratch scratch;
                LivePoint p;
                bool anyThrew = false;
                bool wrongBytes = false;
                try {
                    const LivePointLibrary damaged =
                        LivePointLibrary::load(pbad);
                    for (std::size_t i = 0; i < damaged.size();
                         ++i) {
                        try {
                            damaged.decodeInto(i, scratch, p);
                            if (p.serialize() !=
                                lib.get(damaged.windowIndex(i))
                                    .serialize())
                                wrongBytes = true;
                        } catch (const std::exception &) {
                            anyThrew = true;
                        }
                    }
                    sameThroughChainCache(damaged);
                } catch (const std::exception &) {
                    anyThrew = true;
                }
                CHECK(anyThrew);
                CHECK(!wrongBytes);
            };

            // Load itself must refuse the file.
            auto mustReject = [&](const Blob &bad) {
                spewFile(pbad, bad);
                CHECK_THROWS(LivePointLibrary::load(pbad));
            };
            auto putU64At = [](Blob &b, std::size_t off, std::uint64_t v) {
                for (unsigned j = 0; j < 8; ++j)
                    b[off + j] = static_cast<std::uint8_t>(v >> (8 * j));
            };

            // The layout the retired --dict option wrote: a
            // well-formed LPLIB4 whose reserved section between meta
            // and table holds a shared dictionary.
            {
                const std::size_t dictBytes = 4096;
                Blob bad(good.begin(),
                         good.begin() +
                             static_cast<std::ptrdiff_t>(80 + metaSize));
                bad.insert(bad.end(), dictBytes, 0x5a);
                bad.insert(bad.end(),
                           good.begin() +
                               static_cast<std::ptrdiff_t>(tableAt),
                           good.end());
                putU64At(bad, 48, dictBytes);
                putU64At(bad, 56, tableAt + dictBytes);
                putU64At(bad, 64, dataAt + dictBytes);
                putU64At(bad, 72, good.size() + dictBytes);
                mustReject(bad);
            }
            // A row carrying the retired dictionary flag (value 1), on
            // a keyframe row and on a delta row.
            for (const std::size_t row : {std::size_t{0}, std::size_t{1}}) {
                Blob bad = good;
                bad[tableAt + row * 56 + 32] |= 0x01;
                mustReject(bad);
            }
            // A delta record's compressed stream.
            {
                std::size_t deltaRow = count;
                for (std::size_t i = 0; i < count; ++i)
                    if (good[tableAt + i * 56 + 32] &
                        LivePointLibrary::kFlagDelta) {
                        deltaRow = i;
                        break;
                    }
                CHECK(deltaRow < count);
                const std::size_t off =
                    u64At(tableAt + deltaRow * 56);
                const std::size_t sz =
                    u64At(tableAt + deltaRow * 56 + 8);
                Blob bad = good;
                bad[dataAt + off + sz / 2] ^= 0x01;
                mustFail(bad);
                // Its raw checksum, its base link, and its flags.
                bad = good;
                bad[tableAt + deltaRow * 56 + 48] ^= 0x01;
                mustFail(bad);
                bad = good;
                bad[tableAt + deltaRow * 56 + 40] ^= 0x01;
                mustFail(bad);
                bad = good;
                bad[tableAt + deltaRow * 56 + 32] |= 0x80;
                mustFail(bad);
            }
            // A decode that fails straight into payload must not leave
            // the previous record named as cached: decode keyframe a,
            // then keyframe b whose table rawSize is off by one (its
            // bytes land in payload before the size check fails), then
            // a's first delta, which must still decode from a's bytes.
            {
                std::vector<std::size_t> keys; // keyframes with a child
                for (std::size_t i = 0; i + 1 < count; ++i)
                    if (clib.chainDepth(i) == 0 &&
                        clib.chainDepth(i + 1) == 1)
                        keys.push_back(i);
                CHECK(keys.size() >= 2);
                if (keys.size() >= 2) {
                    const std::size_t a = keys[0];
                    const std::size_t b = keys[1];
                    Blob bad = good;
                    bad[tableAt + b * 56 + 16] ^= 0x01;
                    spewFile(pbad, bad);
                    const LivePointLibrary damaged =
                        LivePointLibrary::load(pbad);
                    LivePointDecodeScratch scratch;
                    LivePoint p;
                    damaged.decodeInto(a, scratch, p);
                    CHECK_THROWS(damaged.decodeInto(b, scratch, p));
                    bool ok = true;
                    try {
                        damaged.decodeInto(a + 1, scratch, p);
                    } catch (const std::exception &) {
                        ok = false;
                    }
                    CHECK(ok && p.serialize() == plainRaw[a + 1]);
                    sameThroughChainCache(damaged);
                }
            }
            // A flipped window index on delta record 1 fails that
            // record's decode alone. Decoding in stored order through
            // one scratch (the inspect_library --verify walk) must not
            // let the failed decode poison the chain cache: every
            // other record still equals the plain build.
            {
                CHECK(clib.recordFlags(1) & LivePointLibrary::kFlagDelta);
                Blob bad = good;
                bad[tableAt + 1 * 56 + 24] ^= 0x01;
                spewFile(pbad, bad);
                const LivePointLibrary damaged =
                    LivePointLibrary::load(pbad);
                LivePointDecodeScratch scratch;
                LivePoint p;
                std::size_t failures = 0;
                for (std::size_t i = 0; i < damaged.size(); ++i) {
                    try {
                        damaged.decodeInto(i, scratch, p);
                        CHECK(p.serialize() == lib.get(i).serialize());
                    } catch (const std::exception &) {
                        ++failures;
                        CHECK_EQ(i, 1u);
                    }
                }
                CHECK_EQ(failures, 1u);
                sameThroughChainCache(damaged);
            }
            // Truncation at the section boundaries.
            for (const std::size_t cut :
                 {std::size_t{40}, dictAt, tableAt, dataAt,
                  good.size() - 1}) {
                mustReject(Blob(
                    good.begin(),
                    good.begin() + static_cast<std::ptrdiff_t>(cut)));
            }
            // Pristine bytes still load and decode (harness sanity),
            // and each record's raw bytes are the plain build's.
            spewFile(pbad, good);
            {
                const LivePointLibrary ok =
                    LivePointLibrary::load(pbad);
                CHECK(ok.get(0).serialize() == lib.get(0).serialize());
                LivePointDecodeScratch scratch;
                LivePoint p;
                for (std::size_t i = 0; i < ok.size(); ++i) {
                    ok.decodeInto(i, scratch, p);
                    CHECK(scratch.payload == plainRaw[i]);
                }
                sameThroughChainCache(ok);
            }
            std::remove(pbad.c_str());
        }
        std::remove(p4.c_str());

        // Chain-length variants round-trip too. With a chain of one
        // every record is a keyframe, so the container follows the
        // records and stays LPLIB3; one chain across the whole
        // library is the deepest walk a decode can face.
        for (const unsigned chain : {1u, 40u}) {
            TinyLib tv = buildTinyLibrary(
                "libtest", 400'000, 5, 40, {cfg}, 0,
                [chain](LivePointBuilderConfig &bc) {
                    bc.deltaEncode = true;
                    bc.maxDeltaChain = chain;
                });
            CHECK_EQ(tv.lib.deltaCount() > 0, chain > 1);
            const std::string pv = "libtest-lpl4-variant.lpl";
            tv.lib.save(pv);
            CHECK(std::memcmp(slurpFile(pv).data(),
                              chain > 1 ? "LPLIB4\n" : "LPLIB3\n",
                              7) == 0);
            const LivePointLibrary b = LivePointLibrary::load(pv);
            CHECK(identicalRecords(b, tv.lib));
            LivePointDecodeScratch scratch;
            LivePoint p;
            for (std::size_t i = 0; i < b.size(); ++i) {
                b.decodeInto(i, scratch, p);
                CHECK(p.serialize() == lib.get(i).serialize());
            }
            std::remove(pv.c_str());
        }
    }

    // Shuffling is a seed-deterministic permutation.
    {
        LivePointLibrary a = lib;
        LivePointLibrary b = lib;
        Rng ra(77, "shuffle");
        Rng rb(77, "shuffle");
        a.shuffle(ra);
        b.shuffle(rb);
        bool permuted = false;
        std::uint64_t sumA = 0;
        std::uint64_t sumB = 0;
        for (std::size_t i = 0; i < a.size(); ++i) {
            const LivePoint pa = a.get(i);
            const LivePoint pb = b.get(i);
            CHECK_EQ(pa.index, pb.index);
            // The metadata index travels with the record.
            CHECK_EQ(a.windowIndex(i), pa.index);
            permuted = permuted || pa.index != i;
            sumA += pa.index;
            sumB += pb.index;
        }
        CHECK(permuted);
        // Still a permutation of 0..n-1.
        const std::uint64_t n = a.size();
        CHECK_EQ(sumA, n * (n - 1) / 2);
        CHECK_EQ(sumB, n * (n - 1) / 2);
    }

    // The sharded fleet store: streaming writes leave a valid set
    // after every append, opens are lazy and metadata-only, the index
    // carries point counts and content hashes, and integrity breaks
    // (unknown name, swapped shard, corrupt index) fail loudly.
    {
        const std::string dir = "libtest-set";
        std::filesystem::remove_all(dir);

        const TinyLib other =
            buildTinyLibrary("libtest-b", 300'000, 9, 24);
        {
            LibrarySetWriter writer(dir);
            writer.addShard("wl-a", lib);
            CHECK_EQ(writer.shards(), 1u);
            // The set on disk is already valid mid-build.
            const LibrarySet partial = LibrarySet::open(dir);
            CHECK_EQ(partial.size(), 1u);
        }
        {
            // Reopening the writer appends; duplicate names throw.
            LibrarySetWriter writer(dir);
            CHECK_EQ(writer.shards(), 1u);
            CHECK_THROWS(writer.addShard("wl-a", other.lib));
            writer.addShard("wl-b", other.lib);
            CHECK_EQ(writer.shards(), 2u);
        }
        {
            // The builder's streaming entry: build a shard straight
            // into the set. Builds are deterministic, so it must
            // byte-match the separately built library.
            LibrarySetWriter writer(dir);
            LivePointBuilderConfig bc;
            bc.bpredConfigs = {CoreConfig::eightWay().bpred};
            LivePointBuilder shardBuilder(bc);
            const BuilderStats st = shardBuilder.buildInto(
                writer, "wl-c", other.prog, other.design);
            CHECK_EQ(st.points, other.lib.size());
            CHECK_EQ(writer.shards(), 3u);
            const LibrarySet reopened = LibrarySet::open(dir);
            CHECK(identicalRecords(reopened.shard(reopened.find("wl-c")),
                                   other.lib));
        }

        // Lazy opens: the set maps a shard on first access and
        // unmaps it on unload.
        {
            const LibrarySet set = LibrarySet::open(dir);
            CHECK_EQ(set.size(), 3u);
            CHECK_EQ(set.loadedCount(), 0u); // open touches no shard
            CHECK_EQ(set.find("wl-a"), 0u);
            CHECK_EQ(set.find("wl-b"), 1u);
            CHECK_EQ(set.find("wl-missing"), LibrarySet::npos);
            CHECK_EQ(set.points(0), lib.size());
            CHECK_EQ(set.points(1), other.lib.size());
            // Index metadata matches the libraries without opening.
            CHECK_EQ(set.contentHash(0), lib.contentHash());
            CHECK_EQ(set.contentHash(1), other.lib.contentHash());
            CHECK_EQ(set.loadedCount(), 0u);

            const LivePointLibrary &s0 = set.shard(0);
            CHECK(set.isLoaded(0));
            CHECK(!set.isLoaded(1));
            CHECK_EQ(set.loadedCount(), 1u);
            CHECK(identicalRecords(s0, lib));
            CHECK(set.fileBytes(0) > 0);
            CHECK_EQ(s0.backingBytes(), set.fileBytes(0));
            CHECK_EQ(set.mappedBytes(), set.fileBytes(0));
            CHECK(identicalRecords(set.shard(1), other.lib));
            CHECK_EQ(set.loadedCount(), 2u);
            CHECK_EQ(set.mappedBytes(), set.fileBytes(0) + set.fileBytes(1));
            set.unload(0);
            CHECK(!set.isLoaded(0));
            CHECK_EQ(set.loadedCount(), 1u);
            CHECK_EQ(set.mappedBytes(), set.fileBytes(1));
            // A reopened shard is the same library again.
            CHECK(identicalRecords(set.shard(0), lib));
        }

        // Integrity: a shard file swapped behind the index must fail
        // the open-time cross-check, not replay different points.
        {
            const LibrarySet set = LibrarySet::open(dir);
            const Blob shardB = slurpFile(set.shardPath(1));
            const Blob shardA = slurpFile(set.shardPath(0));
            spewFile(set.shardPath(0), shardB);
            CHECK_THROWS(set.shard(0));
            spewFile(set.shardPath(0), shardA);
            CHECK((set.shard(0), true));
        }

        // A missing or corrupt index fails cleanly.
        CHECK_THROWS(LibrarySet::open("libtest-no-such-set"));
        {
            const std::string idx =
                dir + "/" + LibrarySet::indexFileName();
            const Blob good = slurpFile(idx);
            Blob bad = good;
            bad[bad.size() / 2] ^= 0xff;
            spewFile(idx, bad);
            bool threw = false;
            try {
                (void)LibrarySet::open(dir);
            } catch (const std::exception &) {
                threw = true;
            }
            // A flipped byte may land in a name string (still
            // parseable); flip the magic instead for a guaranteed
            // failure.
            bad = good;
            bad[2] ^= 0xff;
            spewFile(idx, bad);
            try {
                (void)LibrarySet::open(dir);
            } catch (const std::exception &) {
                threw = true;
            }
            CHECK(threw);
            spewFile(idx, good);
            CHECK((LibrarySet::open(dir), true));
        }

        // An LPLIB4 (delta) shard flows through the fleet store
        // unchanged: save picks the format, open dispatches on the
        // magic, the index hash still matches, and the decoded points
        // equal the plain build of the same benchmark.
        {
            const std::string dir4 = "libtest-set-lpl4";
            std::filesystem::remove_all(dir4);
            const TinyLib cross = buildTinyLibrary(
                "libtest-b", 300'000, 9, 24,
                {CoreConfig::eightWay()}, 0,
                [](LivePointBuilderConfig &bc) { bc.deltaEncode = true; });
            CHECK(cross.lib.deltaCount() > 0);
            {
                LibrarySetWriter writer(dir4);
                writer.addShard("wl-cross", cross.lib);
            }
            const LibrarySet set4 = LibrarySet::open(dir4);
            CHECK_EQ(set4.contentHash(0), cross.lib.contentHash());
            const LivePointLibrary &s4 = set4.shard(0);
            CHECK(identicalRecords(s4, cross.lib));
            CHECK(s4.deltaCount() > 0);
            LivePointDecodeScratch sa, sb;
            LivePoint pa, pb;
            for (std::size_t i = 0; i < s4.size(); ++i) {
                s4.decodeInto(i, sa, pa);
                other.lib.decodeInto(i, sb, pb);
                CHECK(pa.serialize() == pb.serialize());
            }
            std::filesystem::remove_all(dir4);
        }

        std::filesystem::remove_all(dir);
    }

    return TEST_MAIN_RESULT();
}

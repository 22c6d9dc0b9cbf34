/**
 * Seeded fuzz coverage of the codec layer. Round-trips
 * zipCompress/zipDecompressInto and DER encode/decode over
 * Rng-generated buffers spanning the shapes live-points produce
 * (mixed runs, pure random, structured records, near-64KiB-window
 * sizes), then attacks the decoders: truncation at every byte must
 * raise a clean error, byte corruption must never crash or over-read
 * (the sanitizer CI job watches the memory side), and crafted
 * oversized varints must be rejected. The bulk integer read must
 * accept exactly what per-integer reads accept, and the cache set
 * record it feeds must reject impossible line counts and install
 * duplicate lines without a memory error.
 */

#include "test_util.hh"

#include <cstring>

#include "cache/warmstate.hh"
#include "codec/der.hh"
#include "codec/zip.hh"

namespace
{

using namespace lp;

/** Generate one fuzz buffer; the shape cycles with the index. */
Blob
fuzzBuffer(std::uint64_t i)
{
    Rng rng(i, "fuzz-codec");
    // Sizes sweep tiny buffers, mid sizes, and the 64KiB window edge.
    static const std::size_t sizes[] = {0,     1,     2,     7,
                                        64,    1000,  4096,  65534,
                                        65535, 65536, 65600, 70000};
    const std::size_t size = sizes[i % (sizeof(sizes) / sizeof(*sizes))];
    Blob out;
    out.reserve(size);
    switch (i % 3) {
      case 0: // mixed runs: random-length runs of random bytes
        while (out.size() < size) {
            const std::uint8_t v = static_cast<std::uint8_t>(rng.next());
            std::size_t len = 1 + rng.nextBounded(300);
            for (; len && out.size() < size; --len)
                out.push_back(v);
        }
        break;
      case 1: // pure random (incompressible)
        for (std::size_t j = 0; j < size; ++j)
            out.push_back(static_cast<std::uint8_t>(rng.next()));
        break;
      default: // structured: tag/counter records like DER payloads
        while (out.size() < size) {
            out.push_back(0x30);
            out.push_back(static_cast<std::uint8_t>(rng.nextBounded(4)));
            const std::uint64_t ctr = rng.nextBounded(1 << 16);
            out.push_back(static_cast<std::uint8_t>(ctr));
            out.push_back(static_cast<std::uint8_t>(ctr >> 8));
        }
        out.resize(size);
        break;
    }
    return out;
}

/** Decoding must throw or complete; crashes/over-reads are the bug. */
bool
decodeSurvives(const Blob &z, Blob &scratch)
{
    try {
        zipDecompressInto(z, scratch);
        return true;
    } catch (const std::exception &) {
        return false;
    }
}

/**
 * Differential check: the batched decoder and the retained reference
 * scalar decoder must agree on every input — byte-identical output
 * when both succeed, and both throwing when either rejects.
 */
void
checkAgainstReference(const std::uint8_t *data, std::size_t size,
                      Blob &fast, Blob &ref)
{
    bool fastOk = true;
    bool refOk = true;
    try {
        zipDecompressInto(data, size, fast);
    } catch (const std::exception &) {
        fastOk = false;
    }
    try {
        zipDecompressReferenceInto(data, size, ref);
    } catch (const std::exception &) {
        refOk = false;
    }
    CHECK_EQ(static_cast<int>(fastOk), static_cast<int>(refOk));
    if (fastOk && refOk)
        CHECK(fast == ref);
}

/** Differential check of the delta-stream decoders. */
void
checkDeltaAgainstReference(const std::uint8_t *data, std::size_t size,
                           ByteSpan prev, Blob &fast, Blob &ref)
{
    bool fastOk = true;
    bool refOk = true;
    try {
        zipDecompressDeltaInto(data, size, prev, fast);
    } catch (const std::exception &) {
        fastOk = false;
    }
    try {
        zipDecompressDeltaReferenceInto(data, size, prev, ref);
    } catch (const std::exception &) {
        refOk = false;
    }
    CHECK_EQ(static_cast<int>(fastOk), static_cast<int>(refOk));
    if (fastOk && refOk)
        CHECK(fast == ref);
}

/**
 * A plausible predecessor payload: @p data with a few random edits
 * (overwrites, an insertion, a deletion) so delta compression sees
 * the section drift successive live-points actually exhibit.
 */
Blob
mutateBuffer(const Blob &data, std::uint64_t seed)
{
    Rng rng(seed, "fuzz-mutate");
    Blob prev = data;
    for (int e = 0; e < 6 && !prev.empty(); ++e) {
        const std::size_t at = rng.nextBounded(prev.size());
        switch (rng.nextBounded(3)) {
          case 0: // overwrite a short span
            for (std::size_t j = at;
                 j < std::min(prev.size(), at + 1 + rng.nextBounded(32));
                 ++j)
                prev[j] = static_cast<std::uint8_t>(rng.next());
            break;
          case 1: // insert a short run
            prev.insert(prev.begin() + static_cast<std::ptrdiff_t>(at),
                        1 + rng.nextBounded(64),
                        static_cast<std::uint8_t>(rng.next()));
            break;
          default: // delete a short span
            prev.erase(prev.begin() + static_cast<std::ptrdiff_t>(at),
                       prev.begin() + static_cast<std::ptrdiff_t>(std::min(
                                          prev.size(),
                                          at + 1 + rng.nextBounded(64))));
            break;
        }
    }
    return prev;
}

/**
 * One bulk read of @p n integers against n getUint() calls over the
 * same bytes: the same values and the same bytes left, or both throw
 * std::runtime_error. Any other exception fails the check.
 */
void
checkBulkUints(const Blob &bytes, std::size_t n)
{
    enum Outcome { ok, runtimeError, otherError };
    std::vector<std::uint64_t> bulk(n);
    std::vector<std::uint64_t> single(n);
    Outcome bulkOutcome = ok;
    Outcome singleOutcome = ok;
    std::size_t bulkLeft = 0;
    std::size_t singleLeft = 0;
    try {
        DerReader r(bytes);
        r.getUints(bulk.data(), n);
        bulkLeft = r.remaining();
    } catch (const std::runtime_error &) {
        bulkOutcome = runtimeError;
    } catch (...) {
        bulkOutcome = otherError;
    }
    try {
        DerReader r(bytes);
        for (std::size_t i = 0; i < n; ++i)
            single[i] = r.getUint();
        singleLeft = r.remaining();
    } catch (const std::runtime_error &) {
        singleOutcome = runtimeError;
    } catch (...) {
        singleOutcome = otherError;
    }
    CHECK(bulkOutcome != otherError && singleOutcome != otherError);
    CHECK_EQ(bulkOutcome, singleOutcome);
    if (bulkOutcome == ok && singleOutcome == ok) {
        CHECK(bulk == single);
        CHECK_EQ(bulkLeft, singleLeft);
    }
}

/**
 * Append one integer-tagged value of @p rng's choosing: mostly valid
 * (canonical, or content under a long-form length), sometimes one of
 * the malformed shapes — an 11-group varint, a terminator before the
 * last content byte, no terminator, a bad length, or a wrong tag.
 */
void
putFuzzUint(Blob &out, Rng &rng)
{
    std::uint64_t v = rng.next() >> rng.nextBounded(64);
    Blob content;
    do {
        content.push_back(static_cast<std::uint8_t>(
            (v & 0x7f) | (v >= 0x80 ? 0x80 : 0)));
        v >>= 7;
    } while (!content.empty() && (content.back() & 0x80));
    std::uint8_t tag = 0x02;
    unsigned longForm = 0; // bytes of a long-form length, 0 = short
    const std::uint64_t shape = rng.nextBounded(24);
    switch (shape) {
      case 0: // 11 groups: past 64 bits
        content.assign(10, 0x81);
        content.push_back(0x01);
        break;
      case 1: // a terminator before the last content byte
        content.insert(content.begin(), 0x05);
        break;
      case 2: // no terminator at all
        content.back() |= 0x80;
        break;
      case 3: // wrong tag
        tag = rng.nextBool(0.5) ? 0x04 : 0x30;
        break;
      case 4: // long form with no length bytes, or more than 8
        out.push_back(0x02);
        out.push_back(rng.nextBool(0.5) ? 0x80 : 0x89);
        out.insert(out.end(), content.begin(), content.end());
        return;
      case 5:
      case 6:
      case 7: // valid content under a long-form length
        longForm = 1 + static_cast<unsigned>(rng.nextBounded(8));
        break;
      default:
        break;
    }
    out.push_back(tag);
    if (longForm == 0) {
        out.push_back(static_cast<std::uint8_t>(content.size()));
    } else {
        out.push_back(static_cast<std::uint8_t>(0x80 | longForm));
        for (unsigned b = longForm; b--;)
            out.push_back(static_cast<std::uint8_t>(
                b < 8 ? content.size() >> (8 * b) : 0));
    }
    out.insert(out.end(), content.begin(), content.end());
}

} // namespace

int
main()
{
    using namespace lp;

    // zip: round-trip every fuzz shape through both decompress paths,
    // and cross-check the batched decoder against the reference scalar
    // decoder on every generated buffer.
    Blob scratch;
    Blob refScratch;
    for (std::uint64_t i = 0; i < 60; ++i) {
        const Blob data = fuzzBuffer(i);
        const Blob z = zipCompress(data);
        CHECK(zipDecompress(z) == data);
        zipDecompressInto(z, scratch); // recycled buffer across shapes
        CHECK(scratch == data);
        zipDecompressReferenceInto(z.data(), z.size(), refScratch);
        CHECK(refScratch == data);
    }

    // zip: truncation at every byte of a representative compressed
    // record must error, never crash, over-read, or "succeed" — and
    // the batched and reference decoders must agree at every cut.
    {
        const Blob data = fuzzBuffer(6); // mixed runs, 4096 bytes
        const Blob z = zipCompress(data);
        CHECK(z.size() > 16);
        for (std::size_t cut = 0; cut < z.size(); ++cut) {
            const Blob truncated(z.begin(),
                                 z.begin() +
                                     static_cast<std::ptrdiff_t>(cut));
            CHECK_THROWS(zipDecompressInto(truncated, scratch));
            CHECK_THROWS(zipDecompressReferenceInto(
                truncated.data(), truncated.size(), refScratch));
        }
    }

    // zip: single-byte corruption must never crash or over-read (a
    // flipped literal may legally decode to different content; a
    // mangled token must throw — either way, cleanly), and both
    // decoders must reach the same verdict with the same bytes.
    {
        const Blob data = fuzzBuffer(3); // runs, 7 -> small stream
        const Blob big = fuzzBuffer(9);  // runs, 65534
        for (const Blob *src : {&data, &big}) {
            const Blob z = zipCompress(*src);
            Rng rng(77, "fuzz-corrupt");
            const std::size_t flips = std::min<std::size_t>(z.size(),
                                                            400);
            for (std::size_t f = 0; f < flips; ++f) {
                Blob bad = z;
                const std::size_t at = rng.nextBounded(bad.size());
                bad[at] ^= static_cast<std::uint8_t>(
                    1 + rng.nextBounded(255));
                // Either outcome is fine; crashing is not.
                decodeSurvives(bad, scratch);
                checkAgainstReference(bad.data(), bad.size(), scratch,
                                      refScratch);
            }
        }
    }

    // zip: a crafted header declaring an enormous raw size must be
    // rejected (or fail cleanly) rather than over-allocate and crash.
    {
        Blob bomb;
        for (int j = 0; j < 9; ++j)
            bomb.push_back(0xff); // LEB128 continuation bytes
        bomb.push_back(0x7f);
        bomb.push_back(0x00); // one flag byte, no payload
        CHECK_THROWS(zipDecompressInto(bomb, scratch));
    }

    // zip: a match token with offset 0 (a self-reference no encoder
    // emits) must be rejected by both decoders — here in the strict
    // per-token tail, where a short stream always decodes.
    {
        const Blob zeroOff{5,    // raw size
                           0x02, // flags: literal, then a match
                           'a',  0x00, 0x00, 0x00};
        CHECK_THROWS(zipDecompressInto(zeroOff, scratch));
        CHECK_THROWS(zipDecompressReferenceInto(
            zeroOff.data(), zeroOff.size(), refScratch));
    }

    // zip+delta: delta streams against a drifted predecessor
    // round-trip through both decoders; decoding with the wrong (or
    // no) predecessor must fail cleanly or produce bytes — agreed on
    // by both decoders — never crash or over-read.
    for (std::uint64_t i = 0; i < 36; ++i) {
        const Blob data = fuzzBuffer(i);
        const Blob prev = mutateBuffer(data, 1000 + i);
        const Blob z = zipCompressDelta(data, ByteSpan(prev));
        zipDecompressDeltaInto(z.data(), z.size(), ByteSpan(prev),
                               scratch);
        CHECK(scratch == data);
        zipDecompressDeltaReferenceInto(z.data(), z.size(),
                                        ByteSpan(prev), refScratch);
        CHECK(refScratch == data);
        const Blob wrong = fuzzBuffer(i + 7);
        checkDeltaAgainstReference(z.data(), z.size(), ByteSpan(wrong),
                                   scratch, refScratch);
        checkDeltaAgainstReference(z.data(), z.size(), ByteSpan(),
                                   scratch, refScratch);
    }

    // zip+delta: truncation at every byte must raise in both
    // decoders — a cut stream never silently "succeeds".
    {
        const Blob data = fuzzBuffer(30); // structured, 4096 bytes
        const Blob prev = mutateBuffer(data, 5);
        const Blob zt = zipCompressDelta(data, ByteSpan(prev));
        for (std::size_t cut = 0; cut < zt.size(); ++cut) {
            CHECK_THROWS(zipDecompressDeltaInto(
                zt.data(), cut, ByteSpan(prev), scratch));
            CHECK_THROWS(zipDecompressDeltaReferenceInto(
                zt.data(), cut, ByteSpan(prev), refScratch));
        }
    }

    // zip+delta: byte-flip sweep. A flip may legally change decoded
    // content or trip a bounds check; it must never crash, over-read,
    // or split the decoders' verdicts. (The library layer adds a raw
    // checksum on top, so a flipped delta record fails loudly there —
    // test_library covers that strictness.)
    {
        const Blob data = fuzzBuffer(18); // mixed runs, 4096
        const Blob prev = mutateBuffer(data, 9);
        const Blob zt = zipCompressDelta(data, ByteSpan(prev));
        Rng rng(99, "fuzz-corrupt-dict");
        for (std::size_t f = 0; f < 400; ++f) {
            Blob badDelta = zt;
            badDelta[rng.nextBounded(badDelta.size())] ^=
                static_cast<std::uint8_t>(1 + rng.nextBounded(255));
            checkDeltaAgainstReference(badDelta.data(), badDelta.size(),
                                       ByteSpan(prev), scratch,
                                       refScratch);
        }
        // Flipping *predecessor* bytes (the other corruption surface)
        // must be just as contained.
        for (std::size_t f = 0; f < 200; ++f) {
            Blob badPrev = prev;
            badPrev[rng.nextBounded(badPrev.size())] ^=
                static_cast<std::uint8_t>(1 + rng.nextBounded(255));
            checkDeltaAgainstReference(zt.data(), zt.size(),
                                       ByteSpan(badPrev), scratch,
                                       refScratch);
        }
    }

    // der: random value trees round-trip exactly.
    for (std::uint64_t i = 0; i < 40; ++i) {
        Rng rng(i, "fuzz-der");
        const std::size_t count = 1 + rng.nextBounded(40);
        std::vector<unsigned> types;
        std::vector<std::uint64_t> uints;
        std::vector<std::string> strings;
        std::vector<Blob> blobs;
        DerWriter w;
        w.beginSequence();
        for (std::size_t j = 0; j < count; ++j) {
            types.push_back(
                static_cast<unsigned>(rng.nextBounded(3)));
            switch (types.back()) {
              case 0:
                uints.push_back(rng.next() >> rng.nextBounded(64));
                w.putUint(uints.back());
                break;
              case 1: {
                std::string s;
                for (std::size_t k = rng.nextBounded(300); k; --k)
                    s.push_back(static_cast<char>(
                        'a' + rng.nextBounded(26)));
                strings.push_back(s);
                w.putString(s);
                break;
              }
              default: {
                Blob b;
                for (std::size_t k = rng.nextBounded(300); k; --k)
                    b.push_back(
                        static_cast<std::uint8_t>(rng.next()));
                blobs.push_back(b);
                w.putBytes(blobs.back());
                break;
              }
            }
        }
        w.endSequence();
        const Blob data = w.finish();

        DerReader top(data);
        DerReader seq = top.getSequence();
        std::size_t iu = 0;
        std::size_t is = 0;
        std::size_t ib = 0;
        for (const unsigned type : types) {
            switch (type) {
              case 0:
                CHECK_EQ(seq.getUint(), uints[iu++]);
                break;
              case 1:
                CHECK(seq.getString() == strings[is++]);
                break;
              default:
                CHECK(seq.getBytes() == blobs[ib++]);
                break;
            }
        }
        CHECK(seq.atEnd());

        // Truncating the encoding anywhere must raise, never crash:
        // the typed read-back can no longer complete.
        for (std::size_t cut = 0; cut < data.size();
             cut += 1 + cut / 64) {
            const Blob t(data.begin(),
                         data.begin() +
                             static_cast<std::ptrdiff_t>(cut));
            bool threw = false;
            try {
                DerReader r(t);
                DerReader s2 = r.getSequence();
                for (const unsigned type : types) {
                    if (type == 0)
                        s2.getUint();
                    else if (type == 1)
                        s2.getString();
                    else
                        s2.getBytes();
                }
            } catch (const std::exception &) {
                threw = true;
            }
            CHECK(threw);
        }
    }

    // der: random garbage must throw or end cleanly under every
    // reader entry point (the sanitizer job catches memory misuse).
    for (std::uint64_t i = 0; i < 200; ++i) {
        Rng rng(i, "fuzz-der-garbage");
        Blob junk(1 + rng.nextBounded(200));
        for (auto &b : junk)
            b = static_cast<std::uint8_t>(rng.next());
        try {
            DerReader r(junk);
            while (!r.atEnd()) {
                switch (rng.nextBounded(4)) {
                  case 0: r.getUint(); break;
                  case 1: r.getBytes(); break;
                  case 2: r.getString(); break;
                  default: r.getSequence(); break;
                }
            }
        } catch (const std::exception &) {
        }
    }

    // der: a varint longer than 64 bits is malformed, not undefined
    // behaviour (regression for the unbounded-shift decode bug).
    {
        Blob crafted;
        crafted.push_back(0x02); // uint tag
        crafted.push_back(12);   // 12 content bytes
        for (int j = 0; j < 11; ++j)
            crafted.push_back(0x80 | 1);
        crafted.push_back(0x01);
        DerReader r(crafted);
        CHECK_THROWS(r.getUint());
    }

    // der: the bulk integer read against n getUint() calls, over
    // seeded sequences of valid and malformed integers, every
    // truncation of each, single-byte flips, and reads past the end.
    for (std::uint64_t i = 0; i < 300; ++i) {
        Rng rng(i, "fuzz-der-bulk");
        const std::size_t n = 1 + rng.nextBounded(24);
        Blob bytes;
        for (std::size_t j = 0; j < n; ++j)
            putFuzzUint(bytes, rng);
        for (const std::size_t m : {std::size_t{0}, n / 2, n, n + 1})
            checkBulkUints(bytes, m);
        for (std::size_t cut = 0; cut < bytes.size(); ++cut)
            checkBulkUints(Blob(bytes.begin(),
                                bytes.begin() +
                                    static_cast<std::ptrdiff_t>(cut)),
                           n);
        for (int f = 0; f < 16; ++f) {
            Blob bad = bytes;
            bad[rng.nextBounded(bad.size())] ^=
                static_cast<std::uint8_t>(1 + rng.nextBounded(255));
            checkBulkUints(bad, n);
        }
    }

    // warm state: a cache set record whose line count exceeds what
    // its bytes can hold (3 per integer at the least) is corrupt. It
    // must be rejected by name before anything is sized from the
    // count — a 2^40 count would otherwise be a 8 TiB vector.
    {
        auto csrBytes = [](std::uint64_t count, std::size_t lines) {
            DerWriter w;
            w.beginSequence();
            w.putUint(4 * 1024 * 1024);
            w.putUint(8);
            w.putUint(128);
            w.putUint(count);
            for (std::size_t j = 0; j < lines; ++j)
                w.putUint(2 * j); // one content byte each
            w.endSequence();
            return w.finish();
        };
        const std::size_t lines = 40;
        for (const std::uint64_t count :
             {std::uint64_t{lines + 1}, std::uint64_t{1} << 40,
              ~std::uint64_t(0)}) {
            const Blob bytes = csrBytes(count, lines);
            DerReader r(bytes);
            CacheSetRecord rec;
            bool named = false;
            try {
                CacheSetRecord::deserializeInto(r, rec);
            } catch (const std::runtime_error &e) {
                named = std::strstr(e.what(), "cache set record") !=
                        nullptr;
            }
            CHECK(named);
        }
        // The exact count still decodes and re-serializes verbatim.
        const Blob good = csrBytes(lines, lines);
        DerReader r(good);
        const CacheSetRecord rec = CacheSetRecord::deserialize(r);
        CHECK_EQ(rec.entryCount(), lines);
        CHECK(rec.serialize() == good);
    }

    // warm state: a record with duplicate lines (no builder writes
    // one) must still install without a memory error into every
    // target shape, and never hold more lines than the target has.
    for (std::uint64_t i = 0; i < 20; ++i) {
        Rng rng(i, "fuzz-csr-dups");
        DerWriter w;
        const std::size_t n = 1 + rng.nextBounded(4000);
        w.beginSequence();
        w.putUint(4 * 1024 * 1024);
        w.putUint(8);
        w.putUint(128);
        w.putUint(n);
        const std::uint64_t pool = 1 + rng.nextBounded(64);
        for (std::size_t j = 0; j < n; ++j)
            w.putUint(rng.nextBounded(pool) * 2 + rng.nextBounded(2));
        w.endSequence();
        const Blob bytes = w.finish();
        DerReader r(bytes);
        const CacheSetRecord rec = CacheSetRecord::deserialize(r);
        for (const CacheGeometry &g :
             {CacheGeometry{4 * 1024 * 1024, 8, 128},
              CacheGeometry{1024 * 1024, 4, 128},
              CacheGeometry{3 * 100 * 128, 3, 128},
              CacheGeometry{64 * 128, 1, 128}}) {
            CacheModel target(g, "dup-target");
            rec.reconstruct(target);
            CHECK(target.residentLines() <= g.numLines());
            CHECK_EQ(target.accessClock(), n);
            target.access(rng.nextBounded(pool) * 128, true);
        }
    }

    return TEST_MAIN_RESULT();
}

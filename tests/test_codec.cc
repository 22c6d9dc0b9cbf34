/** Round-trips of the zip block compressor and DER serialization. */

#include "test_util.hh"

#include "codec/der.hh"
#include "codec/zip.hh"

int
main()
{
    using namespace lp;
    using namespace lptest;

    // zip: compressible data round-trips and actually shrinks.
    {
        Blob data(128 * 1024);
        Rng rng(3, "zip");
        for (std::size_t i = 0; i < data.size(); ++i)
            data[i] =
                static_cast<std::uint8_t>((i >> 4) ^ (rng.next() & 3));
        const Blob z = zipCompress(data);
        CHECK(z.size() < data.size());
        CHECK(zipDecompress(z) == data);
    }
    // zip: incompressible data still round-trips.
    {
        Blob data(4096);
        Rng rng(4, "zip-rand");
        for (auto &b : data)
            b = static_cast<std::uint8_t>(rng.next());
        CHECK(zipDecompress(zipCompress(data)) == data);
    }
    // zip: tiny and empty inputs.
    {
        CHECK(zipDecompress(zipCompress({})).empty());
        const Blob one{42};
        CHECK(zipDecompress(zipCompress(one)) == one);
    }
    // zip: determinism (the library's compressed sizes must be
    // reproducible run to run).
    {
        Blob data(10000, 7);
        CHECK(zipCompress(data) == zipCompress(data));
    }
    // zipDecompressInto: reuses the caller's buffer across calls and
    // matches zipDecompress, including overlapping (RLE-style)
    // matches where the copy source overruns into the copy itself.
    {
        Blob rle(5000, 9); // long runs -> offset < match length
        Blob mixed(64 * 1024);
        Rng rng(5, "zip-into");
        for (std::size_t i = 0; i < mixed.size(); ++i)
            mixed[i] =
                static_cast<std::uint8_t>((i >> 6) ^ (rng.next() & 1));
        Blob out;
        for (const Blob *data : {&rle, &mixed, &rle}) {
            const Blob z = zipCompress(*data);
            zipDecompressInto(z, out); // recycled across iterations
            CHECK(out == *data);
            CHECK(zipDecompress(z) == *data);
        }
    }

    // zip: overlapping (RLE-style) matches at every short period.
    // Period-p data compresses to matches with offset p (1..4), the
    // offsets whose decompression copy source overlaps its
    // destination.
    {
        for (unsigned period = 1; period <= 4; ++period) {
            Blob data(3000 + period * 17);
            for (std::size_t i = 0; i < data.size(); ++i)
                data[i] = static_cast<std::uint8_t>(
                    0x20 + (i % period) * 31);
            const Blob z = zipCompress(data);
            CHECK(z.size() < data.size() / 8);
            CHECK(zipDecompress(z) == data);
        }
    }
    // zip: matches straddling the 64KiB window boundary. A unique
    // 32-byte block recurs at distances 65535 (the farthest encodable
    // offset) and 65536+ (outside the window, must not be matched);
    // both buffers must round-trip exactly.
    {
        Rng rng(6, "zip-window");
        for (const std::size_t gap : {std::size_t{65535} - 32,
                                      std::size_t{65536} - 32,
                                      std::size_t{70000}}) {
            Blob data;
            Blob block(32);
            for (auto &b : block)
                b = static_cast<std::uint8_t>(rng.next());
            data.insert(data.end(), block.begin(), block.end());
            // Incompressible filler so the only long match is the
            // recurring block.
            for (std::size_t i = 0; i < gap; ++i)
                data.push_back(static_cast<std::uint8_t>(rng.next()));
            data.insert(data.end(), block.begin(), block.end());
            for (std::size_t i = 0; i < 500; ++i)
                data.push_back(static_cast<std::uint8_t>(rng.next()));
            CHECK(zipDecompress(zipCompress(data)) == data);
        }
    }
    // zip: structure shifted by less than a match length — the
    // in-match hash insertions find these; positions inside an
    // emitted match must still seed future matches.
    {
        Blob unit(96);
        for (std::size_t i = 0; i < unit.size(); ++i)
            unit[i] = static_cast<std::uint8_t>(i * 7 + 3);
        Blob data;
        for (unsigned rep = 0; rep < 40; ++rep) {
            data.push_back(static_cast<std::uint8_t>(rep)); // misalign
            data.insert(data.end(), unit.begin(), unit.end());
        }
        const Blob z = zipCompress(data);
        CHECK(z.size() < data.size() / 4);
        CHECK(zipDecompress(z) == data);
    }
    // zip: ratio regression guard on a canned live-point payload —
    // the workload the codec exists for. The greedy single-entry
    // table this matcher replaced landed at 0.669 on this exact
    // point; the hash-chain matcher must stay strictly below that.
    {
        const TinyLib t = buildTinyLibrary("codec-ratio", 120'000, 3, 8);
        const Blob raw = t.lib.get(t.lib.size() / 2).serialize();
        const Blob z = zipCompress(raw);
        CHECK(zipDecompress(z) == raw);
        const double ratio = static_cast<double>(z.size()) /
                             static_cast<double>(raw.size());
        if (ratio > 0.66)
            std::fprintf(stderr, "live-point ratio %.4f\n", ratio);
        CHECK(ratio <= 0.66);
    }

    // zip+delta: a buffer delta-compressed against a near-identical
    // predecessor collapses to a fraction of its plain size — the
    // cross-point redundancy the live-point library exploits — and
    // round-trips through both decoders, including with size drift.
    {
        Rng rng(9, "zip-delta");
        Blob prev(200 * 1024);
        for (std::size_t i = 0; i < prev.size(); ++i)
            prev[i] =
                static_cast<std::uint8_t>((i >> 3) ^ (rng.next() & 7));
        Blob data = prev;
        for (int e = 0; e < 20; ++e)
            data[rng.nextBounded(data.size())] ^= 0x5a;
        // Insert a run so every later chunk is misaligned vs prev.
        data.insert(data.begin() + 50'000, 700, 0xee);
        const Blob plain = zipCompress(data);
        const Blob delta = zipCompressDelta(data, ByteSpan(prev));
        CHECK(delta.size() * 4 < plain.size());
        Blob out;
        zipDecompressDeltaInto(delta.data(), delta.size(),
                               ByteSpan(prev), out);
        CHECK(out == data);
        zipDecompressDeltaReferenceInto(delta.data(), delta.size(),
                                        ByteSpan(prev), out);
        CHECK(out == data);
        CHECK(zipCompressDelta(data, ByteSpan(prev)) == delta);
        // Degenerate shapes: empty payload, empty predecessor, and a
        // payload far longer than its predecessor.
        const Blob e0 = zipCompressDelta(Blob{}, ByteSpan(prev));
        zipDecompressDeltaInto(e0.data(), e0.size(), ByteSpan(prev),
                               out);
        CHECK(out.empty());
        const Blob e1 = zipCompressDelta(data, ByteSpan());
        zipDecompressDeltaInto(e1.data(), e1.size(), ByteSpan(), out);
        CHECK(out == data);
        Blob shortPrev(prev.begin(), prev.begin() + 1000);
        const Blob e2 = zipCompressDelta(data, ByteSpan(shortPrev));
        zipDecompressDeltaInto(e2.data(), e2.size(),
                               ByteSpan(shortPrev), out);
        CHECK(out == data);
    }

    // der: nested sequences with every value type.
    {
        DerWriter w;
        w.beginSequence();
        w.putUint(0);
        w.putUint(127);
        w.putUint(0xdeadbeefcafeull);
        w.putString("live-points");
        w.putBytes(Blob{1, 2, 3});
        w.beginSequence();
        for (int i = 0; i < 300; ++i) // force a long-form length
            w.putUint(static_cast<std::uint64_t>(i) * 77);
        w.endSequence();
        w.putDouble(3.14159);
        w.endSequence();
        const Blob data = w.finish();

        DerReader top(data);
        DerReader seq = top.getSequence();
        CHECK_EQ(seq.getUint(), 0u);
        CHECK_EQ(seq.getUint(), 127u);
        CHECK_EQ(seq.getUint(), 0xdeadbeefcafeull);
        CHECK(seq.getString() == "live-points");
        CHECK(seq.getBytes() == (Blob{1, 2, 3}));
        DerReader inner = seq.getSequence();
        std::uint64_t i = 0;
        while (!inner.atEnd())
            CHECK_EQ(inner.getUint(), (i++) * 77);
        CHECK_EQ(i, 300u);
        CHECK_NEAR(seq.getDouble(), 3.14159, 0.0);
        CHECK(seq.atEnd());
        CHECK(top.atEnd());
    }
    // der: encoding is canonical (same values -> same bytes).
    {
        auto encode = []() {
            DerWriter w;
            w.beginSequence();
            w.putUint(999);
            w.putString("x");
            w.endSequence();
            return w.finish();
        };
        CHECK(encode() == encode());
    }

    return TEST_MAIN_RESULT();
}

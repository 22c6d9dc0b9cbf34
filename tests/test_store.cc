/**
 * The fleet result store's contracts: its sealed DER image round-trips
 * records bit-exactly, loading is corruption-strict (a missing file,
 * every single-byte truncation and byte flip, a repeated cell or pair
 * key, unknown flag bits and data left over anywhere each throw, and
 * nothing loads partially) and remembers the loaded path, concurrent
 * publishers and readers leave a file holding every record, campaign
 * memoization restores cells bit-identical to replaying at every
 * thread count, the stored-CPI cross-check catches a tampered record,
 * and the campaign JSON report survives a strict parser even with
 * hostile free-text fields.
 */

#include "test_util.hh"

#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <unordered_map>

#include <unistd.h>

#include "codec/der.hh"
#include "core/campaign.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "store/result_store.hh"
#include "util/bytes.hh"
#include "util/log.hh"
#include "util/rng.hh"

namespace
{

std::vector<std::uint8_t>
readAll(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    CHECK(f != nullptr);
    std::vector<std::uint8_t> out;
    std::uint8_t buf[4096];
    std::size_t n;
    while (f && (n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out.insert(out.end(), buf, buf + n);
    if (f)
        std::fclose(f);
    return out;
}

void
writeAll(const std::string &path, const std::uint8_t *data,
         std::size_t size)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    CHECK(f != nullptr);
    if (f) {
        CHECK_EQ(std::fwrite(data, 1, size, f), size);
        std::fclose(f);
    }
}

lp::CellRecord
sampleCell(std::uint64_t salt)
{
    lp::CellRecord r;
    r.key.libHash = 0x1111 + salt;
    r.key.configDigest = 0x2222 + salt;
    r.key.shuffleSeed = 5;
    r.key.blockSize = 8;
    r.key.stopAtConfidence = (salt & 1) != 0;
    r.key.approxWrongPath = false;
    if (r.key.stopAtConfidence) {
        r.key.levelBits = lp::doubleBits(0.997);
        r.key.relErrBits = lp::doubleBits(0.03);
    }
    r.libPoints = 100 + salt;
    r.processed = 90 + salt;
    r.unavailableLoads = salt;
    r.converged = r.key.stopAtConfidence;
    r.cpiBits = lp::doubleBits(1.25 + 0.001 * static_cast<double>(salt));
    r.stat.n = r.processed;
    r.stat.mean = 1.25 + 0.001 * static_cast<double>(salt);
    r.stat.m2 = 0.125;
    r.stat.min = 0.5;
    r.stat.max = 3.75;
    return r;
}

/** A key's identity words, in a std::map-orderable form. */
std::array<std::uint64_t, 9>
identity(const lp::ResultKey &k, std::uint64_t testDigest = 0)
{
    return {k.libHash,    k.configDigest,
            k.shuffleSeed, k.blockSize,
            std::uint64_t{k.stopAtConfidence},
            std::uint64_t{k.approxWrongPath},
            k.levelBits,  k.relErrBits,
            testDigest};
}

bool
statBitEqual(const lp::RunningStat::State &a,
             const lp::RunningStat::State &b)
{
    using lp::doubleBits;
    return a.n == b.n && doubleBits(a.mean) == doubleBits(b.mean) &&
           doubleBits(a.m2) == doubleBits(b.m2) &&
           doubleBits(a.min) == doubleBits(b.min) &&
           doubleBits(a.max) == doubleBits(b.max);
}

bool
cellsBitEqual(const lp::CellRecord &a, const lp::CellRecord &b)
{
    using lp::doubleBits;
    return a.key == b.key && a.libPoints == b.libPoints &&
           a.processed == b.processed &&
           a.unavailableLoads == b.unavailableLoads &&
           a.converged == b.converged && a.cpiBits == b.cpiBits &&
           statBitEqual(a.stat, b.stat);
}

bool
pairsBitEqual(const lp::PairRecord &a, const lp::PairRecord &b)
{
    return a.key == b.key && statBitEqual(a.delta, b.delta);
}

/** Where storeImage() departs from the layout save() writes. */
enum class Tamper
{
    none,
    cellSurplus, //!< one more value at the end of each cell record
    pairSurplus, //!< one more value at the end of each pair record
    foldSurplus, //!< one more value at the end of each fold state
    listSurplus, //!< one more value after the pair list
    fileSurplus, //!< one more byte after the store's sequence
    cellFlag,    //!< flags bit 3, which no cell sets, in each cell
    pairFlag,    //!< the converged bit, which no pair sets, in each pair
};

/**
 * The store's on-disk layout, written out here rather than by
 * ResultStore, with one @p tamper, and sealed with the footer.
 */
lp::Blob
storeImage(const std::vector<lp::CellRecord> &cells,
           const std::vector<lp::PairRecord> &pairs,
           Tamper tamper = Tamper::none)
{
    using namespace lp;
    DerWriter w;
    auto key = [&w](const ResultKey &k, std::uint64_t flags) {
        w.putUint(k.libHash);
        w.putUint(k.configDigest);
        w.putUint(k.shuffleSeed);
        w.putUint(k.blockSize);
        w.putUint(flags | (k.stopAtConfidence ? 1u : 0u) |
                  (k.approxWrongPath ? 2u : 0u));
        w.putUint(k.levelBits);
        w.putUint(k.relErrBits);
    };
    auto fold = [&w, tamper](const RunningStat::State &st) {
        w.beginSequence();
        w.putUint(st.n);
        w.putUint(doubleBits(st.mean));
        w.putUint(doubleBits(st.m2));
        w.putUint(doubleBits(st.min));
        w.putUint(doubleBits(st.max));
        if (tamper == Tamper::foldSurplus)
            w.putUint(7);
        w.endSequence();
    };
    w.beginSequence();
    w.putUint(0x4c50'5245'5332ull); // "LPRES2"
    w.putUint(1);
    w.beginSequence();
    for (const CellRecord &c : cells) {
        w.beginSequence();
        key(c.key, (c.converged ? 4u : 0u) |
                       (tamper == Tamper::cellFlag ? 8u : 0u));
        w.putUint(c.libPoints);
        w.putUint(c.processed);
        w.putUint(c.unavailableLoads);
        w.putUint(c.cpiBits);
        fold(c.stat);
        if (tamper == Tamper::cellSurplus)
            w.putUint(7);
        w.endSequence();
    }
    w.endSequence();
    w.beginSequence();
    for (const PairRecord &p : pairs) {
        w.beginSequence();
        key(p.key.base, tamper == Tamper::pairFlag ? 4u : 0u);
        w.putUint(p.key.testDigest);
        fold(p.delta);
        if (tamper == Tamper::pairSurplus)
            w.putUint(7);
        w.endSequence();
    }
    w.endSequence();
    if (tamper == Tamper::listSurplus)
        w.putUint(7);
    w.endSequence();
    Blob image = w.finish();
    if (tamper == Tamper::fileSurplus)
        image.push_back(0);
    appendChecksumFooter(image);
    return image;
}

} // namespace

int
main()
{
    using namespace lp;
    using namespace lptest;

    const std::filesystem::path tmp =
        std::filesystem::temp_directory_path() /
        ("lp-test-store-" + std::to_string(::getpid()));
    std::filesystem::create_directories(tmp);
    const std::string storePath = (tmp / "results.lpres").string();

    // --- The validator itself must be strict before anything trusts
    // it.
    CHECK(jsonValidate("{\"a\": [1, 2.5, -3e-2], \"b\": \"x\\u0001\"}"));
    CHECK(jsonValidate("[]"));
    CHECK(!jsonValidate(""));
    CHECK(!jsonValidate("{\"a\": 1,}"));     // trailing comma
    CHECK(!jsonValidate("{\"a\": 01}"));     // leading zero
    CHECK(!jsonValidate("{\"a\": nan}"));    // not a JSON number
    CHECK(!jsonValidate("\"raw \x01 ctl\"")); // unescaped control byte
    CHECK(!jsonValidate("\"bad \\x escape\""));
    CHECK(!jsonValidate("{\"a\": 1} trailing"));

    // --- Key canonicalization: a full-library run is spec-free.
    {
        ConfidenceSpec tight{0.997, 0.01}, loose{0.95, 0.10};
        const ResultKey a =
            ResultKey::make(1, 2, 3, 4, false, false, tight);
        const ResultKey b =
            ResultKey::make(1, 2, 3, 4, false, false, loose);
        CHECK(a == b);
        CHECK_EQ(a.levelBits, 0u);
        const ResultKey c =
            ResultKey::make(1, 2, 3, 4, true, false, tight);
        const ResultKey d =
            ResultKey::make(1, 2, 3, 4, true, false, loose);
        CHECK(!(c == d));
        CHECK(!(a == c));
    }

    // --- Round-trip: records come back bit for bit, probes hit and
    // miss correctly.
    {
        ResultStore store;
        for (std::uint64_t i = 0; i < 5; ++i)
            store.put(sampleCell(i));
        PairRecord p;
        p.key.base.libHash = 0x1111;
        p.key.base.configDigest = 0x2222;
        p.key.testDigest = 0x2223;
        p.key.base.shuffleSeed = 5;
        p.key.base.blockSize = 8;
        p.delta.n = 90;
        p.delta.mean = -0.001;
        p.delta.m2 = 0.002;
        p.delta.min = -0.1;
        p.delta.max = 0.1;
        store.putPair(p);
        store.save(storePath);

        // load() remembers its path, so a loaded store's query
        // document names it; a missing file throws and leaves the
        // store, path included, as it was.
        ResultStore loaded;
        loaded.load(storePath);
        CHECK(loaded.path() == storePath);
        CHECK_THROWS(loaded.load(storePath + ".missing"));
        CHECK(loaded.path() == storePath);
        CHECK_EQ(loaded.cellCount(), 5u);
        CHECK_EQ(loaded.pairCount(), 1u);
        for (std::uint64_t i = 0; i < 5; ++i) {
            CellRecord got;
            CHECK(loaded.find(sampleCell(i).key, &got));
            CHECK(cellsBitEqual(got, sampleCell(i)));
        }
        CellRecord miss;
        CHECK(!loaded.find(sampleCell(17).key, &miss));
        PairRecord gotPair;
        CHECK(loaded.findPair(p.key, &gotPair));
        CHECK_EQ(doubleBits(gotPair.delta.mean),
                 doubleBits(p.delta.mean));
        PairKey wrongPair = p.key;
        wrongPair.testDigest = 0x9999;
        CHECK(!loaded.findPair(wrongPair, nullptr));

        // put() overwrites in place: no duplicates accumulate.
        CellRecord again = sampleCell(2);
        again.cpiBits = doubleBits(9.0);
        loaded.put(again);
        CHECK_EQ(loaded.cellCount(), 5u);
        CellRecord raced;
        CHECK(loaded.find(again.key, &raced));
        CHECK_EQ(raced.cpiBits, doubleBits(9.0));
    }

    // --- Corruption strictness: truncation at EVERY byte boundary
    // and a flip of EVERY byte must throw; nothing loads partially.
    {
        ResultStore small;
        small.put(sampleCell(0));
        small.put(sampleCell(1));
        PairRecord p;
        p.key.base.libHash = 1;
        p.key.base.configDigest = 2;
        p.key.testDigest = 3;
        p.delta.n = 4;
        small.putPair(p);
        small.save(storePath);
        const std::vector<std::uint8_t> image = readAll(storePath);
        CHECK(image.size() > 48 + 16);

        const std::string mut = (tmp / "mutant.lpres").string();
        for (std::size_t len = 0; len < image.size(); ++len) {
            writeAll(mut, image.data(), len);
            ResultStore victim;
            CHECK_THROWS(victim.load(mut));
        }
        for (std::size_t i = 0; i < image.size(); ++i) {
            std::vector<std::uint8_t> flip = image;
            flip[i] ^= 0x01;
            writeAll(mut, flip.data(), flip.size());
            ResultStore victim;
            CHECK_THROWS(victim.load(mut));
        }
        std::remove(mut.c_str());
    }

    // --- The layout, and what a load rejects in it. storeImage()
    // writes the layout out by hand: unaltered, it is the bytes save()
    // writes. Each altered image below is sealed with a valid footer,
    // so only the parse can reject it, and each load throws IoError
    // naming the file and the fault and leaves the store as it was.
    // save() writes each key once, so a key that repeats (a cell's,
    // then a pair's) is corruption.
    {
        const std::vector<CellRecord> cells{sampleCell(0), sampleCell(1)};
        PairRecord p;
        p.key = PairKey{sampleCell(0).key, 0x7};
        p.delta.n = 3;
        PairRecord q = p;
        q.key.testDigest = 0x8;
        ResultStore two;
        for (const CellRecord &c : cells)
            two.put(c);
        two.putPair(p);
        two.putPair(q);
        two.save(storePath);
        CHECK(readAll(storePath) == storeImage(cells, {p, q}));

        // Write @p image and load it into a store that already holds
        // one record.
        auto rejected = [&](const Blob &image, const char *why) {
            writeAll(storePath, image.data(), image.size());
            ResultStore victim;
            victim.put(sampleCell(5));
            bool named = false;
            try {
                victim.load(storePath);
            } catch (const IoError &e) {
                const std::string msg = e.what();
                named = msg.find(storePath) != std::string::npos &&
                        msg.find(why) != std::string::npos;
            }
            return named && victim.cellCount() == 1 &&
                   victim.pairCount() == 0 &&
                   victim.find(sampleCell(5).key, nullptr);
        };

        // The unaltered image loads: the rejections below are the
        // alterations' doing.
        ResultStore clean;
        clean.load(storePath);
        CHECK_EQ(clean.cellCount(), 2u);
        CHECK_EQ(clean.pairCount(), 2u);

        // Cell 1 := cell 0's key with a different CPI and mean.
        CellRecord dupCell = cells[0];
        dupCell.cpiBits = doubleBits(2.5);
        dupCell.stat.mean = 2.5;
        CHECK(rejected(storeImage({cells[0], dupCell}, {p, q}),
                       "duplicate key"));

        // Pair 1 := pair 0's key with a different count.
        PairRecord dupPair = p;
        dupPair.delta.n = 9;
        CHECK(rejected(storeImage(cells, {p, dupPair}), "duplicate key"));

        const std::pair<Tamper, const char *> faults[] = {
            {Tamper::cellSurplus, "data left over in a cell record"},
            {Tamper::pairSurplus, "data left over in a pair record"},
            {Tamper::foldSurplus, "data left over in a fold state"},
            {Tamper::listSurplus, "data left over in the store"},
            {Tamper::fileSurplus, "data left over in the file"},
            {Tamper::cellFlag, "unknown flag bits"},
            {Tamper::pairFlag, "unknown flag bits"},
        };
        for (const auto &[tamper, why] : faults)
            CHECK(rejected(storeImage(cells, {p, q}, tamper), why));
    }

    // --- Concurrency: writer threads each publish one cell and one
    // pair, then save(), while reader threads query. save() orders
    // its snapshots, so the last rename carries every record: a fresh
    // load of the file holds them all.
    {
        const std::string concPath = storePath + ".conc";
        constexpr std::uint64_t kWriters = 4;
        constexpr unsigned kReaders = 2;
        auto writerPair = [](std::uint64_t t) {
            PairRecord p;
            p.key = PairKey{sampleCell(100 + t).key, 0x50 + t};
            p.delta.n = t + 1;
            p.delta.mean = 0.25 * static_cast<double>(t);
            return p;
        };
        ResultStore shared;
        shared.open(concPath);
        std::atomic<bool> writing{true};
        std::atomic<unsigned> readerPasses{0};
        std::atomic<unsigned> badDocs{0};
        std::vector<std::thread> readers;
        for (unsigned r = 0; r < kReaders; ++r)
            readers.emplace_back([&] {
                // At least one pass, however soon the writers finish.
                do {
                    CellRecord got;
                    shared.find(sampleCell(100).key, &got);
                    const std::size_t cellsNow = shared.cells().size();
                    const std::string doc =
                        storeQueryJson(shared, StoreQuery{}, {});
                    if (cellsNow > kWriters || !jsonValidate(doc))
                        ++badDocs;
                    ++readerPasses;
                } while (writing.load());
            });
        std::vector<std::thread> writers;
        for (std::uint64_t t = 0; t < kWriters; ++t)
            writers.emplace_back([&, t] {
                shared.put(sampleCell(100 + t));
                shared.putPair(writerPair(t));
                shared.save();
            });
        for (std::thread &t : writers)
            t.join();
        writing.store(false);
        for (std::thread &t : readers)
            t.join();
        CHECK_EQ(badDocs.load(), 0u);
        CHECK(readerPasses.load() >= kReaders);

        ResultStore fresh;
        fresh.load(concPath);
        CHECK_EQ(fresh.cellCount(), kWriters);
        CHECK_EQ(fresh.pairCount(), kWriters);
        for (std::uint64_t t = 0; t < kWriters; ++t) {
            CellRecord got;
            CHECK(fresh.find(sampleCell(100 + t).key, &got));
            CHECK(cellsBitEqual(got, sampleCell(100 + t)));
            PairRecord gotPair;
            CHECK(fresh.findPair(writerPair(t).key, &gotPair));
            CHECK(pairsBitEqual(gotPair, writerPair(t)));
        }
        std::remove(concPath.c_str());
    }

    // --- Container pin: a fixed store's file bytes, so every byte
    // the writer lays down stays fixed, not only what a load accepts.
    {
        ResultStore pinned;
        for (std::uint64_t i = 0; i < 3; ++i)
            pinned.put(sampleCell(i));
        PairRecord p;
        p.key.base = sampleCell(1).key;
        p.key.testDigest = 0x3333;
        p.delta.n = 91;
        p.delta.mean = -0.25;
        p.delta.m2 = 0.5;
        p.delta.min = -1.0;
        p.delta.max = 0.75;
        pinned.putPair(p);
        pinned.save(storePath);
        const std::vector<std::uint8_t> image = readAll(storePath);
        CHECK_PIN(fnv1a(image.data(), image.size()),
                  0x964744a61ac73230ull);
    }

    // --- Differential: seeded random put/putPair/find/findPair
    // steps over a small key pool, so keys repeat, with a save/load
    // round trip every 500 steps. Every step is checked
    // against std::map oracles keyed by the full identity, last
    // writer wins.
    {
        Rng rng(17, "store-differential");
        const ConfidenceSpec specs[] = {{0.997, 0.03}, {0.95, 0.10}};
        auto randomKey = [&]() {
            return ResultKey::make(
                1 + rng.nextBounded(3), 10 + rng.nextBounded(3),
                5 + rng.nextBounded(2), 8, rng.nextBounded(2) != 0,
                rng.nextBounded(2) != 0, specs[rng.nextBounded(2)]);
        };
        auto randomStat = [&]() {
            RunningStat::State st;
            st.n = rng.nextBounded(1000);
            st.mean = bitsFromDouble(rng.next() >> 2);
            st.m2 = rng.nextDouble();
            st.min = -rng.nextDouble();
            st.max = rng.nextDouble();
            return st;
        };
        std::map<std::array<std::uint64_t, 9>, CellRecord> cellOracle;
        std::map<std::array<std::uint64_t, 9>, PairRecord> pairOracle;
        ResultStore store;
        auto agrees = [&]() {
            bool ok = store.cellCount() == cellOracle.size() &&
                      store.pairCount() == pairOracle.size();
            for (const auto &kv : cellOracle) {
                CellRecord got;
                ok = ok && store.find(kv.second.key, &got) &&
                     cellsBitEqual(got, kv.second);
            }
            for (const auto &kv : pairOracle) {
                PairRecord got;
                ok = ok && store.findPair(kv.second.key, &got) &&
                     pairsBitEqual(got, kv.second);
            }
            return ok;
        };
        for (int step = 1; step <= 4000; ++step) {
            const std::uint64_t op = rng.nextBounded(100);
            if (op < 30) {
                CellRecord rec;
                rec.key = randomKey();
                rec.libPoints = rng.nextBounded(200);
                rec.processed = rng.nextBounded(200);
                rec.unavailableLoads = rng.nextBounded(5);
                rec.converged = rng.nextBounded(2) != 0;
                rec.cpiBits = rng.next();
                rec.stat = randomStat();
                store.put(rec);
                cellOracle[identity(rec.key)] = rec;
            } else if (op < 50) {
                PairRecord rec;
                rec.key = PairKey{randomKey(), 10 + rng.nextBounded(3)};
                rec.delta = randomStat();
                store.putPair(rec);
                pairOracle[identity(rec.key.base, rec.key.testDigest)] =
                    rec;
            } else if (op < 75) {
                const ResultKey k = randomKey();
                CellRecord got;
                const auto it = cellOracle.find(identity(k));
                const bool hit = store.find(k, &got);
                CHECK_EQ(hit, it != cellOracle.end());
                if (hit && it != cellOracle.end())
                    CHECK(cellsBitEqual(got, it->second));
            } else {
                const PairKey k{randomKey(), 10 + rng.nextBounded(3)};
                PairRecord got;
                const auto it =
                    pairOracle.find(identity(k.base, k.testDigest));
                const bool hit = store.findPair(k, &got);
                CHECK_EQ(hit, it != pairOracle.end());
                if (hit && it != pairOracle.end())
                    CHECK(pairsBitEqual(got, it->second));
            }
            CHECK_EQ(store.cellCount(), cellOracle.size());
            CHECK_EQ(store.pairCount(), pairOracle.size());
            if (step % 500 == 0) {
                CHECK(agrees());
                store.save(storePath);
                const std::vector<CellRecord> before = store.cells();
                store.load(storePath);
                CHECK(agrees());
                // File order survives the round trip.
                const std::vector<CellRecord> after = store.cells();
                CHECK_EQ(after.size(), before.size());
                for (std::size_t i = 0;
                     i < after.size() && i < before.size(); ++i)
                    CHECK(cellsBitEqual(after[i], before[i]));
            }
            if (lpTestFailures)
                break; // one detailed failure is enough
        }
        CHECK(cellOracle.size() > 50);
        CHECK(pairOracle.size() > 50);
    }

    // --- Digest parsing: 1-16 hex digits, nothing else.
    {
        std::uint64_t d = 0;
        CHECK(parseHexDigest("0", &d));
        CHECK_EQ(d, 0u);
        CHECK(parseHexDigest("ffffffffffffffff", &d));
        CHECK_EQ(d, ~std::uint64_t{0});
        CHECK(parseHexDigest("00AbCdEf", &d));
        CHECK_EQ(d, 0xabcdefu);
        d = 7;
        for (const char *bad :
             {"", "zz", "0x12", "12 ", " 12", "-1", "+1", "12g",
              "1ffffffffffffffff", "00000000000000001"})
            CHECK(!parseHexDigest(bad, &d));
        CHECK_EQ(d, 7u);
    }

    // --- The shared query renderer: strict JSON, named libraries,
    // and each filter selecting exactly its records.
    {
        ResultStore store;
        store.open(storePath + ".query");
        for (std::uint64_t i = 0; i < 4; ++i)
            store.put(sampleCell(i));
        PairRecord p;
        p.key = PairKey{sampleCell(0).key, 0x2223};
        p.delta.n = 3;
        p.delta.mean = 0.5;
        store.putPair(p);
        const std::unordered_map<std::uint64_t, std::string> names{
            {0x1111, "named \"w\""}};
        const std::string all = storeQueryJson(store, {}, names);
        CHECK(jsonValidate(all));
        CHECK(all.find("\"cell_count\": 4") != std::string::npos);
        CHECK(all.find("\"pair_count\": 1") != std::string::npos);
        CHECK(all.find("\"workload\": \"named \\\"w\\\"\"") !=
              std::string::npos);
        CHECK(all.find("\"workload\": \"lib-0000000000001112\"") !=
              std::string::npos);
        CHECK(all.find(strfmt("\"cpi_bits\": \"%016llx\"",
                              static_cast<unsigned long long>(
                                  sampleCell(3).cpiBits))) !=
              std::string::npos);
        CHECK(all.find("\"rel_half_width\": ") != std::string::npos);
        CHECK(all.find("\"level\": 0.997") != std::string::npos);
        // A config filter keeps that config's cell and every pair
        // touching it; a library filter keeps one library's records.
        const std::string byConfig = storeQueryJson(
            store, StoreQuery{0, 0x2223}, names);
        CHECK(jsonValidate(byConfig));
        CHECK(byConfig.find("\"cell_count\": 1") != std::string::npos);
        CHECK(byConfig.find("\"pair_count\": 1") != std::string::npos);
        const std::string byLib = storeQueryJson(
            store, StoreQuery{0x1113, 0}, names);
        CHECK(byLib.find("\"cell_count\": 1") != std::string::npos);
        CHECK(byLib.find("\"pair_count\": 0") != std::string::npos);
        const std::string none = storeQueryJson(
            store, StoreQuery{0x9999, 0}, names);
        CHECK(jsonValidate(none));
        CHECK(none.find("\"cells\": [],") != std::string::npos);
    }

    // --- save() without open() must refuse (no remembered path).
    {
        ResultStore empty;
        CHECK_THROWS(empty.save());
    }

    // --- Campaign memoization: a populated store resolves every
    // overlapping cell without replaying, bit-identical to the fresh
    // run at every thread count; a widened grid replays only the new
    // column.
    std::vector<CoreConfig> cfgs{baseConfig(), slowMemConfig()};
    const TinyLib t =
        buildTinyLibrary("store-w0", 150'000, 9, 24, cfgs, 3);
    const std::vector<CampaignWorkload> grid{
        {"store-w0", &t.prog, &t.lib}};

    CampaignOptions copt;
    copt.blockSize = 8;
    copt.shuffleSeed = 5;
    CampaignEngine fresh(grid, cfgs, copt);
    const CampaignResult freshRes = fresh.run();
    CHECK_EQ(freshRes.memoizedCells, 0u);

    ResultStore store;
    const std::size_t published = fresh.publish(freshRes, store);
    CHECK_EQ(store.cellCount(), cfgs.size());
    CHECK_EQ(store.pairCount(), 1u);
    CHECK_EQ(published, cfgs.size() + 1);
    // Republishing is idempotent.
    CHECK_EQ(fresh.publish(freshRes, store), published);
    CHECK_EQ(store.cellCount(), cfgs.size());
    // The memoized runs below resolve from the store as saved and
    // reloaded, the path a restarted lpserved takes.
    store.save(storePath);
    store.load(storePath);
    CHECK_EQ(store.cellCount(), cfgs.size());

    for (unsigned threads : {1u, 2u, 4u}) {
        CampaignOptions mo = copt;
        mo.threads = threads;
        mo.resultStore = &store;
        CampaignEngine memo(grid, cfgs, mo);
        const CampaignResult mres = memo.run();
        CHECK_EQ(mres.memoizedCells, cfgs.size());
        CHECK_EQ(mres.pointsDecoded, 0u);
        CHECK_EQ(mres.replaysExecuted, 0u);
        CHECK_EQ(mres.memoizedReplays,
                 static_cast<std::uint64_t>(t.lib.size()) *
                     cfgs.size());
        for (std::size_t c = 0; c < cfgs.size(); ++c) {
            const CampaignCell &mc = mres.cell(0, c, cfgs.size());
            const CampaignCell &fc = freshRes.cell(0, c, cfgs.size());
            CHECK(mc.memoized);
            CHECK_EQ(doubleBits(mc.cpi()), doubleBits(fc.cpi()));
            CHECK_EQ(mc.processed, fc.processed);
            CHECK_EQ(mc.unavailableLoads, fc.unavailableLoads);
            CHECK_EQ(mc.stat.count(), fc.stat.count());
            CHECK_EQ(doubleBits(mc.stat.mean()),
                     doubleBits(fc.stat.mean()));
        }
        // Pairs between two memoized cells restore from the store.
        const CampaignPair *mp = mres.pair(0, 0, 1);
        const CampaignPair *fp = freshRes.pair(0, 0, 1);
        CHECK(mp && fp);
        CHECK_EQ(mp->delta.count(), fp->delta.count());
        CHECK_EQ(doubleBits(mp->meanDelta()),
                 doubleBits(fp->meanDelta()));
        // The memoized report still parses strictly and says so.
        const std::string report = memo.jsonReport(mres);
        CHECK(jsonValidate(report));
        CHECK(report.find("\"memoized\": true") != std::string::npos);
    }

    // --- Widened grid: the overlap memoizes, only the new column
    // replays, and everything matches the from-scratch wide run.
    {
        std::vector<CoreConfig> wide = cfgs;
        CoreConfig extra = baseConfig();
        extra.name = "mem-140";
        extra.mem.memLatency = 140;
        wide.push_back(extra);

        CampaignOptions wo = copt;
        wo.resultStore = &store;
        CampaignEngine memoWide(grid, wide, wo);
        const CampaignResult wres = memoWide.run();
        CampaignEngine scratchWide(grid, wide, copt);
        const CampaignResult sres = scratchWide.run();

        CHECK_EQ(wres.memoizedCells, cfgs.size());
        CHECK_EQ(wres.foldedReplays,
                 static_cast<std::uint64_t>(t.lib.size()));
        for (std::size_t c = 0; c < wide.size(); ++c) {
            const CampaignCell &wc = wres.cell(0, c, wide.size());
            const CampaignCell &sc = sres.cell(0, c, wide.size());
            CHECK_EQ(doubleBits(wc.cpi()), doubleBits(sc.cpi()));
            CHECK_EQ(wc.processed, sc.processed);
        }
        CHECK_EQ(wres.cell(0, 2, wide.size()).memoized, false);
        // Memoized-pair restore covers the memoized x memoized pair;
        // memoized x fresh pairs stay empty (per-point deltas are not
        // reconstructable from fold state — the documented limit).
        CHECK_EQ(wres.pair(0, 0, 1)->delta.count(),
                 sres.pair(0, 0, 1)->delta.count());
        CHECK_EQ(wres.pair(0, 0, 2)->delta.count(), 0u);
        CHECK(sres.pair(0, 0, 2)->delta.count() > 0u);

        // Publishing the wide run completes the store for next time.
        memoWide.publish(wres, store);
        CHECK_EQ(store.cellCount(), wide.size());
    }

    // --- A resume that cannot find a cell the first run memoized.
    // The manifest records a cell taken from the store with 0 points;
    // when the resume's store no longer holds it, the cell sits below
    // its workload's fold frontier and fails stale_fold_state, whether
    // the first run stopped inside that workload or after it. Every
    // other cell resumes to the uninterrupted run's bits.
    {
        const TinyLib t1 =
            buildTinyLibrary("store-w1", 150'000, 10, 24, cfgs, 3);
        const std::vector<CampaignWorkload> grid2{
            {"store-w0", &t.prog, &t.lib}, {"store-w1", &t1.prog, &t1.lib}};
        const std::size_t nc = cfgs.size();
        CampaignEngine whole(grid2, cfgs, copt);
        const CampaignResult wholeRes = whole.run();
        CHECK_EQ(wholeRes.failedCells, 0u);
        ResultStore all;
        whole.publish(wholeRes, all);
        ResultStore first; // holds (w0, c0) only
        for (const CellRecord &rec : all.cells())
            if (rec.key.libHash == t.lib.contentHash() &&
                rec.cpiBits == doubleBits(wholeRes.cell(0, 0, nc).cpi()))
                first.put(rec);
        CHECK_EQ(first.cellCount(), 1u);

        // w0 replays its second cell alone (one replay a point), then
        // w1 both cells: a budget of 8 stops after w0's first block,
        // one of 40 after w1's first block.
        const std::string mf = storePath + ".resume-manifest";
        for (const std::uint64_t budget : {8u, 40u}) {
            std::filesystem::remove(mf);
            CampaignOptions o1 = copt;
            o1.manifestPath = mf;
            o1.resultStore = &first;
            o1.maxFoldedReplays = budget;
            const CampaignResult stopped =
                CampaignEngine(grid2, cfgs, o1).run();
            CHECK(stopped.budgetExhausted);
            CHECK_EQ(stopped.memoizedCells, 1u);
            CHECK_EQ(stopped.foldedReplays, budget);

            CampaignOptions o2 = copt;
            o2.manifestPath = mf;
            const CampaignResult resumed =
                CampaignEngine(grid2, cfgs, o2).run();
            const CampaignCell &lost = resumed.cell(0, 0, nc);
            CHECK(lost.failed);
            CHECK(lost.reason == CellFailReason::staleFoldState);
            CHECK(lost.failureReason.find(
                      "the run that wrote the manifest took this cell "
                      "from the result store") != std::string::npos);
            CHECK_EQ(resumed.failedCells, 1u);
            for (std::size_t w = 0; w < grid2.size(); ++w)
                for (std::size_t c = 0; c < nc; ++c) {
                    if (w == 0 && c == 0)
                        continue;
                    CHECK(!resumed.cell(w, c, nc).failed);
                    CHECK_EQ(doubleBits(resumed.cell(w, c, nc).cpi()),
                             doubleBits(wholeRes.cell(w, c, nc).cpi()));
                }
        }
        std::filesystem::remove(mf);
    }

    // --- A store whose library size disagrees with the workload is
    // ignored (fresh replay), and a tampered CPI bit pattern fails
    // the restore cross-check loudly instead of being served.
    {
        ResultStore stale;
        fresh.publish(freshRes, stale);
        std::vector<CellRecord> recs = stale.cells();
        for (CellRecord r : recs) {
            r.libPoints += 1;
            stale.put(r); // same key, wrong libPoints -> no memo hit
        }
        // Overwrite under the same keys happened in place: the
        // records now disagree with the library, so nothing memoizes.
        CampaignOptions so = copt;
        so.resultStore = &stale;
        CampaignEngine engine(grid, cfgs, so);
        const CampaignResult r = engine.run();
        CHECK_EQ(r.memoizedCells, 0u);
        CHECK_EQ(doubleBits(r.cell(0, 0, cfgs.size()).cpi()),
                 doubleBits(freshRes.cell(0, 0, cfgs.size()).cpi()));

        ResultStore tampered;
        fresh.publish(freshRes, tampered);
        for (CellRecord rec : tampered.cells()) {
            rec.cpiBits ^= 1; // no longer the fold state's mean
            tampered.put(rec);
        }
        CampaignOptions to = copt;
        to.resultStore = &tampered;
        CampaignEngine victim(grid, cfgs, to);
        CHECK_THROWS(victim.run());
    }

    // --- Hostile free text in the report: quotes, backslashes, and
    // control bytes in every string field must still yield strictly
    // parseable JSON (the IoError-detail regression).
    {
        std::vector<CoreConfig> evil = cfgs;
        evil[0].name = "quote\" back\\slash";
        evil[1].name = "ctl\x01\x02\ntab\t";
        const std::vector<CampaignWorkload> egrid{
            {"w\"0\\\x1f", &t.prog, &t.lib}};
        CampaignEngine engine(egrid, evil, copt);
        CampaignResult r = engine.run();
        r.cells[0].failed = true;
        r.cells[0].reason = CellFailReason::replayFault;
        r.cells[0].failureReason =
            "io error: \"inject\\path\" \x01\x02\x1f\n\t fault";
        r.failedCells = 1;
        r.cancelled = true;
        r.cancelReason = "operator said \"stop\"\r\n";
        const std::string report = engine.jsonReport(r);
        CHECK(jsonValidate(report));
        CHECK(report.find("\\u0001") != std::string::npos);
        CHECK(report.find("\\\"inject\\\\path\\\"") !=
              std::string::npos);
    }

    std::filesystem::remove_all(tmp);
    return TEST_MAIN_RESULT();
}

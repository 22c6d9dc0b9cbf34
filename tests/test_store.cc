/**
 * The fleet result store's contracts: LPRES1 round-trips records
 * bit-exactly, loading is corruption-strict (a missing file, every
 * single-byte truncation and byte flip throws, nothing loads
 * partially, and a repeated cell or pair key fails the load) and
 * remembers the loaded path, campaign memoization
 * restores cells bit-identical
 * to replaying at every thread count, the stored-CPI cross-check
 * catches a tampered record, and the campaign JSON report survives a
 * strict parser even with hostile free-text fields.
 */

#include "test_util.hh"

#include <array>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <unordered_map>

#include <unistd.h>

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

    // --- Duplicate keys on disk: save() writes each key once, so a
    // repeated key is corruption. Built by hand-patching record 1 into
    // a duplicate of record 0's key (new payload, recomputed record
    // FNV, index entry, and footer), for cells and for pairs; each
    // load throws IoError naming the file and leaves the store as it
    // was.
    {
        ResultStore two;
        two.put(sampleCell(0));
        two.put(sampleCell(1));
        PairRecord p;
        p.key = PairKey{sampleCell(0).key, 0x7};
        p.delta.n = 3;
        two.putPair(p);
        p.key.testDigest = 0x8;
        two.putPair(p);
        two.save(storePath);
        const std::vector<std::uint8_t> image = readAll(storePath);

        const std::size_t metaSize =
            static_cast<std::size_t>(getU64le(image.data() + 16));
        const std::size_t indexOff = 48 + metaSize;
        const std::size_t cellBase = indexOff + 2 * 8;
        constexpr std::size_t kCellBytes = 17 * 8;
        constexpr std::size_t kPairBytes = 14 * 8;
        const std::size_t pairBase = cellBase + 2 * kCellBytes;

        // Reseal @p patched with a fresh footer and load it into a
        // store that already holds one record.
        auto rejected = [&](const std::vector<std::uint8_t> &patched) {
            Blob sealed(patched.begin(),
                        patched.end() - checksumFooterBytes);
            appendChecksumFooter(sealed);
            writeAll(storePath, sealed.data(), sealed.size());
            ResultStore victim;
            victim.put(sampleCell(5));
            bool named = false;
            try {
                victim.load(storePath);
            } catch (const IoError &e) {
                const std::string msg = e.what();
                named = msg.find(storePath) != std::string::npos &&
                        msg.find("duplicate key") != std::string::npos;
            }
            return named && victim.cellCount() == 1 &&
                   victim.find(sampleCell(5).key, nullptr);
        };

        // The unpatched image loads: the rejections below are the
        // duplicates' doing.
        ResultStore clean;
        clean.load(storePath);
        CHECK_EQ(clean.cellCount(), 2u);
        CHECK_EQ(clean.pairCount(), 2u);

        // Cell 1 := cell 0's key with a different CPI + mean.
        std::vector<std::uint8_t> dupCell = image;
        std::uint8_t *rec0 = dupCell.data() + cellBase;
        std::uint8_t *rec1 = rec0 + kCellBytes;
        std::memcpy(rec1, rec0, kCellBytes);
        putU64le(rec1 + 80, doubleBits(2.5)); // cpiBits
        putU64le(rec1 + 96, doubleBits(2.5)); // stat mean bits
        putU64le(rec1 + 16 * 8, fnv1a(rec1, 16 * 8));
        // Index entry 1 now carries record 0's key hash.
        std::memcpy(dupCell.data() + indexOff + 8,
                    dupCell.data() + indexOff, 8);
        CHECK(rejected(dupCell));

        // Pair 1 := pair 0's key with a different count.
        std::vector<std::uint8_t> dupPair = image;
        std::uint8_t *pair0 = dupPair.data() + pairBase;
        std::uint8_t *pair1 = pair0 + kPairBytes;
        std::memcpy(pair1, pair0, kPairBytes);
        putU64le(pair1 + 64, 9); // delta n
        putU64le(pair1 + 13 * 8, fnv1a(pair1, 13 * 8));
        CHECK(rejected(dupPair));
    }

    // --- Container pin: a fixed store's file bytes, so every header,
    // meta, index and record byte the writer lays down stays fixed,
    // not only what a load accepts.
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
                  0x437ed1fe538a5afaull);
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

/**
 * The exactness property live-points rely on: a CacheSetRecord taken
 * at a maximum geometry reconstructs a smaller target cache to
 * exactly the state direct warming would have produced. And the
 * install that reconstruct() performs equals, bit for bit, replaying
 * the record's lines through access() — the original reconstruct,
 * kept here as the oracle — at every target geometry with the
 * record's line size.
 */

#include "harness.hh"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "cache/cache.hh"
#include "cache/warmstate.hh"
#include "codec/zip.hh"
#include "util/rng.hh"

namespace
{

using namespace lp;

/**
 * Compare full contents + LRU behaviour of two caches: the same tags
 * in the same recency order per set, and with @p dirty the same dirty
 * bits too.
 */
bool
sameState(const CacheModel &a, const CacheModel &b, bool dirty = false)
{
    if (a.numSets() != b.numSets())
        return false;
    for (std::uint64_t s = 0; s < a.numSets(); ++s) {
        const auto &sa = a.linesOfSet(s);
        const auto &sb = b.linesOfSet(s);
        if (sa.size() != sb.size())
            return false;
        // Same tags, and same recency ordering.
        std::vector<std::pair<std::uint64_t, CacheLine>> oa;
        std::vector<std::pair<std::uint64_t, CacheLine>> ob;
        for (const CacheLine &l : sa)
            oa.emplace_back(l.lastAccess, l);
        for (const CacheLine &l : sb)
            ob.emplace_back(l.lastAccess, l);
        auto byStamp = [](const auto &x, const auto &y) {
            return x.first < y.first;
        };
        std::sort(oa.begin(), oa.end(), byStamp);
        std::sort(ob.begin(), ob.end(), byStamp);
        for (std::size_t i = 0; i < oa.size(); ++i) {
            if (oa[i].second.tag != ob[i].second.tag)
                return false;
            if (dirty && oa[i].second.dirty != ob[i].second.dirty)
                return false;
        }
    }
    return true;
}

/**
 * Way-exact equality: per set, the same (tag, stamp, dirty) in every
 * way, in way order, and the same access clock.
 */
bool
sameWays(const CacheModel &a, const CacheModel &b)
{
    if (a.numSets() != b.numSets() || a.accessClock() != b.accessClock())
        return false;
    for (std::uint64_t s = 0; s < a.numSets(); ++s) {
        const std::vector<CacheLine> la = a.linesOfSet(s);
        const std::vector<CacheLine> lb = b.linesOfSet(s);
        if (la.size() != lb.size())
            return false;
        for (std::size_t w = 0; w < la.size(); ++w)
            if (la[w].tag != lb[w].tag ||
                la[w].lastAccess != lb[w].lastAccess ||
                la[w].dirty != lb[w].dirty)
                return false;
    }
    return true;
}

/**
 * The oracle: reset, then one access() per recorded line, oldest
 * first — the lines read back from the record's wire form.
 */
void
replayRecord(const CacheSetRecord &csr, CacheModel &target)
{
    const Blob bytes = csr.serialize();
    DerReader r(bytes);
    DerReader seq = r.getSequence();
    seq.getUint(); // size
    seq.getUint(); // assoc
    const std::uint64_t lineBytes = seq.getUint();
    const std::uint64_t n = seq.getUint();
    target.reset();
    for (std::uint64_t i = 0; i < n; ++i) {
        const std::uint64_t v = seq.getUint();
        target.access((v >> 1) * lineBytes, (v & 1) != 0);
    }
}

/**
 * Install vs replay of @p csr into @p geom: the same ways, stamps,
 * dirty bits and clock, and then the same hit and writeback on every
 * access of one 10^5-access stream.
 */
void
checkInstallEqualsReplay(const CacheSetRecord &csr,
                         const CacheGeometry &geom, std::uint64_t seed)
{
    CacheModel installed(geom, "installed");
    CacheModel replayed(geom, "replayed");
    // Dirty the target first: the install must not depend on what
    // the cache held before.
    Rng pre(seed, "pre-state");
    for (int i = 0; i < 5'000; ++i)
        installed.access(pre.nextBounded(64ull << 20), true);
    csr.reconstruct(installed);
    replayRecord(csr, replayed);
    CHECK(sameWays(installed, replayed));
    Rng rng(seed, "after-install");
    std::uint64_t mismatches = 0;
    for (int i = 0; i < 100'000; ++i) {
        const Addr a = rng.nextBounded(96ull << 20) & ~7ull;
        const bool write = rng.nextBool(0.3);
        const AccessResult x = installed.access(a, write);
        const AccessResult y = replayed.access(a, write);
        mismatches += x.hit != y.hit || x.writeback != y.writeback;
    }
    CHECK_EQ(mismatches, 0u);
    CHECK(sameWays(installed, replayed));
}

/**
 * The division-based reference: a vector of lines per set, indexed
 * with `/` and `%` for any geometry. Empty ways fill in way order and
 * a full set evicts its least recently used line in place, so its
 * lines sit in the same ways CacheModel's do.
 */
class DivisionCache
{
  public:
    explicit DivisionCache(const CacheGeometry &geom) : geom_(geom)
    {
        sets_.resize(std::max<std::uint64_t>(geom_.numSets(), 1));
    }

    AccessResult access(Addr a, bool write)
    {
        const Addr tag = a - a % geom_.lineBytes;
        std::vector<CacheLine> &set =
            sets_[(a / geom_.lineBytes) % sets_.size()];
        ++clock_;
        AccessResult res;
        for (CacheLine &line : set) {
            if (line.tag == tag) {
                line.lastAccess = clock_;
                line.dirty = line.dirty || write;
                res.hit = true;
                return res;
            }
        }
        if (set.size() < geom_.assoc) {
            set.push_back(CacheLine{tag, clock_, write});
            return res;
        }
        std::size_t victim = 0;
        for (std::size_t i = 1; i < set.size(); ++i)
            if (set[i].lastAccess < set[victim].lastAccess)
                victim = i;
        res.writeback = set[victim].dirty;
        set[victim] = CacheLine{tag, clock_, write};
        return res;
    }

    bool probe(Addr a) const
    {
        const Addr tag = a - a % geom_.lineBytes;
        for (const CacheLine &line :
             sets_[(a / geom_.lineBytes) % sets_.size()])
            if (line.tag == tag)
                return true;
        return false;
    }

    const std::vector<CacheLine> &linesOfSet(std::uint64_t s) const
    {
        return sets_[s];
    }

  private:
    CacheGeometry geom_;
    std::vector<std::vector<CacheLine>> sets_;
    std::uint64_t clock_ = 0;
};

/**
 * Seeded differential of CacheModel against DivisionCache on @p geom:
 * hit and writeback per access, probe() on fresh and resident
 * addresses, and every set's lines way by way. Addresses come from a
 * low region and from just under 2^64, where a wrapped index or tag
 * would show.
 */
std::uint64_t
divisionMismatches(const CacheGeometry &geom, std::uint64_t seed)
{
    CacheModel model(geom, "model");
    DivisionCache ref(geom);
    Rng rng(seed, "division-ref");
    const std::uint64_t span = 4 * geom.sizeBytes;
    std::uint64_t bad = 0;
    auto address = [&]() -> Addr {
        const Addr off = rng.nextBounded(span);
        return rng.nextBool(0.5) ? off : ~Addr(0) - off;
    };
    for (int i = 0; i < 60'000; ++i) {
        const Addr a = address();
        const bool write = rng.nextBool(0.3);
        const AccessResult x = model.access(a, write);
        const AccessResult y = ref.access(a, write);
        bad += x.hit != y.hit || x.writeback != y.writeback;
        const Addr p = address();
        bad += model.probe(p) != ref.probe(p);
        bad += model.probe(a) != ref.probe(a);
    }
    for (std::uint64_t s = 0; s < model.numSets(); ++s) {
        const std::vector<CacheLine> got = model.linesOfSet(s);
        const std::vector<CacheLine> &want = ref.linesOfSet(s);
        bool same = got.size() == want.size();
        for (std::size_t w = 0; same && w < got.size(); ++w)
            same = got[w].tag == want[w].tag &&
                   got[w].lastAccess == want[w].lastAccess &&
                   got[w].dirty == want[w].dirty;
        bad += !same;
    }
    return bad;
}

} // namespace

int
main()
{
    using namespace lp;

    // CacheModel indexes like the division-based reference on every
    // Table-1 geometry (8- and 16-way L1s, L2s and TLBs), the 1 MB
    // 8-way L2, a 3-way cache of 1000 sets, and 48- and 96-byte lines.
    {
        const CacheGeometry geoms[] = {
            {32 * 1024, 2, 64},       {1ull << 20, 4, 128},
            {64 * 4096, 4, 4096},     {128 * 4096, 4, 4096},
            {64 * 1024, 2, 64},       {4ull << 20, 8, 128},
            {256 * 4096, 4, 4096},    {1ull << 20, 8, 128},
            {3 * 1000 * 64, 3, 64},   {4 * 256 * 48, 4, 48},
            {2 * 100 * 96, 2, 96},
        };
        std::uint64_t seed = 300;
        for (const CacheGeometry &g : geoms) {
            const std::uint64_t bad = divisionMismatches(g, seed++);
            if (bad)
                std::fprintf(stderr,
                             "geometry %llu/%u/%llu: %llu mismatches\n",
                             static_cast<unsigned long long>(g.sizeBytes),
                             g.assoc,
                             static_cast<unsigned long long>(g.lineBytes),
                             static_cast<unsigned long long>(bad));
            CHECK_EQ(bad, 0u);
        }
    }

    // Warm a max cache and a (smaller) direct cache with the same
    // reference stream; reconstructing the small one from the max
    // CSR must reproduce its exact contents.
    const CacheGeometry maxGeom{4 * 1024 * 1024, 8, 128};
    const CacheGeometry smallGeom{1 * 1024 * 1024, 4, 128};
    {
        CacheModel maxCache(maxGeom, "max");
        CacheModel direct(smallGeom, "direct");
        Rng rng(21, "stream");
        for (int i = 0; i < 300'000; ++i) {
            const Addr a = rng.nextBounded(64ull << 20) & ~7ull;
            const bool write = rng.nextBool(0.3);
            maxCache.access(a, write);
            direct.access(a, write);
        }
        const CacheSetRecord csr(maxCache);
        CHECK(csr.entryCount() > 0);
        CHECK(csr.maxGeometry() == maxGeom);

        CacheModel rebuilt(smallGeom, "rebuilt");
        csr.reconstruct(rebuilt);
        CHECK(sameState(direct, rebuilt));

        // Same-geometry reconstruction is exact too, dirty bits
        // included.
        CacheModel same(maxGeom, "same");
        csr.reconstruct(same);
        CHECK(sameState(maxCache, same, true));

        // CSR round-trips through serialization byte-exactly.
        const Blob bytes = csr.serialize();
        DerReader r(bytes);
        const CacheSetRecord back = CacheSetRecord::deserialize(r);
        CHECK(back.serialize() == bytes);
        CacheModel rebuilt2(smallGeom, "rebuilt2");
        back.reconstruct(rebuilt2);
        CHECK(sameState(direct, rebuilt2));

        // The install equals the replay, bit for bit: at the maximum,
        // a smaller power-of-two geometry, a 3-way cache with a
        // non-power-of-two set count (1000 sets), 1-way, and a target
        // larger than the maximum.
        const CacheGeometry targets[] = {
            maxGeom,
            smallGeom,
            {3 * 1000 * 128, 3, 128},
            {256 * 1024, 1, 128},
            {8 * 1024 * 1024, 16, 128},
        };
        std::uint64_t seed = 100;
        for (const CacheGeometry &g : targets)
            checkInstallEqualsReplay(csr, g, seed++);

        // A target with another line size cannot take the record's
        // line numbers: it throws, naming both sizes.
        CacheModel wrongLine({1024 * 1024, 4, 64}, "l2-64b");
        bool threw = false;
        try {
            csr.reconstruct(wrongLine);
        } catch (const std::invalid_argument &e) {
            threw = std::string(e.what()).find("64") !=
                        std::string::npos &&
                    std::string(e.what()).find("128") !=
                        std::string::npos;
        }
        CHECK(threw);
    }

    // The same for a TLB (4 KB pages): a record at the maximum TLB
    // geometry installs into smaller and odd TLBs exactly as a replay.
    {
        const CacheGeometry maxTlb{256 * 4096, 4, 4096};
        CacheModel tlb(maxTlb, "dtlb-max");
        Rng rng(24, "tlb");
        for (int i = 0; i < 50'000; ++i)
            tlb.access(rng.nextBounded(64ull << 20), rng.nextBool(0.2));
        const CacheSetRecord csr(tlb);
        CHECK(csr.entryCount() > 0);
        checkInstallEqualsReplay(csr, maxTlb, 200);
        checkInstallEqualsReplay(csr, {64 * 4096, 4, 4096}, 201);
        checkInstallEqualsReplay(csr, {48 * 4096, 3, 4096}, 202);
    }

    // MTR reconstructs the same warm state as direct warming (it has
    // every touched line), while its storage grows with footprint.
    {
        MemoryTimestampRecord mtr(128);
        CacheModel direct(smallGeom, "direct");
        Rng rng(22, "mtr");
        std::uint64_t t = 0;
        for (int i = 0; i < 100'000; ++i) {
            const Addr a = rng.nextBounded(16ull << 20) & ~7ull;
            const bool write = rng.nextBool(0.25);
            mtr.record(a, write, t++);
            direct.access(a, write);
        }
        CacheModel rebuilt(smallGeom, "rebuilt");
        mtr.reconstruct(rebuilt);
        CHECK(sameState(direct, rebuilt));
        CHECK(mtr.entryCount() > 0);

        // Bigger footprint -> bigger MTR, CSR stays bounded.
        MemoryTimestampRecord mtrBig(128);
        CacheModel maxCache(maxGeom, "max");
        Rng rng2(23, "mtr-big");
        t = 0;
        for (int i = 0; i < 100'000; ++i) {
            const Addr a = rng2.nextBounded(64ull << 20) & ~7ull;
            mtrBig.record(a, false, t++);
            maxCache.access(a, false);
        }
        CHECK(mtrBig.serialize().size() > mtr.serialize().size());
        const CacheSetRecord csr(maxCache);
        CHECK(csr.entryCount() <= maxGeom.numLines());
    }

    return TEST_MAIN_RESULT();
}

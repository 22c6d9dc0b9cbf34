/**
 * Hot-path guarantees of the replay core:
 *
 *  - Steady-state replay performs ZERO heap allocations per point.
 *    The test binary overrides global operator new/delete with a
 *    counter, warms a pooled ReplayContext over a full library pass
 *    (growing every recycled buffer to its high-water mark), then
 *    asserts that a second full pass — decode, warm-state
 *    reconstruction, detailed simulation — never enters the allocator,
 *    for one configuration and for a four-configuration lockstep
 *    fan-out, including a point whose warming runs to the program's
 *    end (the chunk buffer is fixed; no record field sizes it).
 *  - The SoA CacheModel is behaviourally identical to the simple
 *    AoS true-LRU reference model it replaced: per-access hit and
 *    writeback results and final tag/recency/dirty state match on
 *    randomized streams across associativities (including odd assoc,
 *    which exercises the vectorized scan's scalar tail).
 *  - A MemoryImage decoded into flat replay storage re-serializes
 *    byte-identically and answers contains() like the capture-time
 *    map form.
 */

#include "test_util.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>

#include "core/replay.hh"
#include "mem/memport.hh"

// --- global allocation counter -------------------------------------

static std::atomic<std::uint64_t> gAllocs{0};

void *
operator new(std::size_t n)
{
    gAllocs.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(n ? n : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t n)
{
    return operator new(n);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace
{

using namespace lp;

/** The pre-SoA AoS cache model, kept verbatim as the test oracle. */
class RefCache
{
  public:
    explicit RefCache(const CacheGeometry &geom) : geom_(geom)
    {
        sets_.resize(std::max<std::uint64_t>(geom_.numSets(), 1));
    }

    AccessResult access(Addr a, bool write)
    {
        const Addr tag = a - (a % geom_.lineBytes);
        auto &set = sets_[(a / geom_.lineBytes) % sets_.size()];
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
        if (set.size() >= geom_.assoc) {
            std::size_t victim = 0;
            for (std::size_t i = 1; i < set.size(); ++i)
                if (set[i].lastAccess < set[victim].lastAccess)
                    victim = i;
            res.writeback = set[victim].dirty;
            set[victim] = CacheLine{tag, clock_, write};
        } else {
            set.push_back(CacheLine{tag, clock_, write});
        }
        return res;
    }

    const std::vector<CacheLine> &linesOfSet(std::uint64_t s) const
    {
        return sets_[s];
    }

    std::uint64_t numSets() const { return sets_.size(); }

  private:
    CacheGeometry geom_;
    std::vector<std::vector<CacheLine>> sets_;
    std::uint64_t clock_ = 0;
};

/** Full-state comparison: tags, recency stamps, and dirty bits. */
bool
sameCacheState(const CacheModel &a, const RefCache &b)
{
    if (a.numSets() != b.numSets())
        return false;
    for (std::uint64_t s = 0; s < a.numSets(); ++s) {
        auto keyed = [](const std::vector<CacheLine> &lines) {
            std::vector<std::tuple<std::uint64_t, Addr, bool>> v;
            for (const CacheLine &l : lines)
                v.emplace_back(l.lastAccess, l.tag, l.dirty);
            std::sort(v.begin(), v.end());
            return v;
        };
        if (keyed(a.linesOfSet(s)) != keyed(b.linesOfSet(s)))
            return false;
    }
    return true;
}

void
cacheEquivalence()
{
    const CacheGeometry geoms[] = {
        {16 * 1024, 1, 64}, {32 * 1024, 2, 64},  {64 * 1024, 3, 64},
        {64 * 1024, 4, 128}, {256 * 1024, 8, 64},
    };
    for (const CacheGeometry &g : geoms) {
        CacheModel soa(g, "soa");
        RefCache ref(g);
        Rng rng(g.assoc * 1000 + 7, "hotpath-cache");
        for (int i = 0; i < 200'000; ++i) {
            // Mix a hot region with cold sweeps so hits, misses,
            // evictions, and writebacks all occur.
            const Addr a = rng.nextBool(0.7)
                               ? rng.nextBounded(g.sizeBytes / 2)
                               : rng.nextBounded(64ull << 20);
            const bool write = rng.nextBool(0.3);
            const AccessResult rs = soa.access(a, write);
            const AccessResult rr = ref.access(a, write);
            CHECK_EQ(static_cast<int>(rs.hit), static_cast<int>(rr.hit));
            CHECK_EQ(static_cast<int>(rs.writeback),
                     static_cast<int>(rr.writeback));
            if (lpTestFailures)
                return; // one divergence floods the log otherwise
        }
        CHECK(sameCacheState(soa, ref));

        // probe() agrees with membership and never perturbs state.
        Rng rng2(g.assoc, "hotpath-probe");
        for (int i = 0; i < 1000; ++i) {
            const Addr a = rng2.nextBounded(64ull << 20);
            const Addr line = a - (a % g.lineBytes);
            bool inRef = false;
            for (const CacheLine &l :
                 ref.linesOfSet((a / g.lineBytes) % ref.numSets()))
                inRef = inRef || l.tag == line;
            CHECK_EQ(static_cast<int>(soa.probe(a)),
                     static_cast<int>(inRef));
        }
        CHECK(sameCacheState(soa, ref));

        // copyStateFrom() reproduces the full state.
        CacheModel copy(g, "copy");
        copy.copyStateFrom(soa);
        CHECK(sameCacheState(copy, ref));
        CHECK_EQ(copy.accessClock(), soa.accessClock());
    }
}

void
memoryImageFlatPath()
{
    SparseMemory mem;
    MemoryImage captured(64);
    Rng rng(5, "hotpath-image");
    for (int i = 0; i < 400; ++i) {
        const Addr a = rng.nextBounded(1 << 18) & ~7ull;
        mem.write64(a, rng.next());
        captured.captureBeforeAccess(mem, a);
    }
    DerWriter w;
    captured.serialize(w);
    const Blob bytes = w.finish();

    MemoryImage flat;
    {
        DerReader r(bytes);
        MemoryImage::deserializeInto(r, flat);
    }
    CHECK_EQ(flat.blockCount(), captured.blockCount());
    CHECK_EQ(flat.payloadBytes(), captured.payloadBytes());

    // Flat storage re-serializes byte-identically (canonical order).
    DerWriter w2;
    flat.serialize(w2);
    CHECK(w2.finish() == bytes);

    // contains() agrees between the two forms.
    Rng rng2(6, "hotpath-image-2");
    for (int i = 0; i < 2000; ++i) {
        const Addr a = rng2.nextBounded(1 << 18) & ~7ull;
        CHECK_EQ(static_cast<int>(captured.contains(a)),
                 static_cast<int>(flat.contains(a)));
        if (lpTestFailures)
            return;
    }

    // A replay image must reject capture attempts.
    CHECK_THROWS(flat.captureBeforeAccess(mem, 0));
}

/**
 * The satellite contract: once warm, replay allocates nothing — not
 * in decode, not in warm-state reconstruction, not in the timing
 * loop.
 */
void
zeroAllocSteadyState()
{
    const lptest::TinyLib t = lptest::buildTinyLibrary(
        "hotpath", 60'000, 31, 6,
        {lptest::baseConfig(), lptest::slowMemConfig()});
    const std::size_t n = t.lib.size();
    CHECK(n >= 4);

    // Single-configuration path.
    {
        ReplayContext ctx(t.prog, lptest::baseConfig());
        LivePointDecodeScratch scratch;
        LivePoint point;
        std::vector<WindowResult> warm(n);
        for (std::size_t i = 0; i < n; ++i) {
            t.lib.decodeInto(i, scratch, point);
            warm[i] = ctx.simulate(point);
        }
        const std::uint64_t before =
            gAllocs.load(std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i) {
            t.lib.decodeInto(i, scratch, point);
            const WindowResult r = ctx.simulate(point);
            CHECK_EQ(r.cycles, warm[i].cycles); // pooled = warm pass
        }
        const std::uint64_t after =
            gAllocs.load(std::memory_order_relaxed);
        CHECK_EQ(after - before, 0u);
    }

    // Decode-once fan-out: four configurations in one lockstep pass
    // (slow-mem shares the baseline's stashes, the other two rebuild
    // their own geometries), plus a point whose warming is stretched
    // to 2^40 instructions so it runs to the end of the program.
    {
        CoreConfig smallL2 = lptest::baseConfig();
        smallL2.name = "l2-512k";
        smallL2.mem.l2 = {512 * 1024, 4, 128};
        CoreConfig smallL1 = lptest::baseConfig();
        smallL1.name = "l1d-16k";
        smallL1.mem.l1d = {16 * 1024, 2, 64};
        const std::vector<CoreConfig> cfgs = {
            lptest::baseConfig(), lptest::slowMemConfig(), smallL2,
            smallL1};
        ReplayContext ctx(t.prog, cfgs);
        const std::uint64_t all = replayMaskAll(cfgs.size());
        LivePointDecodeScratch scratch;
        LivePoint point;
        LivePoint longPoint = t.lib.get(0);
        longPoint.warmLen = InstCount(1) << 40;
        WindowResult res[4];
        auto pass = [&]() {
            for (std::size_t i = 0; i < n; ++i) {
                t.lib.decodeInto(i, scratch, point);
                ctx.loadPoint(point);
                ctx.replayMask(all, res);
                ctx.replay(1);
            }
            ctx.loadPoint(longPoint);
            ctx.replayMask(all, res);
            for (const WindowResult &r : res)
                CHECK_EQ(r.insts, 0u); // warming reached the end
            ctx.replay(2);
        };
        pass();
        const std::uint64_t before =
            gAllocs.load(std::memory_order_relaxed);
        pass();
        const std::uint64_t after =
            gAllocs.load(std::memory_order_relaxed);
        CHECK_EQ(after - before, 0u);
    }
}

} // namespace

int
main()
{
    cacheEquivalence();
    memoryImageFlatPath();
    zeroAllocSteadyState();
    return TEST_MAIN_RESULT();
}

/**
 * @file
 * Set-associative cache/TLB model with true-LRU replacement and a
 * global access clock. The access clock is what makes warm state
 * checkpointable: a set's contents under LRU are exactly the most
 * recently touched distinct lines mapping to it, so storing each
 * line's last-access time suffices to reconstruct any smaller
 * geometry exactly (see cache/warmstate.hh).
 *
 * Storage is structure-of-arrays: one flat tag/stamp/dirty plane each,
 * indexed set * assoc + way. A stamp of zero marks an empty way (the
 * clock starts at one), so the hit scan and the LRU victim scan are
 * single branchless passes over contiguous memory — the replay warm
 * loops touch one or two cache lines per access instead of chasing a
 * vector-of-vectors.
 */

#ifndef LP_CACHE_CACHE_HH
#define LP_CACHE_CACHE_HH

#include <string>
#include <vector>

#include "util/types.hh"

namespace lp
{

/** Geometry of a cache, TLB (lineBytes = page size), or tag array. */
struct CacheGeometry
{
    std::uint64_t sizeBytes = 0;
    unsigned assoc = 1;
    std::uint64_t lineBytes = 64;

    std::uint64_t numLines() const
    {
        return lineBytes ? sizeBytes / lineBytes : 0;
    }

    std::uint64_t numSets() const
    {
        const std::uint64_t lines = numLines();
        return assoc ? (lines ? lines / assoc : 0) : 0;
    }

    bool operator==(const CacheGeometry &o) const
    {
        return sizeBytes == o.sizeBytes && assoc == o.assoc &&
               lineBytes == o.lineBytes;
    }

    bool operator!=(const CacheGeometry &o) const { return !(*this == o); }
};

/** Outcome of one cache access. */
struct AccessResult
{
    bool hit = false;
    bool writeback = false; //!< a dirty line was evicted
};

/** One resident line (exposed for warm-state snapshotting). */
struct CacheLine
{
    Addr tag = 0;               //!< line base address
    std::uint64_t lastAccess = 0; //!< global access-clock stamp
    bool dirty = false;
};

class CacheModel
{
  public:
    CacheModel(const CacheGeometry &geom, std::string name);

    /** Access the line containing @p a; allocates on miss. */
    AccessResult access(Addr a, bool write);

    /** True if the line containing @p a is resident (no LRU update). */
    bool probe(Addr a) const;

    const CacheGeometry &geometry() const { return geom_; }
    const std::string &name() const { return name_; }

    /** Drop all contents and reset the access clock. */
    void reset();

    /**
     * Install @p n distinct lines, oldest first, each given as
     * (line number << 1) | dirty in this cache's line size: exactly
     * the state reset() followed by one access() per line reaches,
     * way positions and stamps included. Such a replay never hits,
     * so every set fills its ways in index order and then evicts
     * them round-robin; the install writes each line straight into
     * that way instead of scanning for it. Lines must be distinct —
     * a duplicate lands in a second way instead of hitting, which is
     * memory-safe but not what a replay would reach.
     */
    void installLines(const std::uint64_t *packed, std::size_t n);

    /** Resident lines of one set, unordered. */
    std::vector<CacheLine> linesOfSet(std::uint64_t set) const;

    std::uint64_t numSets() const { return nsets_; }

    /** Total resident lines. */
    std::uint64_t residentLines() const;

    /** Accesses performed since construction/reset. */
    std::uint64_t accessClock() const { return clock_; }

    /**
     * Adopt the exact state of @p o (same geometry required). Reuses
     * this model's storage — allocation-free once warmed — so a
     * reconstructed warm state can be stamped onto sibling units that
     * share the geometry without replaying the record again.
     */
    void copyStateFrom(const CacheModel &o);

  private:
    std::uint64_t setOf(Addr a) const;
    Addr tagOf(Addr a) const;

    CacheGeometry geom_;
    std::string name_;
    std::uint64_t nsets_ = 1;
    unsigned assoc_ = 1;
    /**
     * Power-of-two line size and set count (every Table-1 geometry):
     * setOf/tagOf shift and mask instead of dividing. Other
     * geometries keep the divisions.
     */
    bool pow2_ = false;
    unsigned lineShift_ = 0;
    std::uint64_t setMask_ = 0;
    // SoA planes, indexed set * assoc_ + way. stamps_[i] == 0 means
    // the way is empty; tags_/dirty_ of empty ways are meaningless.
    std::vector<Addr> tags_;
    std::vector<std::uint64_t> stamps_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t clock_ = 0;
    /** installLines(): next way to fill per set (storage reused). */
    std::vector<unsigned> nextWay_;
};

} // namespace lp

#endif // LP_CACHE_CACHE_HH

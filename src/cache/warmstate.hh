/**
 * @file
 * Checkpointable cache warm state, the heart of a live-point.
 *
 * CacheSetRecord (CSR): a snapshot of a cache warmed at the library's
 * *maximum* geometry — each resident line's number and dirty bit, in
 * recency order. Replaying the lines oldest first into a target cache
 * reproduces, exactly, the LRU state the target would have reached
 * through direct warming, for any geometry whose sets and
 * associativity divide the maximum's (power-of-two geometries no
 * larger than the maximum, same line size). reconstruct() does not
 * replay, though: the lines are distinct, so the replay never hits
 * and every target set behaves as a FIFO, and CacheModel::
 * installLines() writes each line straight into its final way. The
 * record keeps each line in its wire form, (line number << 1) |
 * dirty, so decoding is one bulk integer read. Storage is bounded by
 * the maximum tag array, independent of workload footprint.
 *
 * MemoryTimestampRecord (MTR, Barr et al.): last-access timestamps of
 * every touched memory line. Reconstructs arbitrary geometries, but
 * storage grows with the workload's footprint — the ablation bench
 * quantifies the trade-off that motivates the CSR.
 */

#ifndef LP_CACHE_WARMSTATE_HH
#define LP_CACHE_WARMSTATE_HH

#include <map>

#include "cache/cache.hh"
#include "codec/der.hh"

namespace lp
{

class CacheSetRecord
{
  public:
    CacheSetRecord() = default;

    /** Snapshot the current contents of @p cache. */
    explicit CacheSetRecord(const CacheModel &cache);

    /** Geometry the record was captured at (the library maximum). */
    const CacheGeometry &maxGeometry() const { return geom_; }

    /** Number of recorded lines. */
    std::uint64_t entryCount() const { return lines_.size(); }

    /**
     * Install the recorded warm state into @p target (which is reset
     * first): exactly the state a replay of the lines in last-access
     * order reaches, so the target's LRU state matches direct warming
     * whenever the target geometry is contained in the maximum.
     * Throws std::invalid_argument when the target's line size
     * differs from the record's — line numbers would not map onto
     * its lines.
     */
    void reconstruct(CacheModel &target) const;

    Blob serialize() const;
    void serialize(DerWriter &w) const;
    static CacheSetRecord deserialize(DerReader &r);

    /**
     * Deserialize into @p out, reusing its line storage — the decode
     * ring recycles one record per slot so replay allocates nothing.
     * A line count the remaining bytes cannot hold is rejected before
     * anything is sized from it.
     */
    static void deserializeInto(DerReader &r, CacheSetRecord &out);

  private:
    CacheGeometry geom_;
    /** (line number << 1) | dirty per line, oldest access first. */
    std::vector<std::uint64_t> lines_;
};

class MemoryTimestampRecord
{
  public:
    explicit MemoryTimestampRecord(std::uint64_t lineBytes);

    /** Record an access to the line containing @p a at @p time. */
    void record(Addr a, bool write, std::uint64_t time);

    std::uint64_t lineBytes() const { return lineBytes_; }
    std::uint64_t entryCount() const { return lines_.size(); }

    /** Install warm state into @p target (reset first). */
    void reconstruct(CacheModel &target) const;

    Blob serialize() const;

  private:
    struct Stamp
    {
        std::uint64_t time = 0;
        bool dirty = false;
    };

    std::uint64_t lineBytes_;
    std::map<Addr, Stamp> lines_;
};

} // namespace lp

#endif // LP_CACHE_WARMSTATE_HH

/**
 * @file
 * Flat simulated memory: a sparse page-granular store the functional
 * simulator executes against, and the MemoryImage — the restricted
 * live-state payload of a live-point (the blocks a detailed window
 * touches, captured as of window start).
 */

#ifndef LP_MEM_MEMPORT_HH
#define LP_MEM_MEMPORT_HH

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "codec/der.hh"
#include "util/types.hh"

namespace lp
{

/** Sparse flat memory, zero-filled on first touch; 4KB pages. */
class SparseMemory
{
  public:
    static constexpr std::uint64_t pageBytes = 4096;

    std::uint64_t read64(Addr a);
    void write64(Addr a, std::uint64_t v);

    void readBytes(Addr a, std::uint8_t *out, std::size_t n);
    void writeBytes(Addr a, const std::uint8_t *data, std::size_t n);

    /** Bytes of memory touched so far (page granularity). */
    std::uint64_t footprintBytes() const;

    /**
     * Deep copy of the current contents. The parallel library builder
     * snapshots the architectural memory at shard boundaries with
     * this.
     */
    SparseMemory clone() const;

  private:
    struct Page
    {
        std::uint8_t data[pageBytes] = {};
    };

    Page &page(Addr a);

    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;
};

/**
 * The memory slice of a live-point: fixed-size blocks captured at
 * first touch (i.e. holding their contents as of capture start).
 * Ordered storage keeps serialization canonical.
 */
class MemoryImage
{
  public:
    explicit MemoryImage(unsigned blockBytes = 64);

    unsigned blockBytes() const { return blockBytes_; }

    /**
     * Record the block containing @p a if it is not captured yet,
     * copying its current contents from @p mem. Called by the
     * functional simulator before applying each access.
     */
    void captureBeforeAccess(SparseMemory &mem, Addr a);

    /** True when the block containing @p a is part of the image. */
    bool contains(Addr a) const;

    /** Total bytes of captured block payload. */
    std::uint64_t payloadBytes() const;

    /** Number of captured blocks. */
    std::size_t blockCount() const
    {
        return flat_ ? flatAddrs_.size() : blocks_.size();
    }

    /** Visit blocks in address order. */
    void
    forEach(const std::function<void(Addr, const std::vector<std::uint8_t> &)>
                &fn) const;

    void serialize(DerWriter &w) const;

    /** Deserialize into @p out, reusing what storage it can. */
    static void deserializeInto(DerReader &r, MemoryImage &out);

  private:
    unsigned blockBytes_;
    /**
     * Capture-time storage: an ordered map so incremental first-touch
     * capture stays cheap and serialization is canonical.
     */
    std::map<Addr, std::vector<std::uint8_t>> blocks_;
    /**
     * Replay-time storage, used after deserializeInto(): a sorted
     * flat address array plus one contiguous payload buffer. Loading
     * the next point reuses both buffers — zero allocations per point
     * in steady state.
     */
    bool flat_ = false;
    std::vector<Addr> flatAddrs_;
    std::vector<std::uint8_t> flatPayload_;
};

} // namespace lp

#endif // LP_MEM_MEMPORT_HH

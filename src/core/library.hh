/**
 * @file
 * Live-points and their library. A live-point is the complete state
 * needed to simulate one sampled window in isolation: architectural
 * registers, the window's touched memory blocks (restricted
 * live-state), warm cache/TLB set records at the library's maximum
 * geometry, and one serialized branch-predictor image per covered
 * configuration. The library stores each point individually
 * compressed, supports shuffling (so any prefix is an unbiased random
 * sub-sample), and round-trips through a single on-disk file.
 *
 * On-disk container (LPLIB3): a fixed header, a DER meta blob
 * (benchmark + design), a per-point index table (offset / compressed
 * size / raw size / window index), then the raw compressed records
 * back-to-back. Written streaming — no whole-library staging buffer —
 * and loaded as a read-only mapping (io/mapped_file.hh), with records
 * exposed as zero-copy spans into it. A library's records live in
 * exactly one buffer: the append arena of a library built in memory,
 * or the mapping of a loaded one (which takes no appends).
 *
 * Cross-point compression (LPLIB4): successive live-points share most
 * of their warm state, so a record may be *delta* encoded — its
 * serialized state compressed against its predecessor's raw bytes.
 * Every record is either plain LZSS or such a delta. LPLIB4 widens
 * each table row with flags, the file position of the delta base, and
 * a checksum of the raw bytes; decode verifies the checksum of every
 * delta record, so a broken chain fails loudly instead of yielding a
 * silently wrong point. The container follows from the records: a
 * library with any delta record saves as LPLIB4, any other as LPLIB3
 * (bit-identical to earlier releases), and both load the same way.
 */

#ifndef LP_CORE_LIBRARY_HH
#define LP_CORE_LIBRARY_HH

#include <map>
#include <memory>
#include <string>

#include "cache/warmstate.hh"
#include "codec/der.hh"
#include "core/sample.hh"
#include "io/mapped_file.hh"
#include "mem/memport.hh"
#include "util/rng.hh"
#include "workload/generator.hh"

namespace lp
{

/** Uncompressed byte accounting of one live-point (Figure 7). */
struct LivePointBreakdown
{
    std::uint64_t regsAndTlb = 0;
    std::uint64_t memData = 0;
    std::uint64_t bpred = 0;
    std::uint64_t l1iTags = 0;
    std::uint64_t l1dTags = 0;
    std::uint64_t l2Tags = 0;
    std::uint64_t total = 0;
};

struct LivePoint
{
    std::uint64_t index = 0;    //!< window number within the design
    InstCount windowStart = 0;  //!< first instruction of the window
    InstCount warmLen = 0;
    InstCount measureLen = 0;
    ArchRegs regs;
    MemoryImage memImage;
    CacheSetRecord l1i;
    CacheSetRecord l1d;
    CacheSetRecord l2;
    CacheSetRecord itlb;
    CacheSetRecord dtlb;
    std::map<std::string, Blob> bpredImages; //!< key -> predictor image

    /** Image for a predictor key, or nullptr if not covered. */
    const Blob *findBpredImage(const std::string &key) const;

    /** Per-section uncompressed sizes. */
    LivePointBreakdown breakdown() const;

    Blob serialize() const;

    /**
     * Deserialize into @p out, reusing its storage where possible
     * (cache-record entry arrays, predictor-image buffers keyed the
     * same as the previous point). The decode-pipeline hot path.
     */
    static void deserializeInto(const Blob &data, LivePoint &out);
};

/**
 * Reusable per-consumer decode state for LivePointLibrary::decodeInto:
 * the decompressed payload, which doubles as the chain cache a delta
 * library needs — after a decode, @c payload holds the raw bytes of
 * the record just decoded (@c cachedPos), so replaying records in
 * stored order rebuilds each delta from its already-materialized base
 * instead of re-walking the whole chain. Plain libraries use only
 * @c payload; the work buffers stay empty.
 *
 * A scratch may also keep verified raw records from earlier decodes
 * (@c keepChains > 0, what each replay decode producer uses): at most
 * one per delta chain, keyed by the chain's keyframe, and at most
 * keepChains in all, the least recently used chain going first. A
 * walk stops at a kept raw that is an ancestor of the requested
 * record, so a shuffled visit resumes partway down its chain. After
 * each decode the scratch keeps the one raw of that chain — among the
 * raws the decode materialized and the one already kept — that
 * minimizes the links the chain's not-yet-requested records would
 * need. A scratch caches by file position, so it serves one library:
 * call resetCache() before pointing it at another.
 */
struct LivePointDecodeScratch
{
    Blob payload; //!< decoded raw bytes of the last requested record
    Blob prevRaw; //!< chain-walk work buffer
    Blob tmp;     //!< chain-walk work buffer

    /**
     * File positions the last call decoded, the requested record
     * first (empty when it was already cached). Reused so delta
     * decode allocates nothing.
     */
    std::vector<std::uint64_t> chain;

    /** File position whose raw bytes payload holds (~0: none). */
    std::uint64_t cachedPos = ~std::uint64_t(0);

    /** Chains whose raws may be kept; 0 keeps only payload. */
    std::size_t keepChains = 0;

    /** One kept raw record (pos ~0: the entry is free). */
    struct KeptRaw
    {
        std::uint64_t keyframe = ~std::uint64_t(0);
        std::uint64_t pos = ~std::uint64_t(0);
        std::uint64_t lastUse = 0;
        Blob raw;
    };
    std::vector<KeptRaw> kept;

    /**
     * Per file position: records in its delta subtree (itself
     * included) not yet requested through this scratch. Sized on
     * first use when keepChains > 0.
     */
    std::vector<std::uint32_t> pending;
    std::vector<std::uint8_t> requested; //!< per file position
    std::uint64_t useClock = 0;

    void resetCache()
    {
        cachedPos = ~std::uint64_t(0);
        kept.clear();
        pending.clear();
        requested.clear();
    }
};

class LivePointLibrary
{
  public:
    /**
     * Record encoding flag (table metadata, kept per record). Bit 0
     * marked the retired shared-dictionary encoding; loaders reject
     * it.
     */
    static constexpr std::uint8_t kFlagDelta = 2; //!< delta vs base record

    LivePointLibrary() = default;
    LivePointLibrary(std::string benchmark, const SampleDesign &design);

    const std::string &benchmark() const { return benchmark_; }
    const SampleDesign &design() const { return design_; }
    std::size_t size() const { return refs_.size(); }

    /**
     * Decompress and decode the @p i-th stored point. Convenience for
     * one-off inspection; hot paths (replay producers, benches) use
     * decodeInto(), which allocates nothing in steady state.
     */
    LivePoint get(std::size_t i) const;

    /**
     * Decompress and decode the @p i-th stored point into
     * caller-owned buffers, reusing their storage. @p scratch holds
     * the decompressed bytes between calls; thread-safe for
     * concurrent calls with distinct buffers. For a delta record the
     * chain is rebuilt from its nearest keyframe (or from the scratch
     * cache when the caller last decoded the base — the stored-order
     * replay pattern), and delta records are verified against their
     * stored raw checksum before deserializing.
     */
    void decodeInto(std::size_t i, LivePointDecodeScratch &scratch,
                    LivePoint &out) const;

    /**
     * Append an already-compressed record (the builder's encoder
     * threads compress off the simulating thread and hand the
     * finished bytes over). @p rawSize is the uncompressed size,
     * @p windowIndex the point's window number, @p flags 0 or
     * kFlagDelta (a delta record's base is the previously appended
     * record — builders emit chains in append order), and @p rawHash
     * the checksum of the uncompressed payload (0: absent; decode then
     * skips verification). Throws std::logic_error on a loaded
     * library: its records live in the read-only mapping.
     */
    void addEncoded(const Blob &compressed, std::uint64_t rawSize,
                    std::uint64_t windowIndex, std::uint8_t flags,
                    std::uint64_t rawHash);

    /** Encoding flags of the @p i-th stored point. */
    std::uint8_t recordFlags(std::size_t i) const
    {
        return refs_[pos(i)].flags;
    }

    /** Stored points that are delta-encoded. */
    std::size_t deltaCount() const;

    /**
     * Delta links between the @p i-th stored point and its chain's
     * keyframe (0 for a plain record): a cold decode of the point
     * materializes depth + 1 records.
     */
    std::size_t chainDepth(std::size_t i) const
    {
        return refs_[pos(i)].depth;
    }

    /**
     * File position of the @p i-th stored point's chain keyframe (its
     * own file position for a plain record): points with the same
     * keyframe share a delta chain.
     */
    std::uint64_t chainKeyframe(std::size_t i) const
    {
        return refs_[pos(i)].keyframe;
    }

    /**
     * Pre-size the arena for @p count records totalling
     * @p recordBytes compressed bytes, so a bulk assembly never pays
     * vector doubling (which would transiently hold ~2x the library).
     * Throws std::logic_error on a loaded library, like addEncoded().
     */
    void reserve(std::uint64_t recordBytes, std::size_t count);

    /**
     * Borrowed view of the @p i-th compressed record — points into
     * the library's backing buffer. Valid until the next
     * addEncoded() (appends may reallocate the arena) or
     * the library's destruction, whichever comes first.
     */
    ByteSpan record(std::size_t i) const;

    /** Stored (compressed) bytes of the @p i-th point. */
    std::size_t compressedSize(std::size_t i) const
    {
        return refs_[pos(i)].size;
    }

    /** Uncompressed bytes of the @p i-th point (index metadata). */
    std::uint64_t rawSize(std::size_t i) const
    {
        return refs_[pos(i)].rawSize;
    }

    /**
     * Window index of the @p i-th stored point, without decompressing
     * it (kept as library metadata for stratum assignment).
     */
    std::uint64_t windowIndex(std::size_t i) const
    {
        return refs_[pos(i)].index;
    }

    /** Bytes of the mapped container file (0 for in-memory builds). */
    std::uint64_t backingBytes() const
    {
        return file_ ? file_->size() : 0;
    }

    std::uint64_t totalCompressedBytes() const;
    std::uint64_t totalUncompressedBytes() const;

    /**
     * 64-bit digest of the library's content in stored order:
     * benchmark, design, and every record's window index and bytes.
     * Two libraries with equal hashes replay identically, so the
     * campaign manifest keys resumable fold state by this value
     * (shuffles change the stored order and therefore the hash).
     */
    std::uint64_t contentHash() const;

    /**
     * Permute the stored order (Fisher-Yates with @p rng). Only the
     * view order moves (an indirection over the record references);
     * the compressed bytes — and the delta chains linking them — stay
     * put, so a shuffled delta library decodes exactly as before.
     */
    void shuffle(Rng &rng);

    /**
     * Write the container: LPLIB4 when any record is a delta, LPLIB3
     * (bit-identical to previous releases) otherwise. Records stream
     * to the file — peak memory stays at the library's resident size,
     * not double it.
     */
    void save(const std::string &path) const;

    /**
     * Load an LPLIB3 or LPLIB4 container (dispatched on the file
     * magic; anything else throws naming the file) by mapping it
     * read-only. A failed map throws the IoError naming the file.
     */
    static LivePointLibrary load(const std::string &path);

  private:
    /** Where one compressed record lives, in file (append) order. */
    struct RecordRef
    {
        std::uint64_t offset = 0; //!< into file_ or arena_
        std::uint64_t size = 0;
        std::uint64_t rawSize = 0; //!< uncompressed size
        std::uint64_t index = 0;   //!< window index
        std::uint64_t basePos = ~std::uint64_t(0); //!< delta base (file pos)
        std::uint64_t rawHash = 0;   //!< checksum of raw bytes (0: absent)
        std::uint64_t keyframe = 0;   //!< file pos of the chain's keyframe
        std::uint32_t depth = 0;      //!< delta links above the keyframe
        std::uint8_t flags = 0;      //!< 0 or kFlagDelta
    };

    /** File position of the @p i-th stored (view-order) record. */
    std::size_t pos(std::size_t i) const
    {
        return order_.empty() ? i : order_[i];
    }

    /** Stored (view-order) position of file position @p p. */
    std::vector<std::uint32_t> inverseOrder() const;

    ByteSpan recordAt(std::size_t filePos) const;
    void materializeRaw(std::size_t filePos,
                        LivePointDecodeScratch &scratch) const;
    void noteRequest(std::size_t filePos,
                     LivePointDecodeScratch &scratch) const;
    void decodeOne(std::size_t filePos, Blob &out, ByteSpan prev) const;
    void validateChains();

    std::string benchmark_;
    SampleDesign design_;
    /** Mapping of the loaded container file (shared on copy). */
    std::shared_ptr<const MappedFile> file_;
    Blob arena_; //!< appended compressed records, back-to-back
    std::vector<RecordRef> refs_; //!< file order, never permuted
    /** Stored-order view: order_[i] = file position (empty: identity). */
    std::vector<std::uint32_t> order_;
    bool anyDelta_ = false; //!< any record carries kFlagDelta

    friend bool identicalRecords(const LivePointLibrary &a,
                                 const LivePointLibrary &b);
};

/** Deterministic 64-bit checksum of a raw payload (word-at-a-time). */
std::uint64_t livePointRawHash(const std::uint8_t *data, std::size_t n);

/**
 * True when two libraries store byte-identical records in the same
 * order with the same window indices — the bit-identity contract the
 * pipelined S=1 build guarantees against the sequential reference
 * (checked by both the test suite and the CI build bench).
 */
bool identicalRecords(const LivePointLibrary &a,
                      const LivePointLibrary &b);

} // namespace lp

#endif // LP_CORE_LIBRARY_HH

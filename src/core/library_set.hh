/**
 * @file
 * The sharded fleet store: a directory of per-workload LPLIB3 shards
 * under one small DER index. A campaign grid over many workloads maps
 * each row to a shard and opens it lazily — inactive workloads cost
 * nothing (not even a map), and a finished workload's shard can be
 * unloaded so a fleet larger than RAM streams through a run one
 * shard at a time.
 *
 * On-disk layout:
 *
 *   <dir>/lpset.idx         DER index: magic, version, per shard
 *                           {name, file, points, contentHash, bytes}
 *   <dir>/<shard>.lpl       one LPLIB3 container per workload
 *
 * The index carries each shard's point count and content hash, so
 * metadata consumers (campaign manifests, schedulers) never touch the
 * shard files themselves. The writer appends shards streaming — each
 * shard is written and released before the next is built — and
 * rewrites the index atomically (write-temp → fsync → rename →
 * dir-fsync, with a checksummed integrity footer) after every append,
 * so a killed fleet build leaves a valid set of the shards completed
 * so far.
 *
 * Durability: open() is strict — a torn or corrupt index throws.
 * openRecover() never gives up on a torn index: it falls back to
 * rescanning the shard files themselves (names, point counts, and
 * content hashes are recomputed from the containers), quarantines
 * any shard that fails to load or mismatches its index entry, and
 * reports what happened through recovery(). A quarantined shard
 * stays listed (indices stay stable for campaign grids) but shard()
 * on it throws with the quarantine reason — the campaign engine
 * turns that into per-cell failed-with-reason results instead of
 * aborting the run. Orphaned `*.tmp` staging files from a crashed
 * writer are ignored by scans and swept by the writer.
 */

#ifndef LP_CORE_LIBRARY_SET_HH
#define LP_CORE_LIBRARY_SET_HH

#include <mutex>
#include <string>
#include <vector>

#include "core/library.hh"

namespace lp
{

class LibrarySet
{
  public:
    /** The index file's name inside the set directory. */
    static const char *indexFileName();

    /** How an open (or recovery) of the set went. */
    struct Recovery
    {
        /** Anything below par: rebuilt index or quarantined shards. */
        bool degraded = false;

        /** The index was missing/torn; entries came from a rescan. */
        bool indexRebuilt = false;

        /** Human-readable notes (one per anomaly found). */
        std::vector<std::string> notes;
    };

    LibrarySet() = default;

    // Movable (the mutex guards only the lazy shard cache and is
    // recreated fresh); not copyable — shards cache into one owner.
    LibrarySet(LibrarySet &&other) noexcept;
    LibrarySet &operator=(LibrarySet &&other) noexcept;
    LibrarySet(const LibrarySet &) = delete;
    LibrarySet &operator=(const LibrarySet &) = delete;

    /**
     * Open the set at @p dir by reading only its index; no shard is
     * touched until first accessed. Throws when the index is missing,
     * malformed, or has a torn/invalid integrity footer.
     */
    static LibrarySet open(const std::string &dir);

    /**
     * Open the set at @p dir, recovering instead of throwing on a
     * damaged index: a missing or torn index is rebuilt by rescanning
     * the shard containers (shard names come from each container's
     * benchmark metadata), and a shard that is missing, unloadable,
     * or inconsistent with its index entry is quarantined — it stays
     * listed (indices stay stable) but shard() on it throws the
     * quarantine reason. Inspect recovery() for what happened. Only
     * throws when the directory itself cannot be read.
     */
    static LibrarySet openRecover(const std::string &dir);

    /** What open/openRecover found (empty for a healthy strict open). */
    const Recovery &recovery() const { return recovery_; }

    /** True when shard @p i is quarantined (shard() would throw). */
    bool quarantined(std::size_t i) const
    {
        return !entries_[i].quarantine.empty();
    }

    /** Why shard @p i is quarantined ("" when healthy). */
    const std::string &quarantineReason(std::size_t i) const
    {
        return entries_[i].quarantine;
    }

    std::size_t size() const { return entries_.size(); }
    const std::string &dir() const { return dir_; }

    const std::string &name(std::size_t i) const
    {
        return entries_[i].name;
    }

    /** Index of the shard named @p name, or npos. */
    std::size_t find(const std::string &name) const;
    static constexpr std::size_t npos = static_cast<std::size_t>(-1);

    /** Live-point count of shard @p i, from the index alone. */
    std::uint64_t points(std::size_t i) const
    {
        return entries_[i].points;
    }

    /**
     * Content hash of shard @p i as recorded at write time — equal to
     * LivePointLibrary::contentHash() of the shard, without opening
     * it. Campaign manifests key resumable fold state by this value.
     */
    std::uint64_t contentHash(std::size_t i) const
    {
        return entries_[i].hash;
    }

    /** Container file bytes of shard @p i, from the index. */
    std::uint64_t fileBytes(std::size_t i) const
    {
        return entries_[i].bytes;
    }

    /** Full path of shard @p i's container file. */
    std::string shardPath(std::size_t i) const;

    /**
     * The shard's library, mapped on first access and cached. Validates the container against the index
     * (point count and content hash are load-bearing for manifest
     * resume). Thread-safe; the reference stays valid until unload().
     */
    const LivePointLibrary &shard(std::size_t i) const;

    /** True when shard @p i is currently open. */
    bool isLoaded(std::size_t i) const;

    /** Shards currently open. */
    std::size_t loadedCount() const;

    /**
     * Drop shard @p i's library and its mapping. References from
     * a previous shard() call become invalid; a later shard() call
     * reopens it.
     */
    void unload(std::size_t i) const;

    /** Container bytes of the open shards' mappings. */
    std::uint64_t mappedBytes() const;

  private:
    struct Entry
    {
        std::string name; //!< workload name (unique in the set)
        std::string file; //!< container file name inside dir_
        std::uint64_t points = 0;
        std::uint64_t hash = 0;
        std::uint64_t bytes = 0; //!< container file size
        std::string quarantine;  //!< non-empty: why shard() throws
    };

    friend class LibrarySetWriter;

    static LibrarySet openImpl(const std::string &dir, bool recover);
    void rescanShards(const std::string &reason);
    void validateShardFiles();

    std::string dir_;
    std::vector<Entry> entries_;
    Recovery recovery_;
    mutable std::mutex m_; //!< guards loaded_
    mutable std::vector<std::unique_ptr<LivePointLibrary>> loaded_;
};

/**
 * Streaming writer for a LibrarySet: each addShard() writes one
 * container and atomically rewrites the index, so the set on disk is
 * valid after every append and the caller can release the library
 * immediately — a fleet build never holds more than the shard under
 * construction resident. Opening an existing set directory appends
 * to it.
 */
class LibrarySetWriter
{
  public:
    /**
     * Create (or append to) the set at @p dir. The directory is
     * created if missing; an existing index is loaded so new shards
     * extend the set. Opening recovers: orphaned `*.tmp` staging
     * files from a crashed writer are removed, a torn index is
     * rebuilt from the shard files, and quarantined (corrupt) shards
     * are dropped from the index so the next writeIndex() repairs
     * the set on disk.
     */
    explicit LibrarySetWriter(const std::string &dir);

    /**
     * Write @p lib as the shard for workload @p name (unique per
     * set; reusing a name throws). Streams the container to disk via
     * LivePointLibrary::save and records {points, contentHash,
     * bytes} in the index.
     */
    void addShard(const std::string &name, const LivePointLibrary &lib);

    std::size_t shards() const { return entries_.size(); }

  private:
    void writeIndex() const;

    std::string dir_;
    std::vector<LibrarySet::Entry> entries_;
};

} // namespace lp

#endif // LP_CORE_LIBRARY_SET_HH

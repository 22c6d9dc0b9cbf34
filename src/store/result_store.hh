/**
 * @file
 * The fleet result store — a compact binary database of finished
 * campaign cells, so a re-submitted or widened design-space grid pays
 * O(lookup) instead of O(replay). Every converged (or
 * ran-to-completion) cell the campaign engine produces is
 * content-addressed by its full replay identity:
 *
 *   (library contentHash, config digest, shuffle seed, block size,
 *    wrong-path mode, stopping mode, confidence-spec bits)
 *
 * and the engine's determinism guarantee makes that key sufficient:
 * two runs with the same key fold the same observations in the same
 * order and stop at the same point, so the stored RunningStat::State
 * and CPI bits ARE the result a fresh replay would produce, bit for
 * bit. A matched-pair delta's identity is its base cell's key plus
 * the test config's digest.
 *
 * On-disk image (one file, replaced whole through writeFileAtomic):
 * the DER framing of the campaign manifest and the library-set index,
 * sealed with the 16-byte checksum footer (appendChecksumFooter):
 *
 *   SEQUENCE {
 *     magic (the integer 0x4c5052455332, "LPRES2"), version 1
 *     SEQUENCE of cell records, each a SEQUENCE {
 *       key: libHash, configDigest, shuffleSeed, blockSize, flags
 *            (bit 0 stop at confidence, bit 1 approx wrong path,
 *            bit 2 converged), levelBits, relErrBits
 *       libPoints, processed, unavailableLoads, cpiBits
 *       fold state (putFoldState) }
 *     SEQUENCE of pair records, each a SEQUENCE {
 *       base key (flags bits 0-1 only), testDigest
 *       delta fold state (putFoldState) } }
 *
 * Every number is a DER unsigned integer and every double its
 * IEEE-754 bits, so records round-trip bit for bit.
 *
 * Loading is all or nothing: a bad footer (any truncation or byte
 * flip), bad magic or version, unknown flag bits, a value left over
 * anywhere (inside a record, inside a fold state, after the lists)
 * or a key that repeats (judged on the full identity; save() writes
 * each key once) throws IoError naming the file, and nothing loads.
 * In memory, cells and pairs are indexed by their full identity, so
 * two keys whose 64-bit hashes collide are still two entries.
 *
 * The in-memory store is internally synchronized: concurrent service
 * workers may publish() while the daemon answers queries.
 */

#ifndef LP_STORE_RESULT_STORE_HH
#define LP_STORE_RESULT_STORE_HH

#include <cstring>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sample.hh"
#include "stats/running_stat.hh"
#include "util/rng.hh"
#include "util/types.hh"

namespace lp
{

class DerReader;
class DerWriter;

/** IEEE-754 bit pattern of @p v (the exact-identity currency). */
inline std::uint64_t
doubleBits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof(b));
    return b;
}

/** Inverse of doubleBits(). */
inline double
bitsFromDouble(std::uint64_t b)
{
    double v;
    std::memcpy(&v, &b, sizeof(v));
    return v;
}

/**
 * The full replay identity of one campaign cell. Two cells with equal
 * keys produce bit-identical results (the campaign engine's
 * determinism contract), which is what makes memoization sound.
 *
 * When stopAtConfidence is false the confidence spec cannot affect
 * the fold trajectory (the run always consumes the whole library), so
 * keys are canonicalized with the spec bits zeroed — a full-library
 * result is reusable under any spec.
 */
struct ResultKey
{
    std::uint64_t libHash = 0;      //!< LivePointLibrary::contentHash()
    std::uint64_t configDigest = 0; //!< CoreConfig digest
    std::uint64_t shuffleSeed = 0;
    std::uint64_t blockSize = 0;
    bool stopAtConfidence = false;
    bool approxWrongPath = false;
    std::uint64_t levelBits = 0;  //!< doubleBits(spec.level)
    std::uint64_t relErrBits = 0; //!< doubleBits(spec.relativeError)

    /** Canonical key for a cell replayed under @p spec. */
    static ResultKey make(std::uint64_t libHash,
                          std::uint64_t configDigest,
                          std::uint64_t shuffleSeed,
                          std::uint64_t blockSize,
                          bool stopAtConfidence, bool approxWrongPath,
                          const ConfidenceSpec &spec);

    /** FNV-1a over the key's words (its in-memory index hash). */
    std::uint64_t hash() const;

    bool operator==(const ResultKey &o) const
    {
        return libHash == o.libHash &&
               configDigest == o.configDigest &&
               shuffleSeed == o.shuffleSeed &&
               blockSize == o.blockSize &&
               stopAtConfidence == o.stopAtConfidence &&
               approxWrongPath == o.approxWrongPath &&
               levelBits == o.levelBits && relErrBits == o.relErrBits;
    }
};

/** Hasher for indexing by ResultKey. */
struct ResultKeyHash
{
    std::size_t operator()(const ResultKey &k) const
    {
        return static_cast<std::size_t>(k.hash());
    }
};

/** One memoized cell: its key plus everything needed to restore it. */
struct CellRecord
{
    ResultKey key;
    std::uint64_t libPoints = 0; //!< library size when recorded
    std::uint64_t processed = 0; //!< points folded at the stop point
    std::uint64_t unavailableLoads = 0;
    bool converged = false; //!< retired by its confidence target
    std::uint64_t cpiBits = 0; //!< doubleBits of the cell's CPI
    RunningStat::State stat;   //!< the complete fold state
};

/**
 * The identity of a matched pair: the base cell's full key (its
 * configDigest is the base config) plus the test config's digest.
 */
struct PairKey
{
    ResultKey base;
    std::uint64_t testDigest = 0;

    bool operator==(const PairKey &o) const
    {
        return base == o.base && testDigest == o.testDigest;
    }
};

struct PairKeyHash
{
    std::size_t operator()(const PairKey &k) const
    {
        return static_cast<std::size_t>(
            hashCombine(k.base.hash(), k.testDigest));
    }
};

/** One memoized matched-pair delta between two configs. */
struct PairRecord
{
    PairKey key;
    RunningStat::State delta;
};

/**
 * The fold-state codec both sealed state files share, the result
 * store and the campaign manifest: a DER sequence {n, mean, m2, min,
 * max} with each double as its IEEE-754 bits, so a state round-trips
 * bit for bit.
 */
void putFoldState(DerWriter &w, const RunningStat::State &st);

/**
 * Read one putFoldState() sequence. Throws std::runtime_error on a
 * malformed state or a value left over inside it.
 */
RunningStat::State getFoldState(DerReader &r);

class ResultStore
{
  public:
    ResultStore() = default;
    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /**
     * Load @p path (mapped read-only, so a large store is never
     * copied to the heap) into this store, replacing its contents,
     * and remember @p path. Corruption-strict: a missing file, any
     * truncation, bad checksum, malformed image or repeated key
     * throws IoError and leaves the store as it was. The read-only
     * path inspect_results uses.
     */
    void load(const std::string &path);

    /**
     * load() when the file exists, empty store otherwise — the
     * open-or-create path the service uses. Remembers @p path so
     * save() with no argument rewrites the same file.
     */
    void open(const std::string &path);

    /** Serialize to @p path atomically (write-temp/fsync/rename). */
    void save(const std::string &path) const;

    /** save() to the path open() or load() remembered. */
    void save() const;

    /** Insert or overwrite (last-writer-wins) one cell record. */
    void put(const CellRecord &rec);

    /** Insert or overwrite one pair record. */
    void putPair(const PairRecord &rec);

    /**
     * The record stored under exactly @p key, or nullopt. The engine
     * memoizes on exact-key hits only — that is the "confidence spec
     * no looser" rule in its bit-identity-preserving form (an equal
     * spec is no looser, and only an equal spec reproduces the same
     * stopping point).
     */
    bool find(const ResultKey &key, CellRecord *out) const;

    /** The pair record stored under exactly @p key, if any. */
    bool findPair(const PairKey &key, PairRecord *out) const;

    /** Snapshot of all cell records, file order. */
    std::vector<CellRecord> cells() const;

    /** Snapshot of all pair records, file order. */
    std::vector<PairRecord> pairs() const;

    std::size_t cellCount() const;
    std::size_t pairCount() const;

    /** The path open() or load() remembered ("" before either). */
    std::string path() const;

  private:
    Blob serializeLocked() const;
    void parseLocked(const std::uint8_t *data, std::size_t size,
                     const std::string &path);

    mutable std::mutex mu_;
    mutable std::mutex saveM_; //!< orders concurrent save() snapshots
    std::string path_;
    std::vector<CellRecord> cells_;
    std::vector<PairRecord> pairs_;
    std::unordered_map<ResultKey, std::size_t, ResultKeyHash> cellIdx_;
    std::unordered_map<PairKey, std::size_t, PairKeyHash> pairIdx_;
};

/**
 * Parse a config digest or library content hash as typed on a
 * command line: 1-16 hex digits and nothing else (no sign, prefix or
 * whitespace). Returns false, leaving @p out untouched, otherwise.
 */
bool parseHexDigest(const std::string &text, std::uint64_t *out);

/**
 * The relative confidence half-width a cell's stored fold state
 * yields under its own recorded spec (the default spec for a
 * full-library cell, whose key carries none).
 */
double recordedRelHalfWidth(const CellRecord &c);

/** Which records a store query selects (0: no filter). */
struct StoreQuery
{
    std::uint64_t libHash = 0;      //!< one library's records
    std::uint64_t configDigest = 0; //!< cells of, pairs touching, a config

    bool matches(const CellRecord &c) const;
    bool matches(const PairRecord &p) const;
};

/**
 * The JSON answer to @p q over @p store, printed by both the service
 * daemon's query request and `inspect_results --json`. Top level:
 * `store` (its path), `cells`, `pairs`, `cell_count` and
 * `pair_count`. A cell carries its key fields, fold outcome,
 * `cpi`/`cpi_bits`, and `rel_half_width` at `level`
 * (recordedRelHalfWidth()); a pair its two digests, `n` and
 * `mean_delta`. @p names maps library content hashes to shard names;
 * any other library prints as `lib-<hash>`.
 */
std::string
storeQueryJson(const ResultStore &store, const StoreQuery &q,
               const std::unordered_map<std::uint64_t, std::string> &names);

} // namespace lp

#endif // LP_STORE_RESULT_STORE_HH

#include "store/result_store.hh"

#include <filesystem>

#include "codec/der.hh"
#include "io/atomic_file.hh"
#include "io/io_error.hh"
#include "io/mapped_file.hh"
#include "util/bytes.hh"
#include "util/log.hh"

namespace lp
{

namespace
{

constexpr std::uint64_t kMagic = 0x4c50'5245'5332ull; // "LPRES2"
constexpr std::uint64_t kVersion = 1;

constexpr std::uint64_t kFlagStop = 1u << 0;
constexpr std::uint64_t kFlagWrongPath = 1u << 1;
constexpr std::uint64_t kFlagConverged = 1u << 2;

[[noreturn]] void
badStore(const std::string &path, const std::string &why)
{
    throw IoError(
        ioErrorMsg("parse", "result store", path, 0) + ": " + why, 0);
}

/** Throw unless every value of @p r was read. */
void
expectEnd(const DerReader &r, const char *where)
{
    if (!r.atEnd())
        throw std::runtime_error(strfmt("data left over in %s", where));
}

/** The flags word of @p k: its stopping and wrong-path modes. */
std::uint64_t
keyFlags(const ResultKey &k)
{
    return (k.stopAtConfidence ? kFlagStop : 0u) |
           (k.approxWrongPath ? kFlagWrongPath : 0u);
}

/** @p k's seven words; @p outcome adds a cell's converged bit. */
void
putKey(DerWriter &w, const ResultKey &k, std::uint64_t outcome)
{
    w.putUint(k.libHash);
    w.putUint(k.configDigest);
    w.putUint(k.shuffleSeed);
    w.putUint(k.blockSize);
    w.putUint(keyFlags(k) | outcome);
    w.putUint(k.levelBits);
    w.putUint(k.relErrBits);
}

/**
 * Read putKey()'s words into @p k. Throws on a flags bit outside
 * @p allowed; returns the flags word.
 */
std::uint64_t
getKey(DerReader &r, ResultKey &k, std::uint64_t allowed)
{
    std::uint64_t v[7];
    r.getUints(v, 7);
    if (v[4] & ~allowed)
        throw std::runtime_error("a record has unknown flag bits");
    k.libHash = v[0];
    k.configDigest = v[1];
    k.shuffleSeed = v[2];
    k.blockSize = v[3];
    k.stopAtConfidence = (v[4] & kFlagStop) != 0;
    k.approxWrongPath = (v[4] & kFlagWrongPath) != 0;
    k.levelBits = v[5];
    k.relErrBits = v[6];
    return v[4];
}

/** Insert @p rec, or overwrite the record stored under its key. */
template <typename Index, typename Record>
void
upsert(Index &idx, std::vector<Record> &recs, const Record &rec)
{
    const auto [it, fresh] = idx.try_emplace(rec.key, recs.size());
    if (fresh)
        recs.push_back(rec);
    else
        recs[it->second] = rec;
}

/** Copy the record stored under @p key to @p out (when non-null). */
template <typename Index, typename Record, typename Key>
bool
lookup(const Index &idx, const std::vector<Record> &recs, const Key &key,
       Record *out)
{
    const auto it = idx.find(key);
    if (it == idx.end())
        return false;
    if (out)
        *out = recs[it->second];
    return true;
}

} // namespace

ResultKey
ResultKey::make(std::uint64_t libHash, std::uint64_t configDigest,
                std::uint64_t shuffleSeed, std::uint64_t blockSize,
                bool stopAtConfidence, bool approxWrongPath,
                const ConfidenceSpec &spec)
{
    ResultKey k;
    k.libHash = libHash;
    k.configDigest = configDigest;
    k.shuffleSeed = shuffleSeed;
    k.blockSize = blockSize;
    k.stopAtConfidence = stopAtConfidence;
    k.approxWrongPath = approxWrongPath;
    // A full-library run never consults the spec, so its result is
    // reusable under any spec: canonicalize the key to spec-free.
    if (stopAtConfidence) {
        k.levelBits = doubleBits(spec.level);
        k.relErrBits = doubleBits(spec.relativeError);
    }
    return k;
}

std::uint64_t
ResultKey::hash() const
{
    const std::uint64_t w[8] = {libHash,
                                configDigest,
                                shuffleSeed,
                                blockSize,
                                keyFlags(*this),
                                levelBits,
                                relErrBits,
                                0};
    std::uint8_t buf[sizeof(w)];
    for (std::size_t i = 0; i < 8; ++i)
        putU64le(buf + i * 8, w[i]);
    return fnv1a(buf, sizeof(buf));
}

void
putFoldState(DerWriter &w, const RunningStat::State &st)
{
    w.beginSequence();
    w.putUint(st.n);
    w.putDouble(st.mean);
    w.putDouble(st.m2);
    w.putDouble(st.min);
    w.putDouble(st.max);
    w.endSequence();
}

RunningStat::State
getFoldState(DerReader &r)
{
    DerReader seq = r.getSequence();
    RunningStat::State st;
    st.n = seq.getUint();
    st.mean = seq.getDouble();
    st.m2 = seq.getDouble();
    st.min = seq.getDouble();
    st.max = seq.getDouble();
    expectEnd(seq, "a fold state");
    return st;
}

void
ResultStore::load(const std::string &path)
{
    const MappedFile file = MappedFile::map(path);
    file.adviseSequential();
    std::lock_guard<std::mutex> lock(mu_);
    parseLocked(file.data(), file.size(), path);
    path_ = path;
}

void
ResultStore::open(const std::string &path)
{
    std::error_code ec;
    const bool exists = std::filesystem::exists(path, ec) && !ec;
    if (exists) {
        load(path);
    } else {
        std::lock_guard<std::mutex> lock(mu_);
        cells_.clear();
        pairs_.clear();
        cellIdx_.clear();
        pairIdx_.clear();
    }
    std::lock_guard<std::mutex> lock(mu_);
    path_ = path;
}

void
ResultStore::parseLocked(const std::uint8_t *data, std::size_t size,
                         const std::string &path)
{
    std::size_t payloadSize = 0;
    if (!checksummedPayload(data, size, &payloadSize))
        badStore(path, "truncated or missing checksum footer");

    // save() writes each key once, so a repeated key (judged on the
    // full identity) means the file is corrupt.
    std::vector<CellRecord> cells;
    std::vector<PairRecord> pairs;
    std::unordered_map<ResultKey, std::size_t, ResultKeyHash> cellIdx;
    std::unordered_map<PairKey, std::size_t, PairKeyHash> pairIdx;
    try {
        DerReader top(ByteSpan(data, payloadSize));
        DerReader seq = top.getSequence();
        if (seq.getUint() != kMagic || seq.getUint() != kVersion)
            badStore(path, "bad magic or version");
        DerReader cs = seq.getSequence();
        while (!cs.atEnd()) {
            DerReader r = cs.getSequence();
            CellRecord rec;
            const std::uint64_t flags = getKey(
                r, rec.key, kFlagStop | kFlagWrongPath | kFlagConverged);
            rec.converged = (flags & kFlagConverged) != 0;
            rec.libPoints = r.getUint();
            rec.processed = r.getUint();
            rec.unavailableLoads = r.getUint();
            rec.cpiBits = r.getUint();
            rec.stat = getFoldState(r);
            expectEnd(r, "a cell record");
            if (!cellIdx.try_emplace(rec.key, cells.size()).second)
                badStore(path, "duplicate key");
            cells.push_back(rec);
        }
        DerReader ps = seq.getSequence();
        while (!ps.atEnd()) {
            DerReader r = ps.getSequence();
            PairRecord rec;
            getKey(r, rec.key.base, kFlagStop | kFlagWrongPath);
            rec.key.testDigest = r.getUint();
            rec.delta = getFoldState(r);
            expectEnd(r, "a pair record");
            if (!pairIdx.try_emplace(rec.key, pairs.size()).second)
                badStore(path, "duplicate key");
            pairs.push_back(rec);
        }
        expectEnd(seq, "the store");
        expectEnd(top, "the file");
    } catch (const IoError &) {
        throw;
    } catch (const std::exception &e) {
        badStore(path, e.what());
    }

    cells_ = std::move(cells);
    pairs_ = std::move(pairs);
    cellIdx_ = std::move(cellIdx);
    pairIdx_ = std::move(pairIdx);
}

Blob
ResultStore::serializeLocked() const
{
    DerWriter w;
    w.beginSequence();
    w.putUint(kMagic);
    w.putUint(kVersion);
    w.beginSequence();
    for (const CellRecord &r : cells_) {
        w.beginSequence();
        putKey(w, r.key, r.converged ? kFlagConverged : 0);
        w.putUint(r.libPoints);
        w.putUint(r.processed);
        w.putUint(r.unavailableLoads);
        w.putUint(r.cpiBits);
        putFoldState(w, r.stat);
        w.endSequence();
    }
    w.endSequence();
    w.beginSequence();
    for (const PairRecord &r : pairs_) {
        w.beginSequence();
        putKey(w, r.key.base, 0);
        w.putUint(r.key.testDigest);
        putFoldState(w, r.delta);
        w.endSequence();
    }
    w.endSequence();
    w.endSequence();
    Blob image = w.finish();
    appendChecksumFooter(image);
    return image;
}

void
ResultStore::save(const std::string &path) const
{
    // saveM_ serializes writers so snapshots land on disk in the
    // order they were taken: without it, two concurrent publishers
    // could rename an older snapshot over a newer one.
    std::lock_guard<std::mutex> saveLock(saveM_);
    Blob image;
    {
        std::lock_guard<std::mutex> lock(mu_);
        image = serializeLocked();
    }
    writeFileAtomic(path, image.data(), image.size(), "result store");
}

void
ResultStore::save() const
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mu_);
        path = path_;
    }
    if (path.empty())
        throw IoError(
            "result store save() without a prior open() or load()", 0);
    save(path);
}

void
ResultStore::put(const CellRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    upsert(cellIdx_, cells_, rec);
}

void
ResultStore::putPair(const PairRecord &rec)
{
    std::lock_guard<std::mutex> lock(mu_);
    upsert(pairIdx_, pairs_, rec);
}

bool
ResultStore::find(const ResultKey &key, CellRecord *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lookup(cellIdx_, cells_, key, out);
}

bool
ResultStore::findPair(const PairKey &key, PairRecord *out) const
{
    std::lock_guard<std::mutex> lock(mu_);
    return lookup(pairIdx_, pairs_, key, out);
}

std::vector<CellRecord>
ResultStore::cells() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cells_;
}

std::vector<PairRecord>
ResultStore::pairs() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pairs_;
}

std::size_t
ResultStore::cellCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return cells_.size();
}

std::size_t
ResultStore::pairCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return pairs_.size();
}

std::string
ResultStore::path() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return path_;
}

bool
parseHexDigest(const std::string &text, std::uint64_t *out)
{
    if (text.empty() || text.size() > 16)
        return false;
    std::uint64_t v = 0;
    for (const char ch : text) {
        unsigned d;
        if (ch >= '0' && ch <= '9')
            d = static_cast<unsigned>(ch - '0');
        else if (ch >= 'a' && ch <= 'f')
            d = static_cast<unsigned>(ch - 'a' + 10);
        else if (ch >= 'A' && ch <= 'F')
            d = static_cast<unsigned>(ch - 'A' + 10);
        else
            return false;
        v = v << 4 | d;
    }
    *out = v;
    return true;
}

namespace
{

ConfidenceSpec
recordedSpec(const ResultKey &k)
{
    ConfidenceSpec spec;
    if (k.stopAtConfidence) {
        spec.level = bitsFromDouble(k.levelBits);
        spec.relativeError = bitsFromDouble(k.relErrBits);
    }
    return spec;
}

} // namespace

double
recordedRelHalfWidth(const CellRecord &c)
{
    OnlineEstimator est(recordedSpec(c.key));
    est.fold(RunningStat::fromState(c.stat));
    return est.snapshot().relHalfWidth;
}

bool
StoreQuery::matches(const CellRecord &c) const
{
    return (!libHash || c.key.libHash == libHash) &&
           (!configDigest || c.key.configDigest == configDigest);
}

bool
StoreQuery::matches(const PairRecord &p) const
{
    return (!libHash || p.key.base.libHash == libHash) &&
           (!configDigest || p.key.base.configDigest == configDigest ||
            p.key.testDigest == configDigest);
}

std::string
storeQueryJson(const ResultStore &store, const StoreQuery &q,
               const std::unordered_map<std::uint64_t, std::string> &names)
{
    auto libLabel = [&names](std::uint64_t h) {
        const auto it = names.find(h);
        if (it != names.end())
            return jsonEscape(it->second);
        return strfmt("lib-%016llx", static_cast<unsigned long long>(h));
    };
    // "key": value spacing throughout: CI and perfbench grep the
    // cell_count and cpi_bits fields as written.
    std::string out = strfmt("{\n  \"store\": \"%s\",\n"
                             "  \"cells\": [",
                             jsonEscape(store.path()).c_str());
    std::size_t nCells = 0;
    for (const CellRecord &c : store.cells()) {
        if (!q.matches(c))
            continue;
        out += nCells++ ? ",\n    " : "\n    ";
        out += strfmt(
            "{\"workload\": \"%s\", \"config_digest\": \"%016llx\", "
            "\"shuffle_seed\": %llu, \"block_size\": %llu, "
            "\"stop_at_confidence\": %s, \"approx_wrong_path\": %s, "
            "\"lib_points\": %llu, \"processed\": %llu, "
            "\"unavailable_loads\": %llu, \"converged\": %s, "
            "\"cpi\": %.17g, \"cpi_bits\": \"%016llx\", "
            "\"rel_half_width\": %.6g, \"level\": %.6g}",
            libLabel(c.key.libHash).c_str(),
            static_cast<unsigned long long>(c.key.configDigest),
            static_cast<unsigned long long>(c.key.shuffleSeed),
            static_cast<unsigned long long>(c.key.blockSize),
            c.key.stopAtConfidence ? "true" : "false",
            c.key.approxWrongPath ? "true" : "false",
            static_cast<unsigned long long>(c.libPoints),
            static_cast<unsigned long long>(c.processed),
            static_cast<unsigned long long>(c.unavailableLoads),
            c.converged ? "true" : "false", bitsFromDouble(c.cpiBits),
            static_cast<unsigned long long>(c.cpiBits),
            recordedRelHalfWidth(c), recordedSpec(c.key).level);
    }
    out += nCells ? "\n  ],\n" : "],\n";
    out += "  \"pairs\": [";
    std::size_t nPairs = 0;
    for (const PairRecord &p : store.pairs()) {
        if (!q.matches(p))
            continue;
        out += nPairs++ ? ",\n    " : "\n    ";
        out += strfmt(
            "{\"workload\": \"%s\", \"base_digest\": \"%016llx\", "
            "\"test_digest\": \"%016llx\", \"n\": %llu, "
            "\"mean_delta\": %.17g}",
            libLabel(p.key.base.libHash).c_str(),
            static_cast<unsigned long long>(p.key.base.configDigest),
            static_cast<unsigned long long>(p.key.testDigest),
            static_cast<unsigned long long>(p.delta.n),
            p.delta.n ? p.delta.mean : 0.0);
    }
    out += nPairs ? "\n  ],\n" : "],\n";
    out += strfmt("  \"cell_count\": %zu,\n  \"pair_count\": %zu\n}\n",
                  nCells, nPairs);
    return out;
}

} // namespace lp

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

constexpr char kMagic[8] = {'L', 'P', 'R', 'E', 'S', '1', '\n', '\0'};
constexpr std::uint64_t kVersion = 1;
constexpr const char *kRole = "lp-result-store";

constexpr std::size_t kHeaderBytes = 48;
constexpr std::size_t kCellWords = 17; //!< 16 payload + record fnv
constexpr std::size_t kPairWords = 14; //!< 13 payload + record fnv
constexpr std::size_t kCellBytes = kCellWords * 8;
constexpr std::size_t kPairBytes = kPairWords * 8;

constexpr std::uint64_t kFlagStop = 1u << 0;
constexpr std::uint64_t kFlagWrongPath = 1u << 1;
constexpr std::uint64_t kFlagConverged = 1u << 2;

[[noreturn]] void
badStore(const std::string &path, const char *why)
{
    throw IoError(
        ioErrorMsg("parse", "result store", path, 0) + ": " + why, 0);
}

void
encodeCell(std::uint8_t *p, const CellRecord &r)
{
    std::uint64_t flags = 0;
    if (r.key.stopAtConfidence)
        flags |= kFlagStop;
    if (r.key.approxWrongPath)
        flags |= kFlagWrongPath;
    if (r.converged)
        flags |= kFlagConverged;
    const std::uint64_t w[kCellWords - 1] = {
        r.key.libHash,      r.key.configDigest,
        r.key.shuffleSeed,  r.key.blockSize,
        flags,              r.key.levelBits,
        r.key.relErrBits,   r.libPoints,
        r.processed,        r.unavailableLoads,
        r.cpiBits,          r.stat.n,
        doubleBits(r.stat.mean), doubleBits(r.stat.m2),
        doubleBits(r.stat.min),  doubleBits(r.stat.max)};
    for (std::size_t i = 0; i < kCellWords - 1; ++i)
        putU64le(p + i * 8, w[i]);
    putU64le(p + (kCellWords - 1) * 8, fnv1a(p, (kCellWords - 1) * 8));
}

CellRecord
decodeCell(const std::uint8_t *p, const std::string &path)
{
    if (getU64le(p + (kCellWords - 1) * 8) !=
        fnv1a(p, (kCellWords - 1) * 8))
        badStore(path, "cell record checksum mismatch");
    CellRecord r;
    r.key.libHash = getU64le(p);
    r.key.configDigest = getU64le(p + 8);
    r.key.shuffleSeed = getU64le(p + 16);
    r.key.blockSize = getU64le(p + 24);
    const std::uint64_t flags = getU64le(p + 32);
    if (flags & ~(kFlagStop | kFlagWrongPath | kFlagConverged))
        badStore(path, "cell record has unknown flag bits");
    r.key.stopAtConfidence = (flags & kFlagStop) != 0;
    r.key.approxWrongPath = (flags & kFlagWrongPath) != 0;
    r.converged = (flags & kFlagConverged) != 0;
    r.key.levelBits = getU64le(p + 40);
    r.key.relErrBits = getU64le(p + 48);
    r.libPoints = getU64le(p + 56);
    r.processed = getU64le(p + 64);
    r.unavailableLoads = getU64le(p + 72);
    r.cpiBits = getU64le(p + 80);
    r.stat.n = getU64le(p + 88);
    r.stat.mean = bitsFromDouble(getU64le(p + 96));
    r.stat.m2 = bitsFromDouble(getU64le(p + 104));
    r.stat.min = bitsFromDouble(getU64le(p + 112));
    r.stat.max = bitsFromDouble(getU64le(p + 120));
    return r;
}

void
encodePair(std::uint8_t *p, const PairRecord &r)
{
    const ResultKey &k = r.key.base;
    std::uint64_t flags = 0;
    if (k.stopAtConfidence)
        flags |= kFlagStop;
    if (k.approxWrongPath)
        flags |= kFlagWrongPath;
    const std::uint64_t w[kPairWords - 1] = {
        k.libHash,          k.configDigest,
        r.key.testDigest,   k.shuffleSeed,
        k.blockSize,        flags,
        k.levelBits,        k.relErrBits,
        r.delta.n,          doubleBits(r.delta.mean),
        doubleBits(r.delta.m2), doubleBits(r.delta.min),
        doubleBits(r.delta.max)};
    for (std::size_t i = 0; i < kPairWords - 1; ++i)
        putU64le(p + i * 8, w[i]);
    putU64le(p + (kPairWords - 1) * 8, fnv1a(p, (kPairWords - 1) * 8));
}

PairRecord
decodePair(const std::uint8_t *p, const std::string &path)
{
    if (getU64le(p + (kPairWords - 1) * 8) !=
        fnv1a(p, (kPairWords - 1) * 8))
        badStore(path, "pair record checksum mismatch");
    PairRecord r;
    ResultKey &k = r.key.base;
    k.libHash = getU64le(p);
    k.configDigest = getU64le(p + 8);
    r.key.testDigest = getU64le(p + 16);
    k.shuffleSeed = getU64le(p + 24);
    k.blockSize = getU64le(p + 32);
    const std::uint64_t flags = getU64le(p + 40);
    if (flags & ~(kFlagStop | kFlagWrongPath))
        badStore(path, "pair record has unknown flag bits");
    k.stopAtConfidence = (flags & kFlagStop) != 0;
    k.approxWrongPath = (flags & kFlagWrongPath) != 0;
    k.levelBits = getU64le(p + 48);
    k.relErrBits = getU64le(p + 56);
    r.delta.n = getU64le(p + 64);
    r.delta.mean = bitsFromDouble(getU64le(p + 72));
    r.delta.m2 = bitsFromDouble(getU64le(p + 80));
    r.delta.min = bitsFromDouble(getU64le(p + 88));
    r.delta.max = bitsFromDouble(getU64le(p + 96));
    return r;
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
                                (stopAtConfidence ? kFlagStop : 0u) |
                                    (approxWrongPath ? kFlagWrongPath
                                                     : 0u),
                                levelBits,
                                relErrBits,
                                0};
    std::uint8_t buf[sizeof(w)];
    for (std::size_t i = 0; i < 8; ++i)
        putU64le(buf + i * 8, w[i]);
    return fnv1a(buf, sizeof(buf));
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
    if (size < kHeaderBytes + checksumFooterBytes ||
        !checksummedPayload(data, size, &payloadSize))
        badStore(path, "truncated or missing checksum footer");
    if (std::memcmp(data, kMagic, sizeof(kMagic)) != 0)
        badStore(path, "bad magic");
    if (getU64le(data + 8) != kVersion)
        badStore(path, "unsupported version");
    if (getU64le(data + 40) != fnv1a(data, 40))
        badStore(path, "header checksum mismatch");
    const std::uint64_t metaSize = getU64le(data + 16);
    const std::uint64_t nCells = getU64le(data + 24);
    const std::uint64_t nPairs = getU64le(data + 32);
    // Bound each section by the payload before multiplying, so a
    // corrupt count can never overflow the size arithmetic.
    if (metaSize > payloadSize || nCells > payloadSize ||
        nPairs > payloadSize)
        badStore(path, "section sizes exceed the file");
    const std::uint64_t want = kHeaderBytes + metaSize + nCells * 8 +
                               nCells * kCellBytes +
                               nPairs * kPairBytes;
    if (want != payloadSize)
        badStore(path, "section sizes disagree with the file size");

    const std::uint8_t *meta = data + kHeaderBytes;
    try {
        DerReader r(ByteSpan(meta, metaSize));
        DerReader seq = r.getSequence();
        if (seq.getString() != kRole)
            badStore(path, "meta role mismatch");
        if (seq.getUint() != kVersion || seq.getUint() != nCells ||
            seq.getUint() != nPairs)
            badStore(path, "meta disagrees with the header");
    } catch (const IoError &) {
        throw;
    } catch (const std::exception &) {
        badStore(path, "malformed DER meta");
    }

    const std::uint8_t *index = meta + metaSize;
    const std::uint8_t *cellBase = index + nCells * 8;
    const std::uint8_t *pairBase = cellBase + nCells * kCellBytes;

    // save() writes each key once, so a repeated key (judged on the
    // full identity, as the index is) means the file is corrupt.
    std::vector<CellRecord> cells;
    std::vector<PairRecord> pairs;
    std::unordered_map<ResultKey, std::size_t, ResultKeyHash> cellIdx;
    std::unordered_map<PairKey, std::size_t, PairKeyHash> pairIdx;
    cells.reserve(nCells);
    pairs.reserve(nPairs);
    for (std::uint64_t i = 0; i < nCells; ++i) {
        CellRecord rec =
            decodeCell(cellBase + i * kCellBytes, path);
        if (getU64le(index + i * 8) != rec.key.hash())
            badStore(path, "index entry disagrees with its record");
        if (!cellIdx.try_emplace(rec.key, cells.size()).second)
            badStore(path, "duplicate key");
        cells.push_back(rec);
    }
    for (std::uint64_t i = 0; i < nPairs; ++i) {
        PairRecord rec = decodePair(pairBase + i * kPairBytes, path);
        if (!pairIdx.try_emplace(rec.key, pairs.size()).second)
            badStore(path, "duplicate key");
        pairs.push_back(rec);
    }

    cells_ = std::move(cells);
    pairs_ = std::move(pairs);
    cellIdx_ = std::move(cellIdx);
    pairIdx_ = std::move(pairIdx);
}

Blob
ResultStore::serializeLocked() const
{
    DerWriter mw;
    mw.beginSequence();
    mw.putString(kRole);
    mw.putUint(kVersion);
    mw.putUint(cells_.size());
    mw.putUint(pairs_.size());
    mw.endSequence();
    const Blob meta = mw.finish();

    Blob out(kHeaderBytes + meta.size() + cells_.size() * 8 +
             cells_.size() * kCellBytes + pairs_.size() * kPairBytes);
    std::uint8_t *p = out.data();
    std::memcpy(p, kMagic, sizeof(kMagic));
    putU64le(p + 8, kVersion);
    putU64le(p + 16, meta.size());
    putU64le(p + 24, cells_.size());
    putU64le(p + 32, pairs_.size());
    putU64le(p + 40, fnv1a(p, 40));
    std::memcpy(p + kHeaderBytes, meta.data(), meta.size());
    std::uint8_t *index = p + kHeaderBytes + meta.size();
    std::uint8_t *cellBase = index + cells_.size() * 8;
    std::uint8_t *pairBase = cellBase + cells_.size() * kCellBytes;
    for (std::size_t i = 0; i < cells_.size(); ++i) {
        putU64le(index + i * 8, cells_[i].key.hash());
        encodeCell(cellBase + i * kCellBytes, cells_[i]);
    }
    for (std::size_t i = 0; i < pairs_.size(); ++i)
        encodePair(pairBase + i * kPairBytes, pairs_[i]);
    appendChecksumFooter(out);
    return out;
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

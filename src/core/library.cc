#include "core/library.hh"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <stdexcept>

#include "codec/zip.hh"
#include "io/atomic_file.hh"
#include "util/bytes.hh"
#include "util/log.hh"

namespace lp
{

namespace
{

/**
 * One container format's layout. Both formats are: an 8-byte magic,
 * a header of little-endian u64 fields (version, count, meta offset
 * and size, [reserved offset and size,] table offset, data offset,
 * file size), the DER meta blob, a table of fixed-width rows (record
 * offset relative to the data section, compressed size, raw size,
 * window index[, flags, delta base, raw checksum]), then the records
 * back-to-back in table order.
 */
struct ContainerFormat
{
    const char *name;
    std::uint8_t magic[8];
    std::size_t headerBytes;
    std::size_t rowBytes;
    /** The header holds the reserved (always empty) section between
     *  meta and table that held the retired shared dictionary. */
    bool reservedSection;
    /** Rows carry encoding flags, the delta base's stored position
     *  and the raw-payload checksum. */
    bool encodedRows;
};

// LPLIB3 holds plain libraries; LPLIB4 adds what delta chains need.
constexpr ContainerFormat kLpl3{
    "LPLIB3", {'L', 'P', 'L', 'I', 'B', '3', '\n', '\0'}, 64, 32,
    false, false};
constexpr ContainerFormat kLpl4{
    "LPLIB4", {'L', 'P', 'L', 'I', 'B', '4', '\n', '\0'}, 80, 56,
    true, true};
constexpr std::uint64_t kFormatVersion = 1;
constexpr std::uint64_t kNoBase = ~std::uint64_t(0);
constexpr std::uint8_t kAllFlags = LivePointLibrary::kFlagDelta;

void
serializeDesign(DerWriter &w, const SampleDesign &d)
{
    w.beginSequence();
    w.putUint(d.benchLength);
    w.putUint(d.count);
    w.putUint(d.measureLen);
    w.putUint(d.warmLen);
    w.endSequence();
}

SampleDesign
deserializeDesign(DerReader &r)
{
    DerReader seq = r.getSequence();
    SampleDesign d;
    d.benchLength = seq.getUint();
    d.count = seq.getUint();
    d.measureLen = seq.getUint();
    d.warmLen = seq.getUint();
    return d;
}

} // namespace

const Blob *
LivePoint::findBpredImage(const std::string &key) const
{
    const auto it = bpredImages.find(key);
    return it == bpredImages.end() ? nullptr : &it->second;
}

LivePointBreakdown
LivePoint::breakdown() const
{
    LivePointBreakdown b;
    b.regsAndTlb = regs.serialize().size() + itlb.serialize().size() +
                   dtlb.serialize().size();
    {
        DerWriter w;
        memImage.serialize(w);
        b.memData = w.finish().size();
    }
    for (const auto &kv : bpredImages)
        b.bpred += kv.second.size();
    b.l1iTags = l1i.serialize().size();
    b.l1dTags = l1d.serialize().size();
    b.l2Tags = l2.serialize().size();
    b.total = serialize().size();
    return b;
}

Blob
LivePoint::serialize() const
{
    DerWriter w;
    w.beginSequence();
    w.putUint(index);
    w.putUint(windowStart);
    w.putUint(warmLen);
    w.putUint(measureLen);
    regs.serialize(w);
    memImage.serialize(w);
    l1i.serialize(w);
    l1d.serialize(w);
    l2.serialize(w);
    itlb.serialize(w);
    dtlb.serialize(w);
    w.putUint(bpredImages.size());
    for (const auto &kv : bpredImages) {
        w.putString(kv.first);
        w.putBytes(kv.second);
    }
    w.endSequence();
    return w.finish();
}

void
LivePoint::deserializeInto(const Blob &data, LivePoint &out)
{
    DerReader top(data);
    DerReader seq = top.getSequence();
    out.index = seq.getUint();
    out.windowStart = seq.getUint();
    out.warmLen = seq.getUint();
    out.measureLen = seq.getUint();
    out.regs = ArchRegs::deserialize(seq);
    MemoryImage::deserializeInto(seq, out.memImage);
    CacheSetRecord::deserializeInto(seq, out.l1i);
    CacheSetRecord::deserializeInto(seq, out.l1d);
    CacheSetRecord::deserializeInto(seq, out.l2);
    CacheSetRecord::deserializeInto(seq, out.itlb);
    CacheSetRecord::deserializeInto(seq, out.dtlb);
    // Every point of a library carries the same image keys, so
    // reading into the map's existing buffers makes steady-state
    // decoding node-free. Images are never empty, which lets an empty
    // buffer mark a leftover key from a previous point.
    for (auto &kv : out.bpredImages)
        kv.second.clear();
    const std::uint64_t nImages = seq.getUint();
    for (std::uint64_t i = 0; i < nImages; ++i) {
        const std::string key = seq.getString();
        Blob &image = out.bpredImages[key];
        seq.getBytes(image);
        // Pin the sentinel invariant: a real image is never empty.
        if (image.empty())
            throw std::runtime_error(
                "live-point: empty predictor image");
    }
    for (auto it = out.bpredImages.begin();
         it != out.bpredImages.end();) {
        if (it->second.empty())
            it = out.bpredImages.erase(it);
        else
            ++it;
    }
}

LivePointLibrary::LivePointLibrary(std::string benchmark,
                                   const SampleDesign &design)
    : benchmark_(std::move(benchmark)), design_(design)
{
}

std::uint64_t
livePointRawHash(const std::uint8_t *data, std::size_t n)
{
    // Word-at-a-time multiply/xorshift mix: ~8 bytes per multiply, so
    // verifying a record costs a small fraction of decompressing it.
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^ n;
    while (n >= 8) {
        std::uint64_t v;
        std::memcpy(&v, data, 8);
        h = (h ^ v) * 0x2545f4914f6cdd1dull;
        h ^= h >> 29;
        data += 8;
        n -= 8;
    }
    std::uint64_t v = 0;
    for (std::size_t i = 0; i < n; ++i)
        v |= static_cast<std::uint64_t>(data[i]) << (8 * i);
    h = (h ^ v) * 0x2545f4914f6cdd1dull;
    h ^= h >> 32;
    // 0 means "no checksum stored" in the record table; remap the one
    // colliding value so every real checksum verifies.
    return h ? h : 1;
}

ByteSpan
LivePointLibrary::recordAt(std::size_t filePos) const
{
    const RecordRef &r = refs_[filePos];
    const std::uint8_t *base = file_ ? file_->data() : arena_.data();
    return ByteSpan(base + r.offset,
                    static_cast<std::size_t>(r.size));
}

ByteSpan
LivePointLibrary::record(std::size_t i) const
{
    return recordAt(pos(i));
}

LivePoint
LivePointLibrary::get(std::size_t i) const
{
    LivePointDecodeScratch scratch;
    LivePoint p;
    decodeInto(i, scratch, p);
    return p;
}

void
LivePointLibrary::decodeOne(std::size_t filePos, Blob &out,
                            ByteSpan prev) const
{
    const RecordRef &r = refs_[filePos];
    const ByteSpan rec = recordAt(filePos);
    if (r.flags & kFlagDelta)
        zipDecompressDeltaInto(rec.data, rec.size, prev, out);
    else
        zipDecompressInto(rec.data, rec.size, out);
    // Cross-check the decoded bytes against the index table's
    // accounting: rawSize catches torn records through every path,
    // and the raw checksum makes delta corruption — a broken chain, a
    // wrong base — fail loudly instead of deserializing garbage.
    if (out.size() != r.rawSize)
        throw std::runtime_error(
            strfmt("live-point %zu: record size mismatch", filePos));
    if (r.flags && r.rawHash &&
        livePointRawHash(out.data(), out.size()) != r.rawHash)
        throw std::runtime_error(
            strfmt("live-point %zu: raw checksum mismatch", filePos));
}

void
LivePointLibrary::noteRequest(std::size_t filePos,
                              LivePointDecodeScratch &scratch) const
{
    if (scratch.pending.empty()) {
        // Every record starts pending: a subtree's count is its own
        // record plus its delta children's counts, summed deepest
        // first.
        const std::size_t n = refs_.size();
        scratch.pending.assign(n, 1);
        scratch.requested.assign(n, 0);
        scratch.kept.reserve(scratch.keepChains);
        std::vector<std::uint32_t> deepestFirst(n);
        for (std::size_t p = 0; p < n; ++p)
            deepestFirst[p] = static_cast<std::uint32_t>(p);
        std::sort(deepestFirst.begin(), deepestFirst.end(),
                  [this](std::uint32_t a, std::uint32_t b) {
                      return refs_[a].depth > refs_[b].depth;
                  });
        for (const std::uint32_t p : deepestFirst)
            if (refs_[p].flags & kFlagDelta)
                scratch.pending[static_cast<std::size_t>(
                    refs_[p].basePos)] += scratch.pending[p];
    }
    if (scratch.requested[filePos])
        return;
    scratch.requested[filePos] = 1;
    for (std::size_t p = filePos;;) {
        --scratch.pending[p];
        const RecordRef &r = refs_[p];
        if (!(r.flags & kFlagDelta))
            break;
        p = static_cast<std::size_t>(r.basePos);
    }
}

void
LivePointLibrary::materializeRaw(std::size_t filePos,
                                 LivePointDecodeScratch &scratch) const
{
    using KeptRaw = LivePointDecodeScratch::KeptRaw;
    constexpr std::uint64_t kNone = ~std::uint64_t(0);
    const std::uint64_t keyframe = refs_[filePos].keyframe;
    KeptRaw *entry = nullptr;
    if (scratch.keepChains) {
        noteRequest(filePos, scratch);
        for (KeptRaw &e : scratch.kept)
            if (e.pos != kNone && e.keyframe == keyframe) {
                entry = &e;
                break;
            }
    }

    // Collect the records to decode top-down, stopping at a keyframe,
    // at payload (stored-order replay hits it every time — the
    // previous point is this one's base) or at the chain's kept raw.
    scratch.chain.clear();
    Blob *cur = nullptr;
    for (std::size_t p = filePos;;) {
        if (p == scratch.cachedPos) {
            cur = &scratch.payload;
            break;
        }
        if (entry && p == entry->pos) {
            cur = &entry->raw;
            break;
        }
        scratch.chain.push_back(p);
        const RecordRef &r = refs_[p];
        if (!(r.flags & kFlagDelta))
            break;
        p = static_cast<std::size_t>(r.basePos);
    }

    // Which raw of this chain to keep: a kept raw at depth x saves
    // each pending record below it x + 1 links (it needs e - x
    // instead of e + 1), so keep the candidate — a raw this decode
    // materializes, or the one already kept — with the largest
    // (x + 1) * pending. Nothing pending: the chain's entry goes.
    std::size_t keepAt = kNone; // index into chain
    KeptRaw *slot = entry;
    bool dropEntry = false;
    if (scratch.keepChains) {
        auto saving = [&](std::uint64_t p) {
            return (refs_[p].depth + std::uint64_t{1}) *
                   scratch.pending[p];
        };
        std::uint64_t best = entry ? saving(entry->pos) : 0;
        for (std::size_t j = 0; j < scratch.chain.size(); ++j) {
            const std::uint64_t s = saving(scratch.chain[j]);
            if (s > best) {
                best = s;
                keepAt = j;
            }
        }
        dropEntry = entry && best == 0;
        if (keepAt != kNone && !slot) {
            // A free entry, a new one, or the least recently used
            // chain's (kept was reserved, so entries never move).
            for (KeptRaw &e : scratch.kept)
                if (e.pos == kNone) {
                    slot = &e;
                    break;
                }
            if (!slot && scratch.kept.size() < scratch.keepChains)
                slot = &scratch.kept.emplace_back();
            if (!slot) {
                slot = &scratch.kept.front();
                for (KeptRaw &e : scratch.kept)
                    if (e.lastUse < slot->lastUse)
                        slot = &e;
            }
        }
    }

    // Decode bottom-up, ping-ponging between the two work buffers.
    // The cached and kept raws are only ever *read* as the first
    // delta's base. A raw chosen for keeping is swapped into its
    // entry straight after its own checks pass, so an entry only
    // ever holds verified bytes; the finished record lands in
    // payload, becoming the next call's cache. A plain record with
    // nothing to keep decodes straight into payload: cachedPos must
    // never outlive payload's bytes, so that unsets it first.
    for (std::size_t k = scratch.chain.size(); k--;) {
        const std::size_t p = static_cast<std::size_t>(scratch.chain[k]);
        Blob *dst = cur == &scratch.tmp ? &scratch.prevRaw : &scratch.tmp;
        if (!cur && keepAt != 0) {
            scratch.cachedPos = kNone;
            dst = &scratch.payload;
        }
        decodeOne(p, *dst, cur ? ByteSpan(*cur) : ByteSpan());
        cur = dst;
        if (k == keepAt) {
            std::swap(slot->raw, *dst);
            slot->keyframe = keyframe;
            slot->pos = p;
            cur = &slot->raw;
        }
    }
    if (cur == &scratch.tmp || cur == &scratch.prevRaw)
        std::swap(scratch.payload, *cur);
    else if (cur != &scratch.payload)
        scratch.payload.assign(cur->begin(), cur->end());
    scratch.cachedPos = filePos;

    if (dropEntry) {
        entry->pos = kNone;
        entry->keyframe = kNone;
    } else if (slot) {
        slot->lastUse = ++scratch.useClock;
    }
}

namespace
{

/** Deserialize a verified raw record of stored point @p i. */
void
deserializeRecord(const Blob &raw, std::size_t i, std::uint64_t index,
                  LivePoint &out)
{
    LivePoint::deserializeInto(raw, out);
    if (out.index != index)
        throw std::runtime_error(
            strfmt("live-point %zu: window index mismatch", i));
}

} // namespace

void
LivePointLibrary::decodeInto(std::size_t i,
                             LivePointDecodeScratch &scratch,
                             LivePoint &out) const
{
    const std::size_t p = pos(i);
    materializeRaw(p, scratch);
    deserializeRecord(scratch.payload, i, refs_[p].index, out);
}

std::size_t
LivePointLibrary::deltaCount() const
{
    std::size_t n = 0;
    for (const RecordRef &r : refs_)
        n += (r.flags & kFlagDelta) != 0;
    return n;
}

void
LivePointLibrary::reserve(std::uint64_t recordBytes, std::size_t count)
{
    if (file_)
        throw std::logic_error("library: a loaded library is read-only");
    arena_.reserve(arena_.size() + recordBytes);
    refs_.reserve(refs_.size() + count);
}

void
LivePointLibrary::addEncoded(const Blob &compressed,
                             std::uint64_t rawSize,
                             std::uint64_t windowIndex,
                             std::uint8_t flags, std::uint64_t rawHash)
{
    if (file_)
        throw std::logic_error("library: a loaded library is read-only");
    if (flags & ~kAllFlags)
        throw std::runtime_error("library: unknown record flags");
    if ((flags & kFlagDelta) && refs_.empty())
        throw std::runtime_error(
            "library: delta record without a predecessor");
    // Appending to a shuffled library: the new record lands at the
    // end of both the file order and the stored-order view.
    if (!order_.empty())
        order_.push_back(static_cast<std::uint32_t>(refs_.size()));
    RecordRef r;
    r.offset = arena_.size();
    r.size = compressed.size();
    r.rawSize = rawSize;
    r.index = windowIndex;
    r.flags = flags;
    r.rawHash = rawHash;
    if (flags & kFlagDelta) {
        r.basePos = refs_.size() - 1;
        r.keyframe = refs_.back().keyframe;
        r.depth = refs_.back().depth + 1;
        anyDelta_ = true;
    } else {
        r.keyframe = refs_.size();
    }
    arena_.insert(arena_.end(), compressed.begin(), compressed.end());
    refs_.push_back(r);
}

std::uint64_t
LivePointLibrary::totalCompressedBytes() const
{
    std::uint64_t total = 0;
    for (const RecordRef &r : refs_)
        total += r.size;
    return total;
}

std::uint64_t
LivePointLibrary::totalUncompressedBytes() const
{
    std::uint64_t total = 0;
    for (const RecordRef &r : refs_)
        total += r.rawSize;
    return total;
}

std::uint64_t
LivePointLibrary::contentHash() const
{
    std::uint64_t h = hashMix(0x6c70'6c69'62ull); // "lplib"
    for (const char ch : benchmark_)
        h = hashCombine(h, static_cast<std::uint64_t>(ch));
    h = hashCombine(h, design_.benchLength);
    h = hashCombine(h, design_.count);
    h = hashCombine(h, design_.measureLen);
    h = hashCombine(h, design_.warmLen);
    // FNV-1a over every record, folded in; cheap relative to one
    // decompression and touching every byte keeps corruption and
    // reorders distinguishable. The records are hashed in file order,
    // four at a time, and folded in stored order.
    std::vector<ByteSpan> recs(refs_.size());
    for (std::size_t p = 0; p < refs_.size(); ++p)
        recs[p] = recordAt(p);
    std::vector<std::uint64_t> sums(refs_.size());
    fnv1aEach(recs.data(), recs.size(), sums.data());
    std::vector<std::uint32_t> inv;
    for (std::size_t i = 0; i < refs_.size(); ++i) {
        const RecordRef &r = refs_[pos(i)];
        h = hashCombine(h, r.index);
        h = hashCombine(h, sums[pos(i)]);
        // Encoding metadata is load-bearing for delta records (the
        // base in *stored* order, so the hash survives a save/load
        // round-trip of a shuffled library). Plain records fold
        // nothing extra — their hash matches older releases.
        if (r.flags & kFlagDelta) {
            if (inv.empty())
                inv = inverseOrder();
            h = hashCombine(h, r.flags);
            h = hashCombine(h, inv[static_cast<std::size_t>(r.basePos)]);
        }
    }
    return h;
}

std::vector<std::uint32_t>
LivePointLibrary::inverseOrder() const
{
    std::vector<std::uint32_t> inv(refs_.size());
    for (std::size_t i = 0; i < refs_.size(); ++i)
        inv[pos(i)] = static_cast<std::uint32_t>(i);
    return inv;
}

void
LivePointLibrary::shuffle(Rng &rng)
{
    if (order_.empty()) {
        order_.resize(refs_.size());
        for (std::size_t i = 0; i < order_.size(); ++i)
            order_[i] = static_cast<std::uint32_t>(i);
    }
    for (std::size_t i = order_.size(); i > 1; --i) {
        const std::size_t j =
            static_cast<std::size_t>(rng.nextBounded(i));
        std::swap(order_[i - 1], order_[j]);
    }
}

void
LivePointLibrary::save(const std::string &path) const
{
    const ContainerFormat &fmt = anyDelta_ ? kLpl4 : kLpl3;
    DerWriter mw;
    mw.putString(benchmark_);
    serializeDesign(mw, design_);
    const Blob meta = mw.finish();

    const std::uint64_t count = refs_.size();
    const std::uint64_t metaOffset = fmt.headerBytes;
    const std::uint64_t tableOffset = metaOffset + meta.size();
    const std::uint64_t dataOffset = tableOffset + count * fmt.rowBytes;
    const std::uint64_t fileSize = dataOffset + totalCompressedBytes();

    // Staged through the atomic writer: a crash or error mid-save
    // leaves the previous file (if any) untouched, and the temp is
    // removed on every error path.
    AtomicFileWriter f(path, "library");

    std::uint8_t header[kLpl4.headerBytes] = {}; // the wider format
    std::memcpy(header, fmt.magic, sizeof(fmt.magic));
    std::uint8_t *field = header + sizeof(fmt.magic);
    auto put = [&field](std::uint64_t v) {
        putU64le(field, v);
        field += 8;
    };
    put(kFormatVersion);
    put(count);
    put(metaOffset);
    put(meta.size());
    if (fmt.reservedSection) {
        put(tableOffset); // reserved section: empty
        put(0);
    }
    put(tableOffset);
    put(dataOffset);
    put(fileSize);
    f.write(header, fmt.headerBytes);
    f.write(meta.data(), meta.size());

    // Index table, then the records, streamed straight from their
    // resident storage in stored (view) order — the save never stages
    // the library twice. A delta base's table field is remapped to
    // the base's stored position, so the loaded file reproduces the
    // chains regardless of any shuffle.
    std::vector<std::uint32_t> inv;
    if (fmt.encodedRows)
        inv = inverseOrder();
    std::uint64_t rel = 0;
    for (std::size_t i = 0; i < refs_.size(); ++i) {
        const RecordRef &r = refs_[pos(i)];
        std::uint8_t row[kLpl4.rowBytes];
        putU64le(row + 0, rel);
        putU64le(row + 8, r.size);
        putU64le(row + 16, r.rawSize);
        putU64le(row + 24, r.index);
        if (fmt.encodedRows) {
            putU64le(row + 32, r.flags);
            putU64le(row + 40,
                     (r.flags & kFlagDelta)
                         ? inv[static_cast<std::size_t>(r.basePos)]
                         : kNoBase);
            putU64le(row + 48, r.rawHash);
        }
        f.write(row, fmt.rowBytes);
        rel += r.size;
    }
    for (std::size_t i = 0; i < refs_.size(); ++i) {
        const ByteSpan rec = record(i);
        f.write(rec.data, rec.size);
    }
    f.commit();
}

void
LivePointLibrary::validateChains()
{
    // Every delta chain must bottom out at a keyframe — a cycle (only
    // possible through table corruption) would hang decode. The walk
    // also precomputes each record's keyframe and depth for the
    // decode chain cache. Memoized: linear in the point count.
    std::vector<std::uint8_t> state(refs_.size(), 0);
    std::vector<std::size_t> chainStack;
    for (std::size_t i = 0; i < refs_.size(); ++i) {
        if (state[i] == 2)
            continue;
        chainStack.clear();
        std::size_t p = i;
        std::uint64_t keyframe = 0;
        std::uint32_t depth = 0; // of the first record popped below
        while (true) {
            if (state[p] == 2) {
                keyframe = refs_[p].keyframe;
                depth = refs_[p].depth + 1;
                break;
            }
            if (state[p] == 1)
                throw std::runtime_error(
                    "library: delta chain cycle");
            state[p] = 1;
            chainStack.push_back(p);
            if (!(refs_[p].flags & kFlagDelta)) {
                keyframe = p;
                break;
            }
            p = static_cast<std::size_t>(refs_[p].basePos);
        }
        for (auto it = chainStack.rbegin(); it != chainStack.rend();
             ++it) {
            RecordRef &r = refs_[*it];
            r.keyframe = keyframe;
            r.depth = depth++;
            state[*it] = 2;
        }
    }
}

LivePointLibrary
LivePointLibrary::load(const std::string &path)
{
    auto file = std::make_shared<const MappedFile>(MappedFile::map(path));
    file->adviseSequential();
    const ContainerFormat *format = nullptr;
    for (const ContainerFormat *f : {&kLpl4, &kLpl3})
        if (file->size() >= sizeof(f->magic) &&
            std::memcmp(file->data(), f->magic, sizeof(f->magic)) == 0)
            format = f;
    if (!format)
        throw std::runtime_error(strfmt(
            "'%s' is not a live-point library (no LPLIB3/LPLIB4 magic)",
            path.c_str()));
    const ContainerFormat &fmt = *format;
    auto malformed = [&path, &fmt]() {
        return std::runtime_error(strfmt("'%s' is not a valid %s library",
                                         path.c_str(), fmt.name));
    };
    if (file->size() < fmt.headerBytes)
        throw malformed();
    const std::uint8_t *h = file->data();
    const std::uint8_t *field = h + sizeof(fmt.magic);
    auto next = [&field]() {
        const std::uint64_t v = getU64le(field);
        field += 8;
        return v;
    };
    const std::uint64_t version = next();
    const std::uint64_t count = next();
    const std::uint64_t metaOffset = next();
    const std::uint64_t metaSize = next();
    std::uint64_t reservedOffset = 0;
    std::uint64_t reservedSize = 0;
    if (fmt.reservedSection) {
        reservedOffset = next();
        reservedSize = next();
    }
    const std::uint64_t tableOffset = next();
    const std::uint64_t dataOffset = next();
    const std::uint64_t fileSize = next();
    // Overflow-safe layout checks, section by section: every field is
    // validated against the real file size before it is used as an
    // offset. The reserved section must be empty.
    const std::uint64_t metaEnd = metaOffset + metaSize;
    if (version != kFormatVersion || fileSize != file->size() ||
        metaOffset != fmt.headerBytes ||
        metaSize > fileSize - metaOffset ||
        (fmt.reservedSection &&
         (reservedOffset != metaEnd || reservedSize != 0)) ||
        tableOffset != metaEnd ||
        count > (fileSize - tableOffset) / fmt.rowBytes ||
        dataOffset != tableOffset + count * fmt.rowBytes)
        throw malformed();

    LivePointLibrary lib;
    {
        DerReader mr(ByteSpan(h + metaOffset,
                              static_cast<std::size_t>(metaSize)));
        lib.benchmark_ = mr.getString();
        lib.design_ = deserializeDesign(mr);
    }
    lib.refs_.reserve(count);
    const std::uint64_t dataBytes = fileSize - dataOffset;
    std::uint64_t running = 0;
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint8_t *row = h + tableOffset + i * fmt.rowBytes;
        RecordRef r;
        const std::uint64_t rel = getU64le(row + 0);
        r.size = getU64le(row + 8);
        r.rawSize = getU64le(row + 16);
        r.index = getU64le(row + 24);
        // The writer lays records down back-to-back in table order;
        // holding the loader to that makes any corruption of an
        // offset or size — not just one escaping the data section —
        // a detectable error.
        if (rel != running || r.size > dataBytes - rel)
            throw malformed();
        if (fmt.encodedRows) {
            const std::uint64_t flags = getU64le(row + 32);
            r.basePos = getU64le(row + 40);
            r.rawHash = getU64le(row + 48);
            if (flags & ~static_cast<std::uint64_t>(kAllFlags))
                throw malformed();
            r.flags = static_cast<std::uint8_t>(flags);
            if (r.flags & kFlagDelta) {
                if (r.basePos >= count || r.basePos == i)
                    throw malformed();
                lib.anyDelta_ = true;
            } else if (r.basePos != kNoBase) {
                throw malformed();
            }
        }
        running = rel + r.size;
        r.offset = dataOffset + rel;
        lib.refs_.push_back(r);
    }
    if (running != dataBytes)
        throw malformed();
    lib.validateChains();
    // The mapping keeps holding the file; records are spans into it —
    // the load allocates nothing beyond the index and pins no file
    // bytes.
    lib.file_ = std::move(file);
    return lib;
}

bool
identicalRecords(const LivePointLibrary &a, const LivePointLibrary &b)
{
    if (a.size() != b.size())
        return false;
    std::vector<std::uint32_t> invA;
    std::vector<std::uint32_t> invB;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a.windowIndex(i) != b.windowIndex(i))
            return false;
        const auto &ra = a.refs_[a.pos(i)];
        const auto &rb = b.refs_[b.pos(i)];
        if (ra.flags != rb.flags)
            return false;
        if (ra.flags & LivePointLibrary::kFlagDelta) {
            // Chains must link the same stored positions.
            if (invA.empty()) {
                invA = a.inverseOrder();
                invB = b.inverseOrder();
            }
            if (invA[static_cast<std::size_t>(ra.basePos)] !=
                invB[static_cast<std::size_t>(rb.basePos)])
                return false;
        }
        const ByteSpan sa = a.record(i);
        const ByteSpan sb = b.record(i);
        if (sa.size != sb.size ||
            std::memcmp(sa.data, sb.data, sa.size) != 0)
            return false;
    }
    return true;
}

} // namespace lp

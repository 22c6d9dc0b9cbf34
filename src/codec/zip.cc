#include "codec/zip.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "util/failpoint.hh"

namespace lp
{

namespace
{

// Token stream format:
//   [LEB128 raw size] then groups of up to 8 items preceded by a flag
//   byte; bit set = match token (2-byte little-endian offset, 1-byte
//   length-4), bit clear = literal byte. Window 64KB, match length
//   4..259.

constexpr std::size_t kWindow = 65535;
constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 259;

constexpr std::uint32_t kNil = 0xffffffffu;
constexpr unsigned kHashBits = 16;

// Chain candidates examined per position. Deep enough to find the
// good match in the chain, shallow enough that pathological inputs
// (long runs hashing to one bucket) stay linear-time.
constexpr unsigned kMaxChainDepth = 4;

// A match this long is good enough: stop walking the chain, and skip
// the lazy one-byte-later probe entirely.
constexpr std::size_t kNiceMatch = 96;

// In-match insertion policy: a long match indexes its first
// kFullInsert and last kTailInsert positions instead of every one.
constexpr std::size_t kFullInsert = 16;
constexpr std::size_t kTailInsert = 8;

// The batched and reference decoder bodies start on a 64-byte
// boundary, so code added or removed elsewhere in the binary cannot
// shift their loops across cache lines. BENCH_6 divides one decoder's
// speed by the other's; without the pin that ratio moved ~15% with
// placement alone.
#if defined(__GNUC__)
#define LP_DECODER_ENTRY __attribute__((aligned(64)))
#else
#define LP_DECODER_ENTRY
#endif

/** Longest common prefix of a and b, at most limit, word-at-a-time. */
std::size_t
matchExtent(const std::uint8_t *a, const std::uint8_t *b,
            std::size_t limit)
{
    std::size_t len = 0;
    while (len + 8 <= limit) {
        std::uint64_t va;
        std::uint64_t vb;
        std::memcpy(&va, a + len, 8);
        std::memcpy(&vb, b + len, 8);
        if (va != vb) {
            const std::uint64_t diff = va ^ vb;
#if (defined(__GNUC__) || defined(__clang__)) &&                          \
    defined(__BYTE_ORDER__) &&                                            \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
            return len + static_cast<std::size_t>(
                             __builtin_ctzll(diff) >> 3);
#else
            while (len < limit && a[len] == b[len])
                ++len;
            return len;
#endif
        }
        len += 8;
    }
    while (len < limit && a[len] == b[len])
        ++len;
    return len;
}

void
putLeb(Blob &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
getLeb(const std::uint8_t *in, std::size_t size, std::size_t &pos)
{
    std::uint64_t v = 0;
    unsigned shift = 0;
    while (true) {
        if (pos >= size)
            throw std::runtime_error("zip: truncated header");
        const std::uint8_t b = in[pos++];
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return v;
        shift += 7;
        if (shift > 63)
            throw std::runtime_error("zip: oversized varint");
    }
}

std::uint32_t
hash4(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return (v * 2654435761u) >> (32 - kHashBits);
}

/**
 * Hash-chain match finder: head[h] is the most recent position whose
 * 4-byte prefix hashes to h, chain[p] the previous such position.
 * Positions *inside* matches are inserted too, so repeated structure
 * shifted by less than a match length is still found (the greedy
 * single-entry table lost those). A second, single-entry table keyed
 * by *scan* positions only (token starts — what the old greedy
 * compressor kept) rides along: in-match insertions favour
 * short-range candidates, and on run-heavy data they can crowd the
 * long-range period-aligned candidate out of the chain's depth
 * budget. The scan table keeps that candidate reachable, so this
 * finder's candidate set dominates the old one's.
 */
class MatchFinder
{
  public:
    MatchFinder(const std::uint8_t *data, std::size_t n)
        : raw_(data), n_(n), head_(1u << kHashBits, kNil),
          scanHead_(1u << kHashBits, kNil),
          chain_(n_ >= kMinMatch ? n_ - (kMinMatch - 1) : 0)
    {
    }

    /** Make positions [inserted, end) available as candidates. */
    void insertUpTo(std::size_t end)
    {
        const std::size_t last = chain_.size(); // first uninsertable pos
        end = std::min(end, last);
        for (; inserted_ < end; ++inserted_) {
            const std::uint32_t h = hash4(raw_ + inserted_);
            chain_[inserted_] = head_[h];
            head_[h] = static_cast<std::uint32_t>(inserted_);
        }
    }

    /**
     * Insert the positions covered by a match at @p pos. Short
     * matches insert fully; long ones insert their head and tail
     * only — the interior repeats what the head already indexed, and
     * skipping it is where the codec's speed comes from. (Skipped
     * positions are never match *sources*; they remain reachable as
     * copy content through the inserted head.)
     */
    void insertForMatch(std::size_t pos, std::size_t len)
    {
        if (len <= kFullInsert + kTailInsert) {
            insertUpTo(pos + len);
            return;
        }
        insertUpTo(pos + kFullInsert);
        inserted_ = std::max(inserted_,
                             std::min(pos + len - kTailInsert,
                                      chain_.size()));
        insertUpTo(pos + len);
    }

    /**
     * Longest match for @p pos among earlier candidates within the
     * window; ties prefer the closest (most recent) candidate.
     * Inserts @p pos into the table on the way — one hash and one
     * head-table access serve both jobs, the scan loop's whole cost
     * model. Returns the length (0 when below the format minimum)
     * and writes the source position to @p matchPos.
     */
    std::size_t findAndInsert(std::size_t pos, std::size_t &matchPos)
    {
        if (pos + kMinMatch > n_)
            return 0;
        const std::uint32_t h = hash4(raw_ + pos);
        std::uint32_t cand = head_[h];
        const std::uint32_t scan = scanHead_[h];
        scanHead_[h] = static_cast<std::uint32_t>(pos);
        if (pos == inserted_) {
            // pos < chain_.size() follows from the length guard.
            chain_[pos] = cand;
            head_[h] = static_cast<std::uint32_t>(pos);
            ++inserted_;
        } else if (cand == pos) {
            // pos was already inserted (a failed lazy probe): start
            // the walk at its predecessor, never at itself.
            cand = chain_[pos];
        }
        const std::size_t limit = std::min(n_ - pos, kMaxMatch);
        const std::size_t nice = std::min(limit, kNiceMatch);
        std::size_t best = 0;
        unsigned depth = kMaxChainDepth;
        while (cand != kNil && pos - cand <= kWindow && depth--) {
            const std::uint8_t *a = raw_ + cand;
            const std::uint8_t *b = raw_ + pos;
            // A longer match must extend past the current best; check
            // that byte first to skip most candidates in O(1).
            if (a[best] == b[best]) {
                const std::size_t len = matchExtent(a, b, limit);
                if (len > best) {
                    best = len;
                    matchPos = cand;
                    if (best >= nice)
                        break;
                }
            }
            cand = chain_[cand];
        }
        if (best < nice && scan != kNil &&
            scan != static_cast<std::uint32_t>(pos) &&
            pos - scan <= kWindow) {
            const std::uint8_t *a = raw_ + scan;
            const std::uint8_t *b = raw_ + pos;
            if (a[best] == b[best]) {
                const std::size_t len = matchExtent(a, b, limit);
                if (len > best) {
                    best = len;
                    matchPos = scan;
                }
            }
        }
        return best >= kMinMatch ? best : 0;
    }

  private:
    const std::uint8_t *raw_;
    std::size_t n_;
    std::size_t inserted_ = 0;
    std::vector<std::uint32_t> head_;
    std::vector<std::uint32_t> scanHead_;
    std::vector<std::uint32_t> chain_;
};

/**
 * Tokenize @p data[start, total) into @p out (which already carries
 * the LEB raw-size header, so a recorded flag position is never 0).
 * Positions [0, start) are the preset dictionary: they are indexed as
 * match candidates but emit nothing, which is the whole dictionary
 * mechanism — with start == 0 this is the original single-buffer
 * compressor, byte for byte.
 */
void
compressBody(const std::uint8_t *data, std::size_t total,
             std::size_t start, Blob &out)
{
    MatchFinder mf(data, total);
    mf.insertUpTo(start);

    std::size_t flagPos = 0;
    unsigned flagBit = 8; // force new flag byte on first item
    std::uint8_t flags = 0;

    auto beginItem = [&](bool isMatch) {
        if (flagBit == 8) {
            if (flagPos)
                out[flagPos] = flags;
            flagPos = out.size();
            out.push_back(0);
            flags = 0;
            flagBit = 0;
        }
        if (isMatch)
            flags |= static_cast<std::uint8_t>(1u << flagBit);
        ++flagBit;
    };

    std::size_t i = start;
    while (i < total) {
        std::size_t matchPos = 0;
        std::size_t matchLen = mf.findAndInsert(i, matchPos);
        if (!matchLen) {
            beginItem(false);
            out.push_back(data[i]);
            ++i;
            continue;
        }
        // Lazy matching: when the next position starts a strictly
        // longer match, emit this byte as a literal and slide
        // forward. A nice-length match is taken as-is — the probe
        // rarely beats it and costs a full chain walk.
        while (matchLen < kNiceMatch && i + 1 < total) {
            std::size_t nextPos = 0;
            const std::size_t nextLen = mf.findAndInsert(i + 1, nextPos);
            if (nextLen <= matchLen)
                break;
            beginItem(false);
            out.push_back(data[i]);
            ++i;
            matchLen = nextLen;
            matchPos = nextPos;
        }
        beginItem(true);
        const std::size_t off = i - matchPos;
        out.push_back(static_cast<std::uint8_t>(off));
        out.push_back(static_cast<std::uint8_t>(off >> 8));
        out.push_back(static_cast<std::uint8_t>(matchLen - kMinMatch));
        mf.insertForMatch(i, matchLen);
        i += matchLen;
    }
    if (flagPos)
        out[flagPos] = flags;
}

/**
 * Compress @p n bytes at @p raw primed with @p dict (its last 64KB —
 * deeper bytes are unreachable through 16-bit offsets anyway). The
 * dictionary is staged in front of the payload in one scratch buffer
 * so the match finder sees a single address space.
 */
Blob
compressWithDict(const std::uint8_t *raw, std::size_t n, ByteSpan dict)
{
    Blob out;
    out.reserve(n / 2 + 16);
    putLeb(out, n);
    const std::size_t dictUse = std::min(dict.size, kWindow);
    if (!dictUse) {
        compressBody(raw, n, 0, out);
        return out;
    }
    Blob cat(dictUse + n);
    std::memcpy(cat.data(), dict.data + (dict.size - dictUse), dictUse);
    if (n)
        std::memcpy(cat.data() + dictUse, raw, n);
    compressBody(cat.data(), cat.size(), dictUse, out);
    return out;
}

} // namespace

Blob
zipCompress(const Blob &raw)
{
    if (failpointsArmed()) {
        const FailpointOutcome o = failpointFire("codec.compress");
        if (o.fail)
            throw std::runtime_error(
                "zip: injected encode fault (codec.compress)");
    }
    return compressWithDict(raw.data(), raw.size(), ByteSpan());
}

Blob
zipDecompress(const Blob &compressed)
{
    Blob out;
    zipDecompressInto(compressed.data(), compressed.size(), out);
    return out;
}

void
zipDecompressInto(const Blob &compressed, Blob &out)
{
    zipDecompressInto(compressed.data(), compressed.size(), out);
}

namespace
{

/**
 * Overlap-safe match copy: writes exactly @p len bytes at @p dst from
 * @p off bytes behind it. Non-overlapping matches are one memcpy.
 * off == 1 (the dominant RLE encoding) is a memset. Other overlapping
 * offsets use a doubling copy: every chunk is bounded by the current
 * cursor distance, so each memcpy is non-overlapping and the distance
 * doubles per round — an off-2..4 RLE run costs O(log(len/off))
 * word-wide copies instead of the old one-byte-at-a-time loop.
 */
inline void
copyMatch(std::uint8_t *dst, std::size_t off, std::size_t len)
{
    const std::uint8_t *src = dst - off;
    if (off >= len) {
        std::memcpy(dst, src, len);
        return;
    }
    if (off == 1) {
        std::memset(dst, *src, len);
        return;
    }
    while (len) {
        const std::size_t chunk =
            std::min(len, static_cast<std::size_t>(dst - src));
        std::memcpy(dst, src, chunk);
        dst += chunk;
        len -= chunk;
    }
}

/**
 * Worst-case expansion of one input byte, rounded up: a full group of
 * 8 match tokens turns 25 input bytes (flag + 8x3) into at most
 * 8 * kMaxMatch output bytes, ~82.9 output per input. A header
 * promising more than the remaining input could ever produce is
 * malformed; rejecting it before the output allocation keeps crafted
 * headers from forcing a giant buffer.
 */
constexpr std::uint64_t kMaxExpansionPerByte = 83;

/**
 * Copy @p len match bytes at @p op for an offset reaching @p fromDict
 * bytes into the preset dictionary's tail: the dictionary part is a
 * straight copy (dictionary and output never overlap), any remainder
 * continues from the start of the output region. Out-of-line — the
 * hot loops only pay a compare for it on dictionary-free streams.
 */
inline std::uint8_t *
copyMatchFromDict(std::uint8_t *op, std::uint8_t *obase, ByteSpan dict,
                  std::size_t fromDict, std::size_t len)
{
    if (fromDict > dict.size)
        throw std::runtime_error("zip: bad match offset");
    const std::size_t n1 = std::min(len, fromDict);
    std::memcpy(op, dict.data + (dict.size - fromDict), n1);
    op += n1;
    if (len > n1) {
        copyMatch(op, static_cast<std::size_t>(op - obase), len - n1);
        op += len - n1;
    }
    return op;
}

/**
 * Decode the token stream at @p compressed[pos, size) into the
 * @p rawSize-byte region at @p obase, with @p dict priming the match
 * window. The batched hot path: whole flag groups with hoisted bounds
 * checks, then a strict per-token tail.
 */
LP_DECODER_ENTRY void
decodeBody(const std::uint8_t *compressed, std::size_t size,
           std::size_t pos, std::uint8_t *obase, std::size_t rawSize,
           ByteSpan dict)
{
    const std::uint8_t *ip = compressed + pos;
    const std::uint8_t *const iend = compressed + size;
    std::uint8_t *op = obase;
    std::uint8_t *const oend = obase + rawSize;

    // Fast path: while a worst-case token group fits the remaining
    // input (flag + 8 match tokens + 8-byte literal-copy slack) and
    // output (8 maximum matches), whole groups decode with the bounds
    // checks hoisted to this one loop condition. The margins license
    // fixed 8-byte literal copies that scribble past the run — every
    // scribbled output byte is overwritten by a later token before the
    // margin shrinks below one group, and the input slack keeps the
    // 8-byte read inside the buffer even when a short literal run
    // trails seven match tokens.
    while (iend - ip >= 1 + 8 * 3 + 8 &&
           oend - op >= static_cast<std::ptrdiff_t>(8 * kMaxMatch)) {
        const unsigned flags = *ip++;
        if (flags == 0) {
            // All 8 items literal: one word-wide copy.
            std::memcpy(op, ip, 8);
            op += 8;
            ip += 8;
            continue;
        }
        unsigned b = 0;
        while (b < 8) {
            if (!((flags >> b) & 1u)) {
                // Batch the run of consecutive literal bits into one
                // copy (8 bytes stored, run-length consumed).
#if defined(__GNUC__) || defined(__clang__)
                const unsigned run = static_cast<unsigned>(
                    __builtin_ctz((flags >> b) | (1u << (8 - b))));
#else
                unsigned run = 0;
                while (b + run < 8 && !((flags >> (b + run)) & 1u))
                    ++run;
#endif
                std::memcpy(op, ip, 8);
                op += run;
                ip += run;
                b += run;
                continue;
            }
            const std::size_t off =
                static_cast<std::size_t>(ip[0]) |
                (static_cast<std::size_t>(ip[1]) << 8);
            const std::size_t len =
                static_cast<std::size_t>(ip[2]) + kMinMatch;
            ip += 3;
            if (off == 0)
                throw std::runtime_error("zip: bad match offset");
            if (off > static_cast<std::size_t>(op - obase)) {
                op = copyMatchFromDict(
                    op, obase, dict,
                    off - static_cast<std::size_t>(op - obase), len);
            } else {
                copyMatch(op, off, len);
                op += len;
            }
            ++b;
        }
    }

    // Strict tail: per-token checks, token-for-token the reference
    // semantics. The fast path only consumes whole flag groups, so
    // the tail always resumes at a flag-byte boundary.
    std::size_t tpos = static_cast<std::size_t>(ip - compressed);
    std::uint8_t flags = 0;
    unsigned flagBit = 8;
    while (op < oend) {
        if (flagBit == 8) {
            if (tpos >= size)
                throw std::runtime_error("zip: truncated stream");
            flags = compressed[tpos++];
            flagBit = 0;
        }
        const bool isMatch = (flags >> flagBit) & 1;
        ++flagBit;
        if (isMatch) {
            if (tpos + 3 > size)
                throw std::runtime_error("zip: truncated match");
            const std::size_t off =
                static_cast<std::size_t>(compressed[tpos]) |
                (static_cast<std::size_t>(compressed[tpos + 1]) << 8);
            const std::size_t len =
                static_cast<std::size_t>(compressed[tpos + 2]) +
                kMinMatch;
            tpos += 3;
            if (off == 0)
                throw std::runtime_error("zip: bad match offset");
            if (len > static_cast<std::size_t>(oend - op))
                throw std::runtime_error("zip: size mismatch");
            if (off > static_cast<std::size_t>(op - obase)) {
                op = copyMatchFromDict(
                    op, obase, dict,
                    off - static_cast<std::size_t>(op - obase), len);
            } else {
                copyMatch(op, off, len);
                op += len;
            }
        } else {
            if (tpos >= size)
                throw std::runtime_error("zip: truncated literal");
            *op++ = compressed[tpos++];
        }
    }
}

} // namespace

void
zipDecompressInto(const std::uint8_t *compressed, std::size_t size,
                  Blob &out)
{
    // Fault-injection site at the record boundary (never inside the
    // token loop): an armed `codec.decompress` makes this record
    // decode fail exactly like a corrupt stream would, so the layers
    // above prove they contain a bad record instead of aborting.
    if (failpointsArmed()) {
        const FailpointOutcome o = failpointFire("codec.decompress");
        if (o.fail)
            throw std::runtime_error(
                "zip: injected decode fault (codec.decompress)");
    }
    std::size_t pos = 0;
    const std::uint64_t rawSize = getLeb(compressed, size, pos);
    if (rawSize > (size - pos) * kMaxExpansionPerByte + 8 * kMaxMatch)
        throw std::runtime_error("zip: truncated stream");
    // One up-front size: the body writes through raw cursors, no
    // per-literal push_back. On a recycled buffer only the growth
    // delta (if any) is value-initialized.
    out.resize(rawSize);
    decodeBody(compressed, size, pos, out.data(), rawSize, ByteSpan());
}

namespace
{

/**
 * The reference decoder with @p dict priming its window: match offsets
 * reaching past the produced output resolve against the dictionary's
 * tail, one byte at a time. Plain streams pass an empty @p dict; delta
 * chunks pass their predecessor region.
 */
LP_DECODER_ENTRY void
referenceDecode(const std::uint8_t *compressed, std::size_t size,
                Blob &out, ByteSpan dict)
{
    std::size_t pos = 0;
    const std::uint64_t rawSize = getLeb(compressed, size, pos);
    out.clear();
    out.reserve(rawSize);

    std::uint8_t flags = 0;
    unsigned flagBit = 8;
    while (out.size() < rawSize) {
        if (flagBit == 8) {
            if (pos >= size)
                throw std::runtime_error("zip: truncated stream");
            flags = compressed[pos++];
            flagBit = 0;
        }
        const bool isMatch = (flags >> flagBit) & 1;
        ++flagBit;
        if (isMatch) {
            if (pos + 3 > size)
                throw std::runtime_error("zip: truncated match");
            const std::size_t off =
                static_cast<std::size_t>(compressed[pos]) |
                (static_cast<std::size_t>(compressed[pos + 1]) << 8);
            const std::size_t len =
                static_cast<std::size_t>(compressed[pos + 2]) + kMinMatch;
            pos += 3;
            const std::size_t dst = out.size();
            if (off == 0 || off > dst + dict.size)
                throw std::runtime_error("zip: bad match offset");
            out.resize(dst + len);
            if (off > dst) {
                // Reaches into the preset dictionary's tail: resolve
                // each byte against the virtual [dict | out] stream.
                for (std::size_t k = 0; k < len; ++k) {
                    const std::size_t vdst = dst + k;
                    out[vdst] = vdst >= off
                                    ? out[vdst - off]
                                    : dict.data[dict.size - (off - vdst)];
                }
            } else if (off >= len) {
                std::memcpy(&out[dst], &out[dst - off], len);
            } else {
                // Overlapping match (RLE-style): copy forward so each
                // byte reads one already written.
                for (std::size_t k = 0; k < len; ++k)
                    out[dst + k] = out[dst - off + k];
            }
        } else {
            if (pos >= size)
                throw std::runtime_error("zip: truncated literal");
            out.push_back(compressed[pos++]);
        }
    }
    if (out.size() != rawSize)
        throw std::runtime_error("zip: size mismatch");
}

} // namespace

void
zipDecompressReferenceInto(const std::uint8_t *compressed,
                           std::size_t size, Blob &out)
{
    referenceDecode(compressed, size, out, ByteSpan());
}

namespace
{

// Delta streams chunk the payload so every chunk plus its preset
// window fits the 16-bit offset reach: a 32KB chunk primed with up to
// 48KB of the predecessor keeps the whole window addressable from the
// first chunk byte. The pad absorbs section drift between successive
// points (variable-length sections shift later ones by a few KB).
constexpr std::size_t kDeltaChunk = 32768;
constexpr std::size_t kDeltaPad = 8192;

/**
 * The predecessor region priming the chunk at @p chunkStart:
 * proportionally aligned (global size drift between points shifts
 * sections roughly linearly) and padded both ways. Integer math only
 * — encoder and decoder must agree bit-for-bit.
 */
ByteSpan
deltaDict(ByteSpan prev, std::size_t chunkStart, std::size_t rawSize)
{
    if (prev.empty())
        return ByteSpan();
    const std::size_t center =
        rawSize ? static_cast<std::size_t>(
                      (static_cast<std::uint64_t>(chunkStart) *
                       prev.size) /
                      rawSize)
                : 0;
    const std::size_t lo = center > kDeltaPad ? center - kDeltaPad : 0;
    const std::size_t hi =
        std::min(prev.size, center + kDeltaChunk + kDeltaPad);
    return ByteSpan(prev.data + lo, hi - lo);
}

std::size_t
deltaChunkCount(std::size_t rawSize)
{
    return (rawSize + kDeltaChunk - 1) / kDeltaChunk;
}

} // namespace

Blob
zipCompressDelta(const Blob &raw, ByteSpan prevRaw)
{
    if (failpointsArmed()) {
        const FailpointOutcome o = failpointFire("codec.compress");
        if (o.fail)
            throw std::runtime_error(
                "zip: injected encode fault (codec.compress)");
    }
    const std::size_t n = raw.size();
    const std::size_t chunks = deltaChunkCount(n);
    std::vector<Blob> streams;
    streams.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
        const std::size_t start = c * kDeltaChunk;
        const std::size_t len = std::min(kDeltaChunk, n - start);
        streams.push_back(compressWithDict(raw.data() + start, len,
                                           deltaDict(prevRaw, start, n)));
    }
    Blob out;
    out.reserve(n / 2 + 16);
    putLeb(out, n);
    putLeb(out, chunks);
    for (const Blob &s : streams)
        putLeb(out, s.size());
    for (const Blob &s : streams)
        out.insert(out.end(), s.begin(), s.end());
    return out;
}

namespace
{

/**
 * Shared header walk for both delta decoders: validates the raw size
 * against the expansion bound, the chunk count against the raw size,
 * and every chunk's compressed extent against the remaining input.
 * Returns the chunk sizes and leaves @p pos at the first stream byte.
 */
std::uint64_t
parseDeltaHeader(const std::uint8_t *compressed, std::size_t size,
                 std::size_t &pos, std::vector<std::size_t> &chunkSizes)
{
    const std::uint64_t rawSize = getLeb(compressed, size, pos);
    const std::uint64_t chunks = getLeb(compressed, size, pos);
    // Every chunk needs at least one header byte, so the count is
    // bounded by the input size — check that before trusting it in
    // the expansion bound (per-chunk slack: each chunk stream carries
    // its own header and strict tail).
    if (chunks > size)
        throw std::runtime_error("zip: truncated stream");
    if (chunks != deltaChunkCount(rawSize))
        throw std::runtime_error("zip: bad delta chunk count");
    if (rawSize > size * kMaxExpansionPerByte +
                      (chunks + 1) * 8 * kMaxMatch)
        throw std::runtime_error("zip: truncated stream");
    chunkSizes.clear();
    chunkSizes.reserve(static_cast<std::size_t>(chunks));
    std::uint64_t total = 0;
    for (std::uint64_t c = 0; c < chunks; ++c) {
        const std::uint64_t s = getLeb(compressed, size, pos);
        total += s;
        chunkSizes.push_back(static_cast<std::size_t>(s));
    }
    if (total > size - pos)
        throw std::runtime_error("zip: truncated stream");
    return rawSize;
}

} // namespace

void
zipDecompressDeltaInto(const std::uint8_t *compressed, std::size_t size,
                       ByteSpan prevRaw, Blob &out)
{
    if (failpointsArmed()) {
        const FailpointOutcome o = failpointFire("codec.decompress");
        if (o.fail)
            throw std::runtime_error(
                "zip: injected decode fault (codec.decompress)");
    }
    std::size_t pos = 0;
    std::vector<std::size_t> chunkSizes;
    const std::uint64_t rawSize =
        parseDeltaHeader(compressed, size, pos, chunkSizes);
    out.resize(rawSize);
    for (std::size_t c = 0; c < chunkSizes.size(); ++c) {
        const std::size_t start = c * kDeltaChunk;
        const std::size_t expect =
            std::min(kDeltaChunk, static_cast<std::size_t>(rawSize) -
                                      start);
        std::size_t cpos = pos;
        const std::uint64_t crs =
            getLeb(compressed, pos + chunkSizes[c], cpos);
        if (crs != expect)
            throw std::runtime_error("zip: delta chunk size mismatch");
        decodeBody(compressed, pos + chunkSizes[c], cpos,
                   out.data() + start, expect,
                   deltaDict(prevRaw, start, rawSize));
        pos += chunkSizes[c];
    }
}

void
zipDecompressDeltaReferenceInto(const std::uint8_t *compressed,
                                std::size_t size, ByteSpan prevRaw,
                                Blob &out)
{
    std::size_t pos = 0;
    std::vector<std::size_t> chunkSizes;
    const std::uint64_t rawSize =
        parseDeltaHeader(compressed, size, pos, chunkSizes);
    out.clear();
    out.reserve(rawSize);
    Blob chunk;
    for (std::size_t c = 0; c < chunkSizes.size(); ++c) {
        const std::size_t start = c * kDeltaChunk;
        const std::size_t expect =
            std::min(kDeltaChunk, static_cast<std::size_t>(rawSize) -
                                      start);
        referenceDecode(compressed + pos, chunkSizes[c], chunk,
                        deltaDict(prevRaw, start, rawSize));
        if (chunk.size() != expect)
            throw std::runtime_error("zip: delta chunk size mismatch");
        out.insert(out.end(), chunk.begin(), chunk.end());
        pos += chunkSizes[c];
    }
    if (out.size() != rawSize)
        throw std::runtime_error("zip: size mismatch");
}

} // namespace lp

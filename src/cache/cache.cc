#include "cache/cache.hh"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "util/log.hh"

namespace lp
{

namespace
{

/**
 * Find the way holding @p tag in a set, or -1. A way counts only if
 * occupied (stamp != 0): an empty way's stale tag must never hit —
 * warm-state reconstruction can legally install a line whose address
 * collides with leftover tag bits.
 */
inline int
findHitWay(const Addr *tags, const std::uint64_t *stamps, unsigned assoc,
           Addr tag)
{
    unsigned w = 0;
#if defined(__SSE2__)
    // Two 64-bit ways per vector: equality via 32-bit compares ANDed
    // with their lane-swapped halves. Resident tags are unique, so
    // reporting the first hit lane is exact.
    const __m128i vtag = _mm_set1_epi64x(static_cast<long long>(tag));
    const __m128i zero = _mm_setzero_si128();
    for (; w + 2 <= assoc; w += 2) {
        __m128i eq = _mm_cmpeq_epi32(
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(tags + w)),
            vtag);
        eq = _mm_and_si128(eq,
                           _mm_shuffle_epi32(eq, _MM_SHUFFLE(2, 3, 0, 1)));
        __m128i empty = _mm_cmpeq_epi32(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(stamps + w)),
            zero);
        empty = _mm_and_si128(
            empty, _mm_shuffle_epi32(empty, _MM_SHUFFLE(2, 3, 0, 1)));
        const int mask = _mm_movemask_epi8(_mm_andnot_si128(empty, eq));
        if (mask)
            return static_cast<int>(w) + ((mask & 0x00ff) ? 0 : 1);
    }
#endif
    for (; w < assoc; ++w)
        if (tags[w] == tag && stamps[w] != 0)
            return static_cast<int>(w);
    return -1;
}

} // namespace

CacheModel::CacheModel(const CacheGeometry &geom, std::string name)
    : geom_(geom), name_(std::move(name))
{
    nsets_ = std::max<std::uint64_t>(geom_.numSets(), 1);
    assoc_ = std::max(geom_.assoc, 1u);
    const std::uint64_t line = geom_.lineBytes;
    pow2_ = line != 0 && (line & (line - 1)) == 0 &&
            (nsets_ & (nsets_ - 1)) == 0;
    if (pow2_) {
        while ((std::uint64_t(1) << lineShift_) != line)
            ++lineShift_;
        setMask_ = nsets_ - 1;
    }
    const std::size_t ways = nsets_ * assoc_;
    tags_.resize(ways, 0);
    stamps_.resize(ways, 0);
    dirty_.resize(ways, 0);
}

inline std::uint64_t
CacheModel::setOf(Addr a) const
{
    return pow2_ ? (a >> lineShift_) & setMask_
                 : (a / geom_.lineBytes) % nsets_;
}

inline Addr
CacheModel::tagOf(Addr a) const
{
    return pow2_ ? a >> lineShift_ << lineShift_
                 : a - a % geom_.lineBytes;
}

AccessResult
CacheModel::access(Addr a, bool write)
{
    const Addr tag = tagOf(a);
    const std::size_t base = setOf(a) * assoc_;
    Addr *tags = tags_.data() + base;
    std::uint64_t *stamps = stamps_.data() + base;
    ++clock_;
    AccessResult res;

    const int hit = findHitWay(tags, stamps, assoc_, tag);
    if (hit >= 0) {
        stamps[hit] = clock_;
        dirty_[base + hit] |= static_cast<std::uint8_t>(write);
        res.hit = true;
        return res;
    }

    // Miss: the victim is the minimum stamp. Empty ways carry stamp
    // zero, so they fill first in way order — the same fill order and
    // same LRU victim (first minimum) as the original scan, keeping
    // reconstructed states bit-identical. Stamps are unique, so the
    // strictly-less select is branch-predictor friendly.
    unsigned victim = 0;
    std::uint64_t best = stamps[0];
    for (unsigned w = 1; w < assoc_; ++w) {
        const bool lt = stamps[w] < best;
        victim = lt ? w : victim;
        best = lt ? stamps[w] : best;
    }
    res.writeback = best != 0 && dirty_[base + victim] != 0;
    tags[victim] = tag;
    stamps[victim] = clock_;
    dirty_[base + victim] = static_cast<std::uint8_t>(write);
    return res;
}

bool
CacheModel::probe(Addr a) const
{
    const Addr tag = tagOf(a);
    const std::size_t base = setOf(a) * assoc_;
    return findHitWay(tags_.data() + base, stamps_.data() + base, assoc_,
                      tag) >= 0;
}

void
CacheModel::reset()
{
    // Zeroing the stamp plane alone empties every way; tags and dirty
    // bits of empty ways are never read.
    std::memset(stamps_.data(), 0, stamps_.size() * sizeof(stamps_[0]));
    clock_ = 0;
}

void
CacheModel::installLines(const std::uint64_t *packed, std::size_t n)
{
    reset();
    nextWay_.assign(nsets_, 0);
    const std::uint64_t lineBytes = geom_.lineBytes;
    // Line numbers up to this bound have an address that fits 64
    // bits; past it, access() would see the wrapped address, so the
    // rare slow path derives set and tag from that address the same
    // way.
    const std::uint64_t noWrap = ~std::uint64_t(0) / lineBytes;
    const bool pow2Sets = (nsets_ & (nsets_ - 1)) == 0;
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t line = packed[i] >> 1;
        Addr tag = line * lineBytes;
        std::uint64_t set;
        if (line <= noWrap) {
            set = pow2Sets ? line & (nsets_ - 1) : line % nsets_;
        } else {
            set = setOf(tag);
            tag -= tag % lineBytes;
        }
        unsigned &next = nextWay_[set];
        const std::size_t idx = set * assoc_ + next;
        next = next + 1 == assoc_ ? 0 : next + 1;
        tags_[idx] = tag;
        stamps_[idx] = i + 1;
        dirty_[idx] = static_cast<std::uint8_t>(packed[i] & 1);
    }
    clock_ = n;
}

std::vector<CacheLine>
CacheModel::linesOfSet(std::uint64_t set) const
{
    std::vector<CacheLine> lines;
    lines.reserve(assoc_);
    const std::size_t base = set * assoc_;
    for (unsigned w = 0; w < assoc_; ++w)
        if (stamps_[base + w] != 0)
            lines.push_back(CacheLine{tags_[base + w], stamps_[base + w],
                                      dirty_[base + w] != 0});
    return lines;
}

std::uint64_t
CacheModel::residentLines() const
{
    std::uint64_t n = 0;
    for (const std::uint64_t s : stamps_)
        n += s != 0;
    return n;
}

void
CacheModel::copyStateFrom(const CacheModel &o)
{
    if (geom_ != o.geom_)
        throw std::runtime_error("CacheModel::copyStateFrom: geometry");
    std::memcpy(tags_.data(), o.tags_.data(),
                tags_.size() * sizeof(tags_[0]));
    std::memcpy(stamps_.data(), o.stamps_.data(),
                stamps_.size() * sizeof(stamps_[0]));
    std::memcpy(dirty_.data(), o.dirty_.data(), dirty_.size());
    clock_ = o.clock_;
}

} // namespace lp

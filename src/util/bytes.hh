/**
 * @file
 * The byte-level primitives every on-disk and on-wire container
 * shares: little-endian u64 fields and the 64-bit FNV-1a checksum.
 * LPLIB, the atomic-file footer and the service's socket frames all
 * lay their fixed-width fields down with these, so one definition
 * fixes the byte order of every format. fnv1aEach() is
 * the same checksum over many buffers, several at a time.
 */

#ifndef LP_UTIL_BYTES_HH
#define LP_UTIL_BYTES_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "util/types.hh"

namespace lp
{

/** Store @p v at @p out as 8 little-endian bytes. */
inline void
putU64le(std::uint8_t *out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/** Load 8 little-endian bytes from @p in. */
inline std::uint64_t
getU64le(const std::uint8_t *in)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[i]) << (8 * i);
    return v;
}

inline constexpr std::uint64_t fnv1aBasis = 0xcbf29ce484222325ull;
inline constexpr std::uint64_t fnv1aPrime = 0x100000001b3ull;

/** 64-bit FNV-1a of @p size bytes at @p data. */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = fnv1aBasis;
    for (std::size_t i = 0; i < size; ++i)
        h = (h ^ data[i]) * fnv1aPrime;
    return h;
}

/**
 * out[i] = fnv1a(bufs[i]) for each of the @p n buffers. One FNV-1a
 * chain waits on a multiply per byte; four interleaved lanes keep four
 * chains in flight. A lane whose buffer ends takes the next one, and
 * the last (at most three) buffers finish one at a time.
 */
inline void
fnv1aEach(const ByteSpan *bufs, std::size_t n, std::uint64_t *out)
{
    constexpr unsigned kLanes = 4;
    const std::uint8_t *p[kLanes] = {};
    std::size_t left[kLanes] = {};
    std::size_t buf[kLanes] = {};
    std::uint64_t h[kLanes] = {};
    std::size_t next = 0;
    // Give lane @p l the next nonempty buffer; false when none is left.
    auto refill = [&](unsigned l) {
        for (; next < n; ++next) {
            if (bufs[next].size == 0) {
                out[next] = fnv1aBasis;
                continue;
            }
            p[l] = bufs[next].data;
            left[l] = bufs[next].size;
            buf[l] = next++;
            h[l] = fnv1aBasis;
            return true;
        }
        return false;
    };
    unsigned lanes = 0;
    while (lanes < kLanes && refill(lanes))
        ++lanes;
    bool full = lanes == kLanes;
    while (full) {
        const std::size_t m =
            std::min(std::min(left[0], left[1]), std::min(left[2], left[3]));
        // Locals, so the four chains stay in registers.
        const std::uint8_t *p0 = p[0], *p1 = p[1], *p2 = p[2], *p3 = p[3];
        std::uint64_t h0 = h[0], h1 = h[1], h2 = h[2], h3 = h[3];
        for (std::size_t i = 0; i < m; ++i) {
            h0 = (h0 ^ p0[i]) * fnv1aPrime;
            h1 = (h1 ^ p1[i]) * fnv1aPrime;
            h2 = (h2 ^ p2[i]) * fnv1aPrime;
            h3 = (h3 ^ p3[i]) * fnv1aPrime;
        }
        h[0] = h0;
        h[1] = h1;
        h[2] = h2;
        h[3] = h3;
        for (unsigned l = 0; l < kLanes; ++l) {
            p[l] += m;
            left[l] -= m;
            if (left[l] == 0) {
                out[buf[l]] = h[l];
                full = refill(l) && full;
            }
        }
    }
    for (unsigned l = 0; l < lanes; ++l) {
        if (left[l] == 0)
            continue;
        for (std::size_t i = 0; i < left[l]; ++i)
            h[l] = (h[l] ^ p[l][i]) * fnv1aPrime;
        out[buf[l]] = h[l];
    }
}

} // namespace lp

#endif // LP_UTIL_BYTES_HH

/**
 * @file
 * The byte-level primitives every on-disk and on-wire container
 * shares: little-endian u64 fields and the 64-bit FNV-1a checksum.
 * LPLIB, LPRES1, the atomic-file footer and the service's socket
 * frames all lay their fixed-width fields down with these, so one
 * definition fixes the byte order of every format.
 */

#ifndef LP_UTIL_BYTES_HH
#define LP_UTIL_BYTES_HH

#include <cstddef>
#include <cstdint>

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

/** 64-bit FNV-1a of @p size bytes at @p data. */
inline std::uint64_t
fnv1a(const std::uint8_t *data, std::size_t size)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < size; ++i)
        h = (h ^ data[i]) * 0x100000001b3ull;
    return h;
}

} // namespace lp

#endif // LP_UTIL_BYTES_HH

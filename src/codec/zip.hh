/**
 * @file
 * Block compressor for live-point payloads. A self-contained LZSS
 * variant (64KB window, hash-chain match finding with lazy matching):
 * no external library dependency, deterministic output across
 * platforms, and effective on the structured tag/counter payloads
 * live-points are made of. The token format has been stable since the
 * first library release, so any decompressor reads any library.
 *
 * Cross-point redundancy is exploited through the same token format:
 * a *delta stream* compresses a buffer in fixed chunks, each primed
 * with the proportionally-aligned region of the predecessor buffer as
 * a preset window (matches may reach back past the start of the chunk
 * into that region) — successive live-points share most of their warm
 * state, and the primed window turns that sharing into match tokens
 * without any new token kinds. Each chunk stream is an ordinary token
 * stream, so the plain and delta decoders share one body.
 */

#ifndef LP_CODEC_ZIP_HH
#define LP_CODEC_ZIP_HH

#include <cstddef>

#include "util/types.hh"

namespace lp
{

/** Compress a buffer. The result is self-describing. */
Blob zipCompress(const Blob &raw);

/**
 * Decompress a buffer produced by zipCompress(). Throws
 * std::runtime_error on malformed input.
 */
Blob zipDecompress(const Blob &compressed);

/**
 * Decompress into @p out, reusing its storage (cleared first). The
 * decode-pipeline hot path: a recycled buffer large enough for the
 * library's points makes decompression allocation-free.
 */
void zipDecompressInto(const Blob &compressed, Blob &out);

/**
 * As above, reading the compressed record from a borrowed buffer —
 * the zero-copy path a memory-mapped-style library container feeds.
 */
void zipDecompressInto(const std::uint8_t *compressed, std::size_t size,
                       Blob &out);

/**
 * Reference scalar decompressor: the original flag-bit/byte-at-a-time
 * loop, retained verbatim as the oracle for the differential fuzz leg
 * and for the decode-throughput speedup ratio in bench/ablation_hotpath.
 * Accepts exactly the inputs zipDecompressInto() accepts and produces
 * byte-identical output; both throw on the same malformed inputs.
 */
void zipDecompressReferenceInto(const std::uint8_t *compressed,
                                std::size_t size, Blob &out);

/**
 * Delta-compress @p raw against the predecessor buffer @p prevRaw.
 * The buffer is split into fixed 32KB chunks; each chunk is an
 * ordinary token stream primed with the proportionally-aligned
 * region of @p prevRaw as a preset window, so shared content between
 * successive live-points becomes match tokens even when sections
 * drift by a few KB. Layout: [LEB raw size][LEB chunk count]
 * [LEB compressed size per chunk][chunk streams back-to-back]; each
 * chunk stream is self-describing and reference-decodable. Decoding
 * requires the byte-exact @p prevRaw.
 */
Blob zipCompressDelta(const Blob &raw, ByteSpan prevRaw);

/**
 * Expand a zipCompressDelta() stream given the predecessor's raw
 * bytes. Throws std::runtime_error on malformed input; a wrong
 * @p prevRaw yields wrong bytes or a clean throw, never out-of-bounds
 * access (the library layer's per-record checksum makes mismatches
 * fail loudly).
 */
void zipDecompressDeltaInto(const std::uint8_t *compressed,
                            std::size_t size, ByteSpan prevRaw,
                            Blob &out);

/** Reference (oracle) expansion of a delta stream. */
void zipDecompressDeltaReferenceInto(const std::uint8_t *compressed,
                                     std::size_t size, ByteSpan prevRaw,
                                     Blob &out);

} // namespace lp

#endif // LP_CODEC_ZIP_HH

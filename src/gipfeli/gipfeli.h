/**
 * @file
 * GipfeliLite: a high-speed lightweight codec with simple entropy
 * coding, structurally following Gipfeli (Lenhardt & Alakuijala,
 * DCC'12; the paper's Section 2.2 taxonomy: "LZ77-inspired, simple
 * entropy coding, fixed 64 KiB window, no compression levels").
 *
 * Literals use a three-class prefix code built from sampled symbol
 * statistics: the 32 most frequent bytes cost 6 bits ('0' + 5), the
 * next 64 cost 8 bits ('10' + 6), everything else 10 bits ('11' + 8).
 * Matches carry a 6-bit length (4..67, longer matches split) and a
 * 16-bit offset. This completes the repository's coverage of the
 * fleet's implemented-from-scratch algorithms (Snappy, ZStd, Flate,
 * Gipfeli); Brotli and LZO appear only statistically in the fleet
 * model (DESIGN.md §2).
 *
 * Frame: magic "ZGP1" | varint contentSize | 32 class-A bytes |
 * 64 class-B bytes | varint streamBytes | bitstream. Stream elements:
 * flag 0 -> literal run: 5-bit count-1 (1..32 literals) then coded
 * literals; flag 1 -> copy: 6-bit length-4 + 16-bit offset.
 */

#ifndef CDPU_GIPFELI_GIPFELI_H_
#define CDPU_GIPFELI_GIPFELI_H_

#include "common/bitio.h"
#include "common/error.h"
#include "common/types.h"
#include "lz77/fast_parse.h"

namespace cdpu::gipfeli
{

inline constexpr std::array<u8, 4> kMagic = {'Z', 'G', 'P', '1'};
inline constexpr std::size_t kWindowSize = 64 * kKiB;
inline constexpr u32 kMinMatch = 4;
inline constexpr u32 kMaxMatch = 67;
inline constexpr std::size_t kMaxLiteralRun = 32;

/** Compresses @p input (no levels — Gipfeli has none). */
Bytes compress(ByteSpan input);

/** Decompresses; never crashes on corrupt input. */
Result<Bytes> decompress(ByteSpan data);

/** What a gipfeli compress rebuilds beside its parse, kept across
 *  calls: the bitstream, written before its length is known. */
struct Scratch
{
    BitWriter stream;
};

/**
 * Context-reuse variant of compress(): emits into @p out, clearing it
 * first but keeping its capacity (see snappy::compressInto), and
 * builds its parse and bitstream in @p parse and @p scratch.
 */
void compressInto(ByteSpan input, Bytes &out, lz77::ParseScratch &parse,
                  Scratch &scratch);

/** compressInto() on a parse and a scratch of its own. */
void compressInto(ByteSpan input, Bytes &out);

/**
 * Context-reuse variant of decompress(): decodes into @p out, clearing
 * it first but keeping its capacity. On error @p out is left in an
 * unspecified (but valid) state.
 */
Status decompressInto(ByteSpan data, Bytes &out);

} // namespace cdpu::gipfeli

#endif // CDPU_GIPFELI_GIPFELI_H_

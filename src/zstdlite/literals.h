/**
 * @file
 * Literals-section encode/decode (raw / RLE / Huffman-compressed).
 */

#ifndef CDPU_ZSTDLITE_LITERALS_H_
#define CDPU_ZSTDLITE_LITERALS_H_

#include "common/bitio.h"
#include "huffman/decoder.h"
#include "zstdlite/format.h"

namespace cdpu::zstdlite
{

/** What the literals section rebuilds per block, kept across blocks
 *  and calls: each member is rebuilt in place, its capacity kept. */
struct LiteralsScratch
{
    huffman::CodeTable code; ///< The block's Huffman code.
    huffman::Decoder decoder;
    BitWriter stream; ///< Encode: the Huffman bitstream.
    Bytes bytes;      ///< Decode: RLE or Huffman literals.
};

/** One decoded literals section. */
struct DecodedLiterals
{
    /** The literals: raw ones in place in the section, the others in
     *  the scratch's bytes. Valid until the scratch decodes again. */
    ByteSpan bytes;
    LiteralsMode mode = LiteralsMode::raw;
    std::size_t streamBytes = 0; ///< Huffman bitstream length (0 else).
};

/**
 * Encodes @p literals picking the cheapest mode: RLE when uniform,
 * Huffman when it wins over raw (including its 128-byte table), raw
 * otherwise. Appends to @p out; reports the chosen mode/stream size.
 */
void encodeLiteralsSection(ByteSpan literals, Bytes &out,
                           LiteralsScratch &scratch,
                           LiteralsMode *mode_out = nullptr,
                           std::size_t *stream_bytes_out = nullptr);

/**
 * Decodes one literals section starting at @p pos (advanced past it)
 * into @p literals.
 *
 * @p max_literals is the enclosing block's regenerated size: every
 * literal lands in the block's output, so a count above it is
 * corruption — and checking before decoding means a tampered count
 * cannot size an allocation (a 10-byte RLE section once claimed 4 GiB).
 */
Status decodeLiteralsSection(ByteSpan data, std::size_t &pos,
                             std::size_t max_literals,
                             LiteralsScratch &scratch,
                             DecodedLiterals &literals);

} // namespace cdpu::zstdlite

#endif // CDPU_ZSTDLITE_LITERALS_H_

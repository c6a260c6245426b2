/**
 * @file
 * Huffman symbol-stream encoder.
 */

#ifndef CDPU_HUFFMAN_ENCODER_H_
#define CDPU_HUFFMAN_ENCODER_H_

#include "common/bitio.h"
#include "huffman/code_builder.h"

namespace cdpu::huffman
{

/**
 * Encodes @p symbols with @p table into @p writer, packing several
 * codes into each BitWriter::put().
 * @pre Every symbol of the stream has a code (nonzero length), as when
 *      the table was built over the stream's own frequencies.
 */
void encode(const CodeTable &table, ByteSpan symbols, BitWriter &writer);

/**
 * Exact bit cost (no terminator) of encoding, under @p table, a stream
 * whose symbol counts are @p freqs: the sum of freqs[s] * length[s].
 * Fails if a symbol that occurs has no code.
 */
Result<u64> encodedBitCost(const CodeTable &table,
                           std::span<const u64> freqs);

/** Builds a frequency vector over an @p alphabet_size alphabet. */
std::vector<u64> countFrequencies(ByteSpan symbols,
                                  std::size_t alphabet_size = 256);

} // namespace cdpu::huffman

#endif // CDPU_HUFFMAN_ENCODER_H_

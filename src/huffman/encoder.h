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
 * Encodes @p symbols with @p table into @p writer.
 *
 * Fails if a symbol has no code (zero length) — the caller must have
 * built the table over a superset of the stream's alphabet.
 */
Status encode(const CodeTable &table, ByteSpan symbols, BitWriter &writer);

/**
 * Exact bit cost (no terminator) of encoding, under @p table, a stream
 * whose symbol counts are @p freqs: the sum of freqs[s] * length[s].
 * Fails if a symbol that occurs has no code.
 */
Result<u64> encodedBitCost(const CodeTable &table,
                           const std::vector<u64> &freqs);

/** Builds a frequency vector over an @p alphabet_size alphabet. */
std::vector<u64> countFrequencies(ByteSpan symbols,
                                  std::size_t alphabet_size = 256);

} // namespace cdpu::huffman

#endif // CDPU_HUFFMAN_ENCODER_H_

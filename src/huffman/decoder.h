/**
 * @file
 * Table-driven Huffman decoder.
 *
 * A single-level lookup table of 2^maxBits entries maps the next maxBits
 * input bits (LSB-first) to a (symbol, length) pair — the same decode
 * structure the hardware Huff Table Reader unit implements, and the one
 * whose lookups the speculative expander (Section 5.3) parallelizes.
 */

#ifndef CDPU_HUFFMAN_DECODER_H_
#define CDPU_HUFFMAN_DECODER_H_

#include "common/bitio.h"
#include "huffman/code_builder.h"

namespace cdpu::huffman
{

/** Decode table built from a CodeTable; a decoder kept across calls
 *  rebuilds it in place. */
class Decoder
{
  public:
    /** Builds the 2^maxBits lookup table. */
    static Result<Decoder> build(const CodeTable &table);

    /** build() into this decoder, reusing its storage. */
    Status rebuild(const CodeTable &table);

    /**
     * Decodes exactly @p count symbols from @p reader.
     * Fails on truncation or on a bit pattern with no assigned code.
     */
    Status decode(BitReader &reader, std::size_t count, Bytes &out) const;

    unsigned maxBits() const { return maxBits_; }

    /** Table entry lookup for the CDPU model's per-lookup accounting. */
    struct Entry
    {
        u16 symbol = 0;
        u8 length = 0; ///< 0 marks an invalid prefix.
    };

    const Entry &entryAt(u32 prefix) const { return table_[prefix]; }

    /** Constructs an empty decoder; use build() for a usable one. */
    Decoder() = default;

  private:
    /**
     * Precomputed two-symbol decode step for one maxBits window: the
     * first code plus, when the following code also fits entirely
     * inside the same window, the second. count == 2 entries let the
     * hot loop emit two symbols per lookup; count == 1 windows emit
     * the first alone, and count == 0 marks an invalid prefix, so a
     * decode fails on the same streams a per-symbol decode does.
     */
    struct PairEntry
    {
        u8 sym0 = 0;
        u8 sym1 = 0;
        u8 bits = 0;  ///< Total code bits consumed by the pair.
        u8 count = 0; ///< Symbols decodable from this window (0-2).
    };

    std::vector<Entry> table_;
    std::vector<PairEntry> pairs_;
    unsigned maxBits_ = 0;
};

} // namespace cdpu::huffman

#endif // CDPU_HUFFMAN_DECODER_H_

/**
 * @file
 * Canonical, length-limited Huffman code construction.
 *
 * Codes are built from symbol frequencies with a two-queue Huffman
 * merge (the tree a binary heap would build), clamped to a maximum bit
 * length (Kraft-sum repair, as zlib does), and assigned canonically so
 * a table can be reconstructed from code lengths alone — which is
 * exactly what the hardware Huffman Table Builder unit (Section 5.3)
 * consumes.
 */

#ifndef CDPU_HUFFMAN_CODE_BUILDER_H_
#define CDPU_HUFFMAN_CODE_BUILDER_H_

#include <span>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace cdpu::huffman
{

/** Default bit-length cap; matches zstd's literal-table limit. */
inline constexpr unsigned kDefaultMaxBits = 11;

/** Largest alphabet a code can have: a symbol packs into the low nine
 *  bits of the builder's sort key. */
inline constexpr std::size_t kMaxSymbols = 512;

/** A canonical Huffman code: one (length, code) pair per symbol. */
struct CodeTable
{
    /** Code length per symbol; 0 means the symbol does not occur. */
    std::vector<u8> lengths;
    /** Canonical code per symbol, stored bit-reversed so it can be
     *  emitted directly into an LSB-first BitWriter. */
    std::vector<u16> codes;
    unsigned maxBits = 0; ///< Longest assigned length.

    std::size_t numSymbols() const { return lengths.size(); }
};

/**
 * Builds a length-limited canonical code from frequencies into
 * @p table, reusing its storage.
 *
 * @param freqs     Occurrence count per symbol (size = alphabet size,
 *                  at most kMaxSymbols; each count below 2^55).
 * @param max_bits  Length cap, [1, 15].
 * @return Fails if no symbol has a nonzero count or the alphabet
 *         cannot fit in max_bits.
 */
Status buildCodeTable(std::span<const u64> freqs, unsigned max_bits,
                      CodeTable &table);

/** buildCodeTable() into a table of its own. */
Result<CodeTable> buildCodeTable(const std::vector<u64> &freqs,
                                 unsigned max_bits = kDefaultMaxBits);

/**
 * Clamps code lengths to @p max_bits and repairs the Kraft sum,
 * deterministically, so the lengths again describe a complete code.
 * The length-limiting step of buildCodeTable().
 */
void limitLengths(std::vector<u8> &lengths, unsigned max_bits);

/**
 * Reconstructs @p table's canonical codes and maxBits from its lengths
 * alone (decoder side / table transmission), reusing its storage.
 * Fails if the lengths violate the Kraft inequality or describe an
 * incomplete code.
 */
Status codesFromLengths(CodeTable &table);

/** codesFromLengths() on a table of its own holding @p lengths. */
Result<CodeTable> codesFromLengths(const std::vector<u8> &lengths);

/**
 * Appends the code lengths of symbols 0..@p count-1 (each <= 15) at
 * four bits per symbol, two per byte, the even symbol in the low
 * nibble; symbols past lengths.size() pack as 0. The table form
 * zstdlite's literals and flatelite's blocks transmit.
 */
void packLengths(const std::vector<u8> &lengths, std::size_t count,
                 Bytes &out);

/** Inverse of packLengths: @p count lengths from the first
 *  (count + 1) / 2 bytes of @p packed, into @p lengths. */
void unpackLengths(ByteSpan packed, std::size_t count,
                   std::vector<u8> &lengths);

/** Reverses the low @p nbits (<= 16) bits of @p v; higher bits of @p v
 *  are ignored. */
u16 reverseBits(u16 v, unsigned nbits);

} // namespace cdpu::huffman

#endif // CDPU_HUFFMAN_CODE_BUILDER_H_

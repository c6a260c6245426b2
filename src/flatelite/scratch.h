/**
 * @file
 * What a flatelite call rebuilds, kept across calls: the block codes,
 * the encoder's bitstream and the fused decoder's two-level tables.
 */

#ifndef CDPU_FLATELITE_SCRATCH_H_
#define CDPU_FLATELITE_SCRATCH_H_

#include <algorithm>

#include "common/bitio.h"
#include "huffman/code_builder.h"

namespace cdpu::flatelite
{

/** A compressed block's canonical codes; the distance code is absent
 *  when the block transmits no distance lengths. */
struct BlockCodes
{
    huffman::CodeTable litlen;
    huffman::CodeTable dist;
    bool hasDistances = false;
};

/**
 * Two-level decode table for the fused loop, built the way zlib's
 * inflate builds its own: a root indexed by the next kRootBits bits
 * (fewer when no code is that long) and, for longer codes, a
 * second-level table per root prefix. Each entry carries what its
 * symbol means, so a literal, a length or a distance costs one or two
 * L1-resident lookups and no further binning.
 */
class FastTable
{
  public:
    static constexpr unsigned kRootBits = 10;

    /** Entry kinds; kBase carries its extra-bit count in the low 4. */
    static constexpr u8 kLiteral = 0x00;
    static constexpr u8 kBase = 0x10; ///< value = baseline; | extra bits.
    static constexpr u8 kEnd = 0x20;
    static constexpr u8 kLink = 0x40; ///< value = sub-table offset.

    struct Entry
    {
        u16 value = 0; ///< Literal byte, baseline or sub-table offset.
        u8 bits = 0;   ///< Code bits at this level; 0 marks no code.
        u8 op = kLiteral;
    };

    /** Rebuilds the table for @p codes in place, its storage kept;
     *  @p meaning maps a symbol to its entry's value and op. */
    template <typename Meaning>
    void
    rebuild(const huffman::CodeTable &codes, Meaning meaning)
    {
        rootBits_ = std::min(codes.maxBits, kRootBits);
        subBits_ = codes.maxBits - rootBits_;
        entries_.assign(std::size_t{1} << rootBits_, Entry{});
        const u32 root_mask = (1u << rootBits_) - 1;
        for (std::size_t sym = 0; sym < codes.numSymbols(); ++sym) {
            const unsigned len = codes.lengths[sym];
            if (len == 0)
                continue;
            Entry entry = meaning(static_cast<u16>(sym));
            u32 code = codes.codes[sym];
            std::size_t base = 0;
            std::size_t span = std::size_t{1} << rootBits_;
            if (len > rootBits_) {
                // Codes are prefix-free, so a root slot holding a long
                // code's prefix holds only links.
                const u32 root = code & root_mask;
                if (entries_[root].op != kLink) {
                    entries_[root] = {static_cast<u16>(entries_.size()),
                                      static_cast<u8>(rootBits_), kLink};
                    entries_.resize(entries_.size() +
                                    (std::size_t{1} << subBits_));
                }
                base = entries_[root].value;
                span = std::size_t{1} << subBits_;
                code >>= rootBits_;
            }
            entry.bits = static_cast<u8>(len > rootBits_ ? len - rootBits_
                                                          : len);
            for (std::size_t idx = code; idx < span;
                 idx += std::size_t{1} << entry.bits)
                entries_[base + idx] = entry;
        }
    }

    /** The table as plain values, for the decode loop to keep in
     *  registers (stores through the output pointer may alias any
     *  member it would otherwise reload). */
    struct View
    {
        const Entry *entries;
        unsigned rootBits;
        u32 rootMask;
        u32 subMask;

        /** The entry for the code at the bottom of @p window; @p used
         *  gets the bits it spans. A result with bits == 0 is no code. */
        Entry
        decode(u64 window, unsigned &used) const
        {
            Entry entry = entries[window & rootMask];
            used = entry.bits;
            if (entry.op == kLink) {
                entry = entries[entry.value +
                                ((window >> rootBits) & subMask)];
                used = rootBits + entry.bits;
            }
            return entry;
        }
    };

    View
    view() const
    {
        return {entries_.data(), rootBits_, (1u << rootBits_) - 1,
                (1u << subBits_) - 1};
    }

  private:
    unsigned rootBits_ = 0;
    unsigned subBits_ = 0;
    std::vector<Entry> entries_;
};

static_assert(sizeof(FastTable::Entry) == 4);

/**
 * Every buffer and table a flatelite call builds, for both directions:
 * each is rebuilt in place with its capacity kept, so a call on a warm
 * scratch allocates nothing. Nothing one call leaves here is read by
 * the next. The parse (lz77::ParseScratch) is passed beside it, since
 * one table serves every codec of a serve::CodecContext.
 */
struct Scratch
{
    BlockCodes codes;  ///< The block's codes, either direction.
    BitWriter stream;  ///< Compress: the block's bitstream.
    FastTable litlen;  ///< Decompress: the lit/len decode table.
    FastTable dist;    ///< Decompress: the distance decode table.
};

} // namespace cdpu::flatelite

#endif // CDPU_FLATELITE_SCRATCH_H_

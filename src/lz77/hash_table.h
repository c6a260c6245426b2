/**
 * @file
 * Parameterized match-finder hash table.
 *
 * This mirrors the hash-table SRAM inside the paper's LZ77 encoder unit
 * (Section 5.5): configurable entry count, associativity, and hash
 * function are the knobs swept in Figures 12/13. The same structure backs
 * the software codecs so hardware/software compression ratios are
 * directly comparable.
 */

#ifndef CDPU_LZ77_HASH_TABLE_H_
#define CDPU_LZ77_HASH_TABLE_H_

#include <vector>

#include "common/mem.h"
#include "common/types.h"

namespace cdpu::lz77
{

/** Hash functions selectable at "compile time" (paper parameter 8). */
enum class HashFunction
{
    multiplicative, ///< Knuth multiplicative hash of 4 bytes (Snappy-like).
    xorShift,       ///< Mix of shifted XORs (cheap in hardware).
    fibonacci64,    ///< 64-bit golden-ratio hash of 5 bytes (ZStd-like).
};

/** Multiplier of the multiplicative hash. */
inline constexpr u32 kMultiplicativeHashMul = 0x1e35a7bdu;

/** Multiplicative hash of the 4 bytes at @p p: the top 32 - @p shift
 *  bits of the 32-bit product. Shared by MatchHashTable and
 *  lz77::fastParse, whose parses must agree. */
inline u32
multiplicativeHash(const u8 *p, unsigned shift)
{
    return (mem::loadU32(p) * kMultiplicativeHashMul) >> shift;
}

/** Multiplier of the xor-shift hash. */
inline constexpr u32 kXorShiftHashMul = 0x2c1b3c6du;

/** xor-shift hash of the 4 bytes at @p p: fold the high half down,
 *  multiply, fold again, and keep the top 32 - @p shift bits. */
inline u32
xorShiftHash(const u8 *p, unsigned shift)
{
    u32 x = mem::loadU32(p);
    x ^= x >> 15;
    x *= kXorShiftHashMul;
    x ^= x >> 12;
    return x >> shift;
}

/** fibonacci64 hash of the 5 bytes at @p p with the 64-bit golden
 *  ratio, as zstd's fast match finder does: the top 64 - @p shift bits
 *  of the product. Reads 8 bytes. */
inline u32
fibonacci64Hash(const u8 *p, unsigned shift)
{
    return static_cast<u32>(
        ((mem::loadU64(p) << 24 >> 24) * 0x9e3779b185ebca87ull) >> shift);
}

/** Configuration for a match-finder hash table. */
struct HashTableConfig
{
    unsigned log2Entries = 14;    ///< Paper sweeps 2^14 vs 2^9 (Fig 12/13).
    unsigned ways = 1;            ///< Associativity (paper parameter 6).
    HashFunction hashFunction = HashFunction::multiplicative;
    unsigned minMatch = 4;        ///< Bytes hashed per position.

    std::size_t entries() const { return std::size_t{1} << log2Entries; }
};

/**
 * Set-associative table mapping a hashed 4/5-byte prefix to candidate
 * input positions. Replacement is FIFO within a set, which is what a
 * simple SRAM implementation does.
 */
class MatchHashTable
{
  public:
    explicit MatchHashTable(const HashTableConfig &config);

    /** Forgets all candidates (new input buffer). */
    void reset();

    /**
     * Returns candidate positions for the prefix at @p pos, most recent
     * first, then records @p pos in the set. Candidates may be stale or
     * colliding; the caller must verify bytes.
     */
    void lookupAndInsert(ByteSpan data, std::size_t pos,
                         std::vector<u32> &candidates_out);

    /** Records @p pos without collecting candidates (used when skipping). */
    void insert(ByteSpan data, std::size_t pos);

    /** Hash of the minMatch-byte prefix at @p pos (exposed for tests). */
    u32 hashAt(ByteSpan data, std::size_t pos) const;

    const HashTableConfig &config() const { return config_; }

    /** Total verified lookups (for the cycle model's probe accounting). */
    u64 probeCount() const { return probes_; }

  private:
    static constexpr u32 kEmpty = 0xffffffffu;

    HashTableConfig config_;
    std::vector<u32> slots_;      ///< entries() * ways positions.
    std::vector<u8> nextVictim_;  ///< FIFO pointer per set.
    u64 probes_ = 0;
};

} // namespace cdpu::lz77

#endif // CDPU_LZ77_HASH_TABLE_H_

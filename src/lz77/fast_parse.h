/**
 * @file
 * The software codecs' LZ77 parse: MatchFinder's greedy/lazy parse,
 * specialized at compile time on (hash function, ways).
 *
 * MatchFinder is the hardware-parameterized reference — any geometry,
 * per-probe stats for the CDPU cycle models. Software compression asks
 * for no stats, so it runs this parser instead: one flat u32 table
 * with sets kept newest first (no FIFO victim array) that a caller can
 * keep across parses (ParseTable), inline hashing,
 * candidates read in place, and the kernel.* work counters added once
 * per parse. The result is MatchFinder's Parse exactly — same
 * sequences, same literalTailStart — which fastpath_fuzz_test checks
 * for every geometry the codecs' level tables produce.
 */

#ifndef CDPU_LZ77_FAST_PARSE_H_
#define CDPU_LZ77_FAST_PARSE_H_

#include "lz77/match_finder.h"

namespace cdpu::lz77
{

/**
 * The fast parse's hash table, kept across parses so that a small call
 * neither allocates nor fills entries × ways slots.
 *
 * Slots hold base + position. Each parse moves the base past its
 * input, so every slot an earlier parse wrote lies below the current
 * base. Read base-relative, such a stale slot wraps to at least 2^31,
 * above every position of the current input, so the candidate test
 * that rejects a fresh table's empty slots rejects it too. A set's
 * FIFO shift evicts whatever the set holds, so the parse is the one a
 * fresh table gives. A zero slot is stale for any base >= 1: the table
 * grows zero-filled when a larger geometry arrives, and is zeroed only
 * when the base would pass 2^31.
 */
class ParseTable
{
  public:
    /** Tables up to this size are kept across parses; a larger
     *  geometry's parse runs the same code on a table of its own. */
    static constexpr std::size_t kMaxRetainedBytes = kMiB;

    /** The base is reset before it would pass this. */
    static constexpr u64 kResetBase = u64{1} << 31;

    ParseTable() = default;

    /** A table whose base starts at @p base (<= kResetBase): lets a
     *  test put the reset a few bytes ahead. */
    explicit ParseTable(u64 base) : base_(base) {}

    /**
     * Readies @p slots slots for a parse of @p input_size bytes: zeroes
     * the table first if the base would pass kResetBase, grows it
     * zero-filled to @p slots, sets @p base to the value the parse adds
     * to each position it stores and moves the base past the input.
     */
    u32 *prepare(std::size_t slots, std::size_t input_size, u32 &base);

  private:
    std::vector<u32> slots_;
    u64 base_ = 1;
};

/** What a compressor's parse keeps across calls: the table and the
 *  Parse, whose sequence capacity is reused. */
struct ParseScratch
{
    ParseTable table;
    Parse parse;
};

/**
 * True when fastParse() has a specialization for @p config: the
 * multiplicative hash at 1, 2 or 4 ways, or fibonacci64 at 1, 2, 4, 8
 * or 16 ways — the pairs snappy, zstdlite, flatelite and gipfeli use.
 */
bool hasFastParse(const MatchFinderConfig &config);

/**
 * MatchFinder(config).parse(input) into @p parse, whose sequence
 * capacity is kept, computed by the specialization for config's
 * geometry on @p table (or, past ParseTable::kMaxRetainedBytes, on a
 * table of its own); other geometries run MatchFinder itself.
 */
void fastParse(ByteSpan input, const MatchFinderConfig &config,
               ParseTable &table, Parse &parse);

/** fastParse() on a table and a Parse of its own. */
Parse fastParse(ByteSpan input, const MatchFinderConfig &config);

} // namespace cdpu::lz77

#endif // CDPU_LZ77_FAST_PARSE_H_

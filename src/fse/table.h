/**
 * @file
 * FSE table construction: the shared symbol spread plus the decode- and
 * encode-side tables derived from it.
 *
 * These mirror the hardware FSE Table Builder / FSE Table SRAM blocks of
 * Figure 9: the spread is what the table-builder unit writes into SRAM,
 * and the decode entries are what the FSE Table Reader consumes per
 * symbol.
 */

#ifndef CDPU_FSE_TABLE_H_
#define CDPU_FSE_TABLE_H_

#include "fse/normalize.h"

namespace cdpu::fse
{

/** One decode-table entry: symbol, bit count, and next-state base. */
struct DecodeEntry
{
    u8 symbol = 0;
    u8 nbBits = 0;
    u16 nextStateBase = 0;
};

/** Decoder-side table: indexed by the current state in [0, size). */
struct DecodeTable
{
    std::vector<DecodeEntry> entries;
    unsigned tableLog = 0;

    std::size_t size() const { return entries.size(); }
};

/** Encoder-side per-symbol transform + occurrence-to-state map. */
struct EncodeTable
{
    /** For symbol s, sub-states x in [count[s], 2*count[s]) map through
     *  stateMap[cumul[s] + x - count[s]] to the next global state in
     *  [size, 2*size). */
    std::vector<u16> stateMap;
    std::vector<u32> cumul;  ///< Prefix sums of counts (size A+1).
    std::vector<u32> counts; ///< Normalized count per symbol.
    unsigned tableLog = 0;

    std::size_t size() const { return std::size_t{1} << tableLog; }
};

/**
 * The zstd symbol spread: positions symbols across the table with
 * stride (size/2 + size/8 + 3), giving each symbol's occurrences an
 * even spacing.
 */
std::vector<u8> spreadSymbols(const NormalizedCounts &norm);

/**
 * The same spread written to @p spread, which holds 1 << norm.tableLog
 * bytes: the form for callers that keep the table on the stack.
 * @pre The counts sum to 1 << norm.tableLog.
 */
void spreadSymbols(const NormalizedCounts &norm, u8 *spread);

/** Builds the decoder table from normalized counts. */
Result<DecodeTable> buildDecodeTable(const NormalizedCounts &norm);

/** Builds the encoder table from normalized counts into @p table,
 *  reusing its storage. */
Status buildEncodeTable(const NormalizedCounts &norm, EncodeTable &table);

/** buildEncodeTable() into a table of its own. */
Result<EncodeTable> buildEncodeTable(const NormalizedCounts &norm);

} // namespace cdpu::fse

#endif // CDPU_FSE_TABLE_H_

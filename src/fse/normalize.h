/**
 * @file
 * Count normalization for Finite State Entropy tables.
 *
 * FSE requires symbol counts that sum exactly to the table size
 * (1 << tableLog) with every present symbol receiving at least one slot.
 * normalizeCounts() deterministically scales raw frequencies into that
 * form; serialize/deserialize move the normalized counts through block
 * headers so the decoder rebuilds the identical table.
 */

#ifndef CDPU_FSE_NORMALIZE_H_
#define CDPU_FSE_NORMALIZE_H_

#include <span>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace cdpu::fse
{

/** Bounds accepted for table logs (zstd accepts 5..12 for sequences). */
inline constexpr unsigned kMinTableLog = 5;
inline constexpr unsigned kMaxTableLog = 12;

/** Normalized counts plus the table log they were normalized for. */
struct NormalizedCounts
{
    std::vector<u32> counts; ///< Per symbol; sums to 1 << tableLog.
    unsigned tableLog = 0;

    std::size_t alphabetSize() const { return counts.size(); }
};

/**
 * Scales raw frequencies to sum to 1 << table_log, into @p norm
 * (its storage reused).
 *
 * Every nonzero raw count maps to >= 1; the residual is absorbed by the
 * most frequent symbol. Fails if no symbol occurs or the alphabet has
 * more used symbols than table slots.
 */
Status normalizeCounts(std::span<const u64> freqs, unsigned table_log,
                       NormalizedCounts &norm);

/** normalizeCounts() into counts of their own. */
Result<NormalizedCounts> normalizeCounts(const std::vector<u64> &freqs,
                                         unsigned table_log);

/**
 * Picks a table log for the given stream: large enough for the used
 * alphabet, small enough not to dominate short streams, clamped to
 * [kMinTableLog, max_log].
 */
unsigned suggestTableLog(std::span<const u64> freqs, u64 total,
                         unsigned max_log = 9);

/** Appends a serialized representation (tableLog, alphabet, counts). */
void serializeCounts(const NormalizedCounts &norm, Bytes &out);

/** Parses serializeCounts() output at @p pos into @p norm (its storage
 *  reused) and validates the invariants. */
Status deserializeCounts(ByteSpan data, std::size_t &pos,
                         NormalizedCounts &norm);

/** deserializeCounts() into counts of their own. */
Result<NormalizedCounts> deserializeCounts(ByteSpan data,
                                           std::size_t &pos);

} // namespace cdpu::fse

#endif // CDPU_FSE_NORMALIZE_H_

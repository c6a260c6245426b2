/**
 * @file
 * FlateLite decompressor with full corruption checking.
 */

#ifndef CDPU_FLATELITE_DECOMPRESS_H_
#define CDPU_FLATELITE_DECOMPRESS_H_

#include "flatelite/format.h"
#include "flatelite/scratch.h"

namespace cdpu::flatelite
{

/** Parses only the frame header. */
Result<FrameHeader> peekFrameHeader(ByteSpan data);

/** Parses a compressed block's packed code lengths at @p pos (advanced
 *  past them) and rebuilds both canonical codes in @p codes. */
Status readBlockCodes(ByteSpan data, std::size_t &pos, BlockCodes &codes);

/**
 * Decompresses a FlateLite frame; validates window-bounded distances,
 * history bounds, block sizes and the content-size claim. Optionally
 * records the per-block trace for the Flate CDPU model; a trace only
 * observes, the same loop decodes either way.
 */
Result<Bytes> decompress(ByteSpan data, FileTrace *trace = nullptr);

/**
 * Context-reuse variant of decompress(): decodes into @p out, clearing
 * it first but keeping its capacity (see snappy::decompressInto), and
 * rebuilds each block's codes and decode tables in @p scratch. On
 * error @p out is left in an unspecified (but valid) state.
 */
Status decompressInto(ByteSpan data, Bytes &out, Scratch &scratch,
                      FileTrace *trace = nullptr);

/** decompressInto() on a scratch of its own. */
Status decompressInto(ByteSpan data, Bytes &out,
                      FileTrace *trace = nullptr);

} // namespace cdpu::flatelite

#endif // CDPU_FLATELITE_DECOMPRESS_H_

/**
 * @file
 * What a zstdlite call rebuilds, kept across calls.
 */

#ifndef CDPU_ZSTDLITE_SCRATCH_H_
#define CDPU_ZSTDLITE_SCRATCH_H_

#include "zstdlite/literals.h"
#include "zstdlite/sequences.h"

namespace cdpu::zstdlite
{

/**
 * Every buffer and table a zstdlite call builds, for both directions:
 * each is rebuilt in place with its capacity kept, so a call on a warm
 * scratch allocates nothing. Nothing one call leaves here is read by
 * the next. The parse (lz77::ParseScratch) is passed beside it, since
 * one table serves every codec of a serve::CodecContext.
 */
struct Scratch
{
    LiteralsScratch literals;
    SequencesScratch sequences;

    /** Compress: the pending block's literals and sequences. */
    Bytes blockLiterals;
    std::vector<lz77::Sequence> blockSequences;
    /** Compress: a compressed block's body, before it is kept. */
    Bytes body;
};

} // namespace cdpu::zstdlite

#endif // CDPU_ZSTDLITE_SCRATCH_H_

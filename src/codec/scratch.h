/**
 * @file
 * codec::Scratch: everything a codec call rebuilds, kept across calls.
 */

#ifndef CDPU_CODEC_SCRATCH_H_
#define CDPU_CODEC_SCRATCH_H_

#include "flatelite/scratch.h"
#include "gipfeli/gipfeli.h"
#include "lz77/fast_parse.h"
#include "zstdlite/scratch.h"

namespace cdpu::codec
{

/**
 * The per-call state of every base codec, built from the scratch each
 * codec declares in its own header, plus the one parse they share.
 * The registry's compressInto/decompressInto take one, pipelines
 * included; serve::CodecContext owns one per worker, so that a warm
 * call reuses its match table, buffers and entropy tables instead of
 * allocating them. A scratch is single-threaded, like its context, and
 * no call reads what an earlier call left in it: bytes do not depend
 * on which scratch, or how warm a scratch, a call runs on.
 *
 * It is owned rather than thread_local so that its lifetime and
 * memory belong to the context that uses it: a context's tables go
 * when the context goes, and a worker pool's resident set is the sum
 * of its contexts, not of every thread that ever ran a codec.
 */
struct Scratch
{
    /** One match table (kept up to lz77::ParseTable::kMaxRetainedBytes)
     *  and one parse for every compressor. */
    lz77::ParseScratch parse;
    zstdlite::Scratch zstdlite;
    flatelite::Scratch flatelite;
    gipfeli::Scratch gipfeli;
    /** Pipelines: the stage chain's intermediate buffers. */
    Bytes staged;
    Bytes next;

    /** Frees every buffer and table but the match table, which stays
     *  within its own limit. */
    void
    releaseBuffers()
    {
        lz77::ParseTable table = std::move(parse.table);
        *this = Scratch{};
        parse.table = std::move(table);
    }
};

} // namespace cdpu::codec

#endif // CDPU_CODEC_SCRATCH_H_

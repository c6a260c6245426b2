/**
 * @file
 * Per-worker codec context.
 *
 * The fleet's serving processes keep long-lived (de)compression
 * contexts so steady-state calls do not allocate (Section 3.2's
 * software cost breakdown counts allocator time against the codec).
 * A CodecContext owns one reusable output buffer and one codec::Scratch
 * (match table, block buffers, entropy tables) and dispatches a
 * ReplayCall through the codec registry: whole-buffer calls hit the
 * codec's context-reuse entry points (*Into) on that scratch,
 * streaming calls run a session in chunkBytes-sized feeds. Once the
 * buffer and the scratch have grown to the workload's largest call, a
 * whole-buffer call to a base codec makes no heap allocation, except
 * that zstdlite levels whose match table exceeds
 * lz77::ParseTable::kMaxRetainedBytes (level 7 and up) still allocate
 * that table per call; tests/alloc_test.cpp holds every base codec in
 * both directions to zero at its default level. A call larger than
 * kMaxRetainedCallBytes leaves the scratch's buffers behind (the match
 * table stays), so a context keeps what small calls need, not what its
 * largest call needed; bulk calls amortize their allocations. Pipeline
 * codecs reuse the scratch for their staging buffers, but their
 * transform stages may still allocate, and sessions allocate per call.
 *
 * A context is single-threaded by construction: the engine gives each
 * worker its own. Sharing one across threads is a data race.
 */

#ifndef CDPU_SERVE_CODEC_CONTEXT_H_
#define CDPU_SERVE_CODEC_CONTEXT_H_

#include "codec/scratch.h"
#include "hyperbench/call_stream.h"

namespace cdpu::serve
{

class CodecContext
{
  public:
    /** A call whose input or output is larger than this frees the
     *  scratch's buffers when it ends: kept, they would hold several
     *  times this in every context that ever ran such a call. */
    static constexpr std::size_t kMaxRetainedCallBytes = 256 * kKiB;

    /**
     * Executes @p call, pointing @p output at the result. The view is
     * valid until the next execute() on this context. Level/window
     * parameters outside a codec's legal range are clamped against the
     * registry's capability metadata, so any fleet-sampled call can
     * execute on any codec.
     */
    Status execute(const hcb::ReplayCall &call, ByteSpan &output);

    /** Bytes produced by the last successful execute(); 0 after a
     *  failed call (a failure never leaves partial output behind). */
    std::size_t lastOutputSize() const { return out_.size(); }

  private:
    Status executeInto(const hcb::ReplayCall &call);

    Bytes out_; ///< Reused across calls; capacity only grows.
    codec::Scratch scratch_; ///< Reused across calls, like out_.
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_CODEC_CONTEXT_H_

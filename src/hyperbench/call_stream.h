/**
 * @file
 * Fleet-replay call descriptors.
 *
 * The paper's serving story (Section 3) is millions of independent
 * (de)compression calls; HyperCompressBench models them as suite files
 * with fleet-sampled parameters. This bridge turns those files into a
 * flat stream of call descriptors, so the serve layer can drain them
 * through a worker pool one call at a time. The stream owns all
 * payload bytes; descriptors carry non-owning views, making a
 * CallStream cheap to share read-only across worker threads.
 *
 * Calls carry a codec::CodecId — the single codec selector shared by
 * every layer (registry, serve contexts, DSE, benches) — and may be
 * marked streaming, in which case the serve layer executes them
 * through the codec's session API in chunkBytes-sized feeds (the
 * paper's Section 3.4: every fleet compression API has a streaming
 * equivalent).
 */

#ifndef CDPU_HYPERBENCH_CALL_STREAM_H_
#define CDPU_HYPERBENCH_CALL_STREAM_H_

#include <deque>

#include "common/error.h"
#include "hyperbench/suite_generator.h"

namespace cdpu::hcb
{

/** One (de)compression call to replay. */
struct ReplayCall
{
    u64 id = 0; ///< Position in the stream; indexes replay outcomes.
    codec::CodecId codec = codec::CodecId::snappy;
    Direction direction = Direction::compress;
    /** Uncompressed input (compress) or a frame produced by this
     *  repo's codec (decompress). Views the stream's arena. For
     *  streaming decompress calls the frame uses the codec's session
     *  container (snappy: the framing format). */
    ByteSpan payload;
    int level = 3;           ///< Effort level (codecs with levels).
    unsigned windowLog = 17; ///< Window log (codecs with windows).
    /** Execute through the codec's streaming session API. */
    bool streaming = false;
    /** Session feed granularity in bytes (0 = one whole-buffer feed);
     *  meaningful only when streaming. */
    std::size_t chunkBytes = 0;
};

/** Owns call payloads and the ordered descriptor list. Append-only;
 *  freeze it (stop appending) before sharing across threads. */
class CallStream
{
  public:
    /** Appends one call, taking ownership of @p payload. Returns the
     *  call id. */
    u64 append(codec::CodecId codec, Direction direction,
               Bytes payload, int level = 3, unsigned window_log = 17,
               bool streaming = false, std::size_t chunk_bytes = 0);

    const std::vector<ReplayCall> &calls() const { return calls_; }
    std::size_t size() const { return calls_.size(); }
    bool empty() const { return calls_.empty(); }
    std::size_t totalPayloadBytes() const { return payloadBytes_; }

  private:
    std::deque<Bytes> arena_; ///< Stable storage for payload views.
    std::vector<ReplayCall> calls_;
    std::size_t payloadBytes_ = 0;
};

/**
 * Appends every file of @p suite as one replay call. Compress-direction
 * suites replay the uncompressed file body; decompress-direction suites
 * replay a frame pre-compressed here (with the file's sampled level and
 * window clamped to the codec's capabilities), since the fleet's
 * decompression calls consume previously-compressed traffic.
 */
Status appendSuite(CallStream &stream, const Suite &suite);

} // namespace cdpu::hcb

#endif // CDPU_HYPERBENCH_CALL_STREAM_H_

/**
 * @file
 * Mixed-codec replay-stream construction.
 *
 * Produces deterministic call streams that exercise every registered
 * codec in both directions over the synthetic corpus classes — the
 * shape of fleet traffic the engine replays when a full
 * HyperCompressBench suite (fleet model + greedy assembly) is more
 * machinery than a test or benchmark needs. Given equal configs, two
 * builds yield identical streams, which is what the differential
 * tests rely on.
 */

#ifndef CDPU_SERVE_STREAM_BUILDER_H_
#define CDPU_SERVE_STREAM_BUILDER_H_

#include "hyperbench/call_stream.h"

namespace cdpu::serve
{

struct StreamConfig
{
    std::size_t calls = 256;
    std::size_t minCallBytes = 1 * kKiB;
    std::size_t maxCallBytes = 64 * kKiB;
    /** Fraction of calls replayed as decompression (their payloads are
     *  pre-compressed here with the same codec). The fleet skews this
     *  way: bytes are compressed once and decompressed many times
     *  (Section 3.1). */
    double decompressFraction = 0.5;
    /** Fraction of calls executed through the codec's streaming
     *  session API (RPC-style chunked traffic) instead of one
     *  whole-buffer call; their feed granularity is RNG-sampled.
     *  Streaming decompress payloads use the session container. */
    double streamingFraction = 0.0;
    /** Codecs to round-robin across. Empty means every codec in the
     *  registry (codec::allCodecs()); bench_scaling's --codec flag
     *  narrows this to one. */
    std::vector<codec::CodecId> codecs;
    u64 seed = 2023;
};

/**
 * Builds a stream of @p config.calls mixed calls: codec and data class
 * round-robin with RNG-jittered sizes, direction sampled from
 * decompressFraction, streaming execution from streamingFraction.
 * Deterministic in the config.
 */
Result<hcb::CallStream> buildMixedStream(const StreamConfig &config);

} // namespace cdpu::serve

#endif // CDPU_SERVE_STREAM_BUILDER_H_

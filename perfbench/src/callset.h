/**
 * @file
 * A workload's calls and their reference outputs.
 *
 * Every perfbench driver (daemon over a socket, in-process replay,
 * container decode) consumes the same shape: an hcb::CallStream plus
 * the bytes each call must produce. The reference bytes are computed at
 * set-up through the system's own single-threaded paths, and every
 * timed output is compared against them before any metric is printed.
 */

#ifndef PERFBENCH_CALLSET_H_
#define PERFBENCH_CALLSET_H_

#include "hyperbench/call_stream.h"

namespace perfbench
{

using cdpu::Bytes;
using cdpu::ByteSpan;
using cdpu::Result;
using cdpu::Status;
using cdpu::u64;

struct CallSet
{
    cdpu::hcb::CallStream stream;
    /** Output each call must produce, indexed by call id. */
    std::vector<Bytes> expected;
    /** serve::fnv1a of each expected output. */
    std::vector<u64> hashes;

    std::size_t size() const { return stream.size(); }

    /** Uncompressed bytes call @p i handles: its input when
     *  compressing, its output when decompressing. */
    u64 rawBytes(std::size_t i) const;
    u64 totalRawBytes() const;

    /** Uncompressed over compressed bytes across the compress calls;
     *  1 when there are none. */
    double compressionRatio() const;

    /** The uncompressed bytes of every call, in call order, until
     *  @p cap bytes are collected (the last piece may be cut). */
    std::vector<Bytes> rawPieces(std::size_t cap) const;
};

/**
 * The fleet's small-call mix: fleet::FleetModel channel shares, ZStd
 * levels and call sizes capped at @p cap_bytes; the paper's codecs
 * without an in-repo implementation ride loadgen's stand-ins
 * (brotli->zstdlite, lzo->snappy); data classes round-robin.
 * Decompress calls carry frames compressed here. References included.
 */
Result<CallSet> buildFleetMix(u64 seed, std::size_t calls,
                              std::size_t cap_bytes);

/**
 * The bulk mix: every registered codec (curated pipelines included)
 * gets the same eight calls, so each seed has the same composition and
 * the seed moves only the bytes. Sizes run 64 KiB - 1 MiB (divided by
 * @p scale_div); per codec, half decompress and a quarter through
 * streaming sessions; data classes, levels, windows and session chunk
 * sizes cycle over the whole stream. References come from
 * serve::replaySequential.
 */
Result<CallSet> buildBulkMix(u64 seed, std::size_t scale_div);

} // namespace perfbench

#endif // PERFBENCH_CALLSET_H_

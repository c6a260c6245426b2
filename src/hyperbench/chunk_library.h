/**
 * @file
 * Chunk library: the ratio lookup table at the heart of the paper's
 * HyperCompressBench generator (Section 4).
 *
 * Corpus buffers are split into fixed-size chunks; every chunk can be
 * run through any registered codec (the paper's "all supported
 * algorithm/parameter pairs") to obtain its compression ratio, and
 * the chunks are indexed by ratio so the greedy assembler can select
 * the chunk closest to a target.
 */

#ifndef CDPU_HYPERBENCH_CHUNK_LIBRARY_H_
#define CDPU_HYPERBENCH_CHUNK_LIBRARY_H_

#include <memory>
#include <mutex>
#include <vector>

#include "codec/codec.h"
#include "common/rng.h"
#include "corpus/chunker.h"

namespace cdpu::hcb
{

/** A chunk (a view into the library's store) with its measured
 *  per-codec compression ratio. */
struct RatedChunk
{
    ByteSpan data;
    double ratio = 1.0;
};

/** Configuration for library construction. */
struct ChunkLibraryConfig
{
    std::size_t chunkBytes = 8 * kKiB;
    /** Bytes of each corpus class to generate and chunk. Large enough
     *  that multi-MiB benchmark files need not repeat chunks, which
     *  would fabricate long-range redundancy the fleet data lacks. */
    std::size_t perClassBytes = 2 * kMiB;
    /** Level used for the ratio measurement of codecs with levels. */
    int zstdLevel = 3;
};

/**
 * Ratio-sorted chunk store, one table per registered codec.
 *
 * Construction generates and chunks the corpora. A codec's table is
 * rated, by compressing every chunk with that codec as the paper's
 * generator does, and sorted the first time table(), ratioRange() or
 * closestIndex() asks for it; codecs nobody asks for cost nothing.
 * Rating is thread-safe and deterministic, so the order in which
 * codecs are first asked for does not change any table.
 */
class ChunkLibrary
{
  public:
    /** Builds the chunk store from the synthetic corpora. */
    ChunkLibrary(const ChunkLibraryConfig &config, Rng &rng);

    /** Chunks sorted ascending by ratio under @p codec. */
    const std::vector<RatedChunk> &table(codec::CodecId codec) const;

    /** Index of the chunk whose ratio is closest to @p target. */
    std::size_t closestIndex(codec::CodecId codec, double target) const;

    /** Ratio span available for @p codec (min, max). */
    std::pair<double, double> ratioRange(codec::CodecId codec) const;

  private:
    int level_;
    std::vector<Bytes> chunks_;
    /** One table per codec registered at construction time, indexed by
     *  CodecId value and filled on first use. Codecs registered later
     *  are not rated. */
    mutable std::vector<std::vector<RatedChunk>> tables_;
    std::unique_ptr<std::once_flag[]> rated_;
};

} // namespace cdpu::hcb

#endif // CDPU_HYPERBENCH_CHUNK_LIBRARY_H_

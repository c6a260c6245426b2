/**
 * @file
 * Snappy compressor built on the shared LZ77 match finder.
 */

#ifndef CDPU_SNAPPY_COMPRESS_H_
#define CDPU_SNAPPY_COMPRESS_H_

#include "lz77/fast_parse.h"
#include "snappy/format.h"

namespace cdpu::snappy
{

/**
 * Compressor tuning knobs.
 *
 * Defaults replicate the stock software library (2^14-entry direct-mapped
 * multiplicative hash, 64 KiB window, skip acceleration on). The CDPU
 * compression model reuses this compressor with hardware parameters
 * (windows below 64 KiB, different hash geometry, no skip acceleration)
 * so Figure 12/13's ratio-vs-SW series is measured on identical input.
 */
struct CompressorConfig
{
    lz77::HashTableConfig hashTable{
        .log2Entries = 14,
        .ways = 1,
        .hashFunction = lz77::HashFunction::multiplicative,
        .minMatch = 4,
    };
    std::size_t windowSize = kBlockSize;
    bool skipAcceleration = true;

    /** Collected from the last compress() call. */
};

/** Compresses @p input into a self-contained Snappy buffer. */
Bytes compress(ByteSpan input, const CompressorConfig &config = {},
               lz77::MatchFinderStats *stats = nullptr);

/**
 * Context-reuse variant of compress(): emits into @p out, clearing it
 * first but keeping its capacity, and parses each fragment in
 * @p parse, so repeated calls through one buffer and one parse stop
 * allocating once they have grown to the workload's largest call.
 */
void compressInto(ByteSpan input, Bytes &out, lz77::ParseScratch &parse,
                  const CompressorConfig &config = {},
                  lz77::MatchFinderStats *stats = nullptr);

/** compressInto() on a parse of its own. */
void compressInto(ByteSpan input, Bytes &out,
                  const CompressorConfig &config = {},
                  lz77::MatchFinderStats *stats = nullptr);

/** Upper bound on compress() output size for @p input_size bytes. */
std::size_t maxCompressedSize(std::size_t input_size);

} // namespace cdpu::snappy

#endif // CDPU_SNAPPY_COMPRESS_H_

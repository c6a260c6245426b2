/**
 * @file
 * FlateLite compressor: LZ77 parse + dynamic canonical Huffman blocks.
 */

#ifndef CDPU_FLATELITE_COMPRESS_H_
#define CDPU_FLATELITE_COMPRESS_H_

#include "flatelite/format.h"
#include "flatelite/scratch.h"
#include "lz77/fast_parse.h"

namespace cdpu::flatelite
{

/** Compressor tuning (Flate's compression levels map to LZ77 effort,
 *  exactly like zlib's). */
struct CompressorConfig
{
    int level = 6;               ///< 1 (fast) .. 9 (best), zlib-style.
    unsigned windowLog = kMaxWindowLog;

    /** CDPU hook: impose hardware match-finder geometry. */
    bool overrideMatchFinder = false;
    lz77::HashTableConfig matchFinderOverride{};
};

/** Level-derived match-finder parameters. */
lz77::MatchFinderConfig flateLevelParameters(int level,
                                             unsigned window_log);

/** Compresses @p input into a self-contained FlateLite frame. */
Result<Bytes> compress(ByteSpan input, const CompressorConfig &config = {},
                       FileTrace *trace = nullptr,
                       lz77::MatchFinderStats *stats = nullptr);

/**
 * Context-reuse variant of compress(): emits into @p out, clearing it
 * first but keeping its capacity (see snappy::compressInto), and
 * builds its parse, codes and bitstreams in @p parse and @p scratch.
 */
Status compressInto(ByteSpan input, Bytes &out,
                    const CompressorConfig &config,
                    lz77::ParseScratch &parse, Scratch &scratch,
                    FileTrace *trace = nullptr,
                    lz77::MatchFinderStats *stats = nullptr);

/** compressInto() on a parse and a scratch of its own. */
Status compressInto(ByteSpan input, Bytes &out,
                    const CompressorConfig &config = {},
                    FileTrace *trace = nullptr,
                    lz77::MatchFinderStats *stats = nullptr);

} // namespace cdpu::flatelite

#endif // CDPU_FLATELITE_COMPRESS_H_

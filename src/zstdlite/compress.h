/**
 * @file
 * ZstdLite compressor: LZ77 parse, block partitioning, literals +
 * sequences encoding.
 */

#ifndef CDPU_ZSTDLITE_COMPRESS_H_
#define CDPU_ZSTDLITE_COMPRESS_H_

#include "lz77/fast_parse.h"
#include "zstdlite/format.h"
#include "zstdlite/scratch.h"

namespace cdpu::zstdlite
{

/** Supported compression levels (negative levels are "fast" modes,
 *  mirroring zstd's level space from Section 3.3.2 of the paper). */
inline constexpr int kMinLevel = -7;
inline constexpr int kMaxLevel = 22;
inline constexpr int kDefaultLevel = 3;

/** Compressor tuning. */
struct CompressorConfig
{
    int level = kDefaultLevel;
    /** History window; bounds match offsets. Runtime-configurable in
     *  the paper's CDPU (parameter 4 of Section 5.8). */
    unsigned windowLog = 17;
    /**
     * When set, overrides the level-derived match-finder geometry —
     * the hook the CDPU compression model uses to impose hardware
     * hash-table parameters (entries/ways/hash function).
     */
    bool overrideMatchFinder = false;
    lz77::HashTableConfig matchFinderOverride{};
    bool skipAccelerationOverride = true;
};

/** Level-derived match-finder parameters (exposed for tests/model). */
lz77::MatchFinderConfig levelParameters(int level, unsigned window_log);

/**
 * Compresses @p input into a self-contained ZstdLite frame.
 * Optionally records a per-block trace for the CDPU cycle models.
 */
Result<Bytes> compress(ByteSpan input, const CompressorConfig &config = {},
                       FileTrace *trace = nullptr,
                       lz77::MatchFinderStats *stats = nullptr);

/**
 * Context-reuse variant of compress(): emits into @p out, clearing it
 * first but keeping its capacity, and builds its parse, blocks and
 * tables in @p parse and @p scratch. A serving loop replaying many
 * calls through one buffer and one scratch stops allocating once they
 * have grown to its largest call (levels whose match table exceeds
 * lz77::ParseTable::kMaxRetainedBytes still allocate their table).
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

} // namespace cdpu::zstdlite

#endif // CDPU_ZSTDLITE_COMPRESS_H_

/**
 * @file
 * LZ77 parser: greedy (and optionally lazy) match finding over a bounded
 * history window using MatchHashTable.
 *
 * The window size bounds the maximum offset a match may use, mirroring
 * the history SRAM capacity of the hardware LZ77 encoder (Section 5.5):
 * a candidate further back than the window cannot be used, because in
 * compression the history check is necessarily serial and cannot fall
 * back to L2 (Section 6.3).
 */

#ifndef CDPU_LZ77_MATCH_FINDER_H_
#define CDPU_LZ77_MATCH_FINDER_H_

#include "lz77/hash_table.h"
#include "lz77/sequence.h"

namespace cdpu::lz77
{

/** Parser configuration (hash table + window + effort knobs). */
struct MatchFinderConfig
{
    HashTableConfig hashTable;
    std::size_t windowSize = 64 * kKiB; ///< Max match offset.
    u32 minMatchLength = 4;             ///< Shortest emitted match.
    u32 maxMatchLength = 1u << 30;      ///< Cap (formats may bound this).
    bool lazyMatching = false;          ///< One-position lazy evaluation.
    /**
     * Snappy-style incompressible-data skip: after 32 consecutive probe
     * failures start stepping more than one byte. The paper notes the
     * hardware does NOT implement this (it costs nothing in hardware to
     * keep probing), which is why the 64K CDPU beats software ratio by
     * ~1.1% (Section 6.3). Software codecs enable it; CDPU models don't.
     */
    bool skipAcceleration = true;
};

/** Counters describing one parse, consumed by the CDPU cycle model. */
struct MatchFinderStats
{
    u64 positionsHashed = 0;   ///< Hash-table lookups issued.
    u64 candidateProbes = 0;   ///< Candidate byte-verifications performed.
    u64 matchesEmitted = 0;
    u64 matchBytes = 0;        ///< Bytes covered by matches.
    u64 literalBytes = 0;      ///< Bytes emitted as literals.
};

/**
 * Streaming LZ77 parser.
 *
 * parse() produces a Parse whose reconstruction equals the input exactly
 * (property-tested). The same instance may parse many buffers; state is
 * reset per call.
 */
class MatchFinder
{
  public:
    explicit MatchFinder(const MatchFinderConfig &config);

    /** Parses @p input into sequences; stats describe the work done. */
    Parse parse(ByteSpan input, MatchFinderStats *stats = nullptr);

    const MatchFinderConfig &config() const { return config_; }

  private:
    /** Length of the match between input[a...] and input[b...]. */
    static u32 matchLengthAt(ByteSpan input, std::size_t a, std::size_t b,
                             u32 cap);

    struct Candidate
    {
        u32 position = 0;
        u32 length = 0;
    };

    /** Best verified candidate at @p pos, or length 0. */
    Candidate bestMatchAt(ByteSpan input, std::size_t pos,
                          MatchFinderStats &stats);

    MatchFinderConfig config_;
    MatchHashTable table_;
    std::vector<u32> scratchCandidates_;
};

} // namespace cdpu::lz77

#endif // CDPU_LZ77_MATCH_FINDER_H_

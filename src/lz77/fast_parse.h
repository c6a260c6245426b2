/**
 * @file
 * The software codecs' LZ77 parse: MatchFinder's greedy/lazy parse,
 * specialized at compile time on (hash function, ways).
 *
 * MatchFinder is the hardware-parameterized reference — any geometry,
 * per-probe stats for the CDPU cycle models. Software compression asks
 * for no stats, so it runs this parser instead: one flat u32 table
 * with sets kept newest first (no FIFO victim array), inline hashing,
 * candidates read in place, and the kernel.* work counters added once
 * per parse. The result is MatchFinder's Parse exactly — same
 * sequences, same literalTailStart — which fastpath_fuzz_test checks
 * for every geometry the codecs' level tables produce.
 */

#ifndef CDPU_LZ77_FAST_PARSE_H_
#define CDPU_LZ77_FAST_PARSE_H_

#include "lz77/match_finder.h"

namespace cdpu::lz77
{

/**
 * True when fastParse() has a specialization for @p config: the
 * multiplicative hash at 1, 2 or 4 ways, or fibonacci64 at 1, 2, 4, 8
 * or 16 ways — the pairs snappy, zstdlite, flatelite and gipfeli use.
 */
bool hasFastParse(const MatchFinderConfig &config);

/**
 * MatchFinder(config).parse(input), computed by the specialization for
 * config's geometry; other geometries run MatchFinder itself.
 */
Parse fastParse(ByteSpan input, const MatchFinderConfig &config);

} // namespace cdpu::lz77

#endif // CDPU_LZ77_FAST_PARSE_H_

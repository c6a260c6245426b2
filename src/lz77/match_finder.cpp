#include "lz77/match_finder.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "common/mem.h"

namespace cdpu::lz77
{

Bytes
reconstruct(const Parse &parse, ByteSpan input)
{
    Bytes out;
    if (parse.inputSize == 0)
        return out;
    // Pre-size with the wild-copy slop margin so match replays can use
    // word-chunked copies; the slop is trimmed before returning.
    out.resize(parse.inputSize + mem::kWildCopySlop);
    u8 *dst = out.data();
    std::size_t op = 0;
    std::size_t cursor = 0;
    for (const auto &seq : parse.sequences) {
        std::memcpy(dst + op, input.data() + cursor, seq.literalLength);
        op += seq.literalLength;
        cursor += seq.literalLength;
        assert(seq.offset >= 1 && seq.offset <= op);
        if (seq.offset >= 8)
            mem::wildCopy(dst + op, dst + op - seq.offset,
                          seq.matchLength, dst + out.size());
        else
            mem::incrementalCopy(dst + op, seq.offset,
                                 seq.matchLength); // Overlap is legal.
        op += seq.matchLength;
        cursor += seq.matchLength;
    }
    std::memcpy(dst + op, input.data() + parse.literalTailStart,
                parse.inputSize - parse.literalTailStart);
    out.resize(parse.inputSize);
    return out;
}

MatchFinder::MatchFinder(const MatchFinderConfig &config)
    : config_(config), table_(config.hashTable)
{}

u32
MatchFinder::matchLengthAt(ByteSpan input, std::size_t a, std::size_t b,
                           u32 cap)
{
    // Word-wide compare: 8 bytes per probe, first mismatch located via
    // ctz. a < b, so both sides stay inside the buffer.
    const std::size_t limit =
        std::min<std::size_t>(cap, input.size() - b);
    return static_cast<u32>(
        mem::countMatchingBytes(input.data() + a, input.data() + b,
                                limit));
}

MatchFinder::Candidate
MatchFinder::bestMatchAt(ByteSpan input, std::size_t pos,
                         MatchFinderStats &stats)
{
    table_.lookupAndInsert(input, pos, scratchCandidates_);
    ++stats.positionsHashed;
    Candidate best;
    for (u32 cand : scratchCandidates_) {
        ++stats.candidateProbes;
        if (cand >= pos)
            continue; // Stale entry from a previous buffer position.
        std::size_t offset = pos - cand;
        if (offset > config_.windowSize)
            continue; // Beyond the history SRAM: unusable in hardware.
        u32 cap = static_cast<u32>(
            std::min<u64>(config_.maxMatchLength, input.size() - pos));
        u32 len = matchLengthAt(input, cand, pos, cap);
        if (len >= config_.minMatchLength && len > best.length) {
            best.position = cand;
            best.length = len;
        }
    }
    return best;
}

Parse
MatchFinder::parse(ByteSpan input, MatchFinderStats *stats_out)
{
    table_.reset();
    MatchFinderStats stats;
    Parse parse;
    parse.inputSize = input.size();
    // Typical corpora emit a match every few dozen bytes; reserving
    // up front kills the log2(n) reallocation churn of push_back
    // growth without overcommitting on incompressible data.
    parse.sequences.reserve(
        std::min<std::size_t>(input.size() / 32 + 4, 1u << 20));

    // Need minMatch hashable bytes plus slack for the 64-bit loads used
    // by the fibonacci64 hash.
    const std::size_t hash_bytes =
        config_.hashTable.hashFunction == HashFunction::fibonacci64 ? 8 : 4;
    if (input.size() < hash_bytes + 1) {
        parse.literalTailStart = 0;
        stats.literalBytes = input.size();
        if (stats_out)
            *stats_out = stats;
        return parse;
    }
    const std::size_t hash_limit = input.size() - hash_bytes;

    std::size_t literal_start = 0;
    std::size_t pos = 0;
    u32 miss_streak = 0;
    u64 inserts = 0;

    while (pos <= hash_limit) {
        Candidate best = bestMatchAt(input, pos, stats);

        if (best.length == 0) {
            ++miss_streak;
            // Snappy-style acceleration: step further through data that
            // keeps missing, trading ratio for speed (software only).
            std::size_t step = 1;
            if (config_.skipAcceleration)
                step = 1 + (miss_streak >> 5);
            pos += step;
            continue;
        }

        if (config_.lazyMatching && pos + 1 <= hash_limit &&
            best.length < 64) {
            // Peek one position ahead; prefer a strictly longer match
            // there (classic one-step lazy evaluation).
            Candidate next = bestMatchAt(input, pos + 1, stats);
            if (next.length > best.length + 1) {
                ++pos;
                best = next;
            }
        }

        miss_streak = 0;
        Sequence seq;
        seq.literalLength = static_cast<u32>(pos - literal_start);
        seq.matchLength = best.length;
        seq.offset = static_cast<u32>(pos - best.position);
        parse.sequences.push_back(seq);
        stats.literalBytes += seq.literalLength;
        stats.matchBytes += seq.matchLength;
        ++stats.matchesEmitted;

        // Insert a few positions inside the match so future data can
        // reference it, then jump past it (greedy codecs insert sparsely;
        // inserting every position is the chain-table regime).
        std::size_t match_end = pos + best.length;
        std::size_t insert_stride = best.length >= 64 ? 8 : 2;
        for (std::size_t p = pos + 1;
             p < match_end && p <= hash_limit;
             p += insert_stride) {
            table_.insert(input, p);
            ++inserts;
        }
        pos = match_end;
        literal_start = pos;
    }

    parse.literalTailStart = literal_start;
    stats.literalBytes += input.size() - literal_start;
    // Hashing is scalar work at every tier, counted as fastParse counts
    // its own: every lookup and every in-match insert.
    mem::kernelStats().tierHashPositions[0] +=
        stats.positionsHashed + inserts;
    if (stats_out)
        *stats_out = stats;
    return parse;
}

} // namespace cdpu::lz77

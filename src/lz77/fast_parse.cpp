#include "lz77/fast_parse.h"

#include <algorithm>
#include <cstring>

#include "common/mem.h"

namespace cdpu::lz77
{

namespace
{

/** MatchHashTable::hashAt for one hash function; @p shift drops the
 *  product's low bits (32 or 64 minus log2Entries). */
template <HashFunction kHash>
inline u32
hashAt(const u8 *p, unsigned shift)
{
    if constexpr (kHash == HashFunction::multiplicative) {
        return multiplicativeHash(p, shift);
    } else {
        static_assert(kHash == HashFunction::fibonacci64);
        return fibonacci64Hash(p, shift);
    }
}

/**
 * MatchFinder::parse, step for step: the same probes, inserts and FIFO
 * evictions in the same order, so the same Parse. Only the bookkeeping
 * differs — sets are kept newest first instead of behind a victim
 * pointer, slots hold positions offset by the table's base, and a
 * candidate that cannot beat the best match so far is dropped before
 * its word compare.
 */
template <HashFunction kHash, unsigned kWays>
void
parseWith(ByteSpan input, const MatchFinderConfig &config,
          ParseTable &table, Parse &parse)
{
    constexpr std::size_t kHashBytes =
        kHash == HashFunction::fibonacci64 ? 8 : 4;

    parse.sequences.clear();
    parse.literalTailStart = 0;
    parse.inputSize = input.size();
    if (input.size() < kHashBytes + 1)
        return;
    parse.sequences.reserve(
        std::min<std::size_t>(input.size() / 32 + 4, 1u << 20));

    const u8 *const base = input.data();
    const std::size_t size = input.size();
    const std::size_t hash_limit = size - kHashBytes;
    const std::size_t window = config.windowSize;
    const u32 min_match = config.minMatchLength;
    const u32 max_match = config.maxMatchLength;
    const bool lazy = config.lazyMatching;
    const bool skip = config.skipAcceleration;
    // With minMatchLength >= 4 a winner matches the first four bytes.
    const bool word_filter = min_match >= 4;
    const unsigned shift =
        (kHash == HashFunction::fibonacci64 ? 64 : 32) -
        config.hashTable.log2Entries;
    // Each set keeps its positions newest first. Shifting the set on
    // insert evicts the oldest, as MatchHashTable's FIFO victim pointer
    // does, and leaves no victim array to load. A slot holds
    // slot_base + position; read relative to slot_base, a slot from an
    // earlier parse (or a zero slot) is at least 2^31, which is never
    // below the cursor, so the candidate test rejects it without a
    // test of its own.
    u32 slot_base = 0;
    u32 *const slots = table.prepare(config.hashTable.entries() * kWays,
                                     size, slot_base);
    u64 hashed = 0;
    u64 words = 0;

    struct Match
    {
        u32 position = 0;
        u32 length = 0;
    };

    auto set_of = [&](std::size_t pos) {
        ++hashed;
        return slots +
               std::size_t{hashAt<kHash>(base + pos, shift)} * kWays;
    };
    auto record = [&](u32 *set, std::size_t pos) {
        std::memmove(set + 1, set, (kWays - 1) * sizeof(u32));
        set[0] = static_cast<u32>(slot_base + pos);
    };

    // MatchFinder::bestMatchAt: candidates most recent first, then
    // record pos.
    auto best_match_at = [&](std::size_t pos) {
        u32 *set = set_of(pos);
        const u32 limit =
            static_cast<u32>(std::min<u64>(max_match, size - pos));
        const u32 head = mem::loadU32(base + pos);
        Match best;
        for (unsigned i = 0; i < kWays; ++i) {
            const u32 cand = set[i] - slot_base;
            if (cand >= pos || pos - cand > window)
                continue;
            // A winner is longer than best, so it also matches at byte
            // best.length (and, given word_filter, in its first four
            // bytes; pos <= hash_limit leaves four to read).
            if (best.length == limit ||
                base[cand + best.length] != base[pos + best.length] ||
                (word_filter && mem::loadU32(base + cand) != head))
                continue;
            const u32 len = static_cast<u32>(mem::countMatchingBytes(
                base + cand, base + pos, limit, words));
            if (len >= min_match && len > best.length)
                best = {cand, len};
        }
        record(set, pos);
        return best;
    };

    std::size_t literal_start = 0;
    std::size_t pos = 0;
    u32 miss_streak = 0;
    while (pos <= hash_limit) {
        Match best = best_match_at(pos);
        if (best.length == 0) {
            ++miss_streak;
            pos += skip ? 1 + (miss_streak >> 5) : 1;
            continue;
        }
        if (lazy && pos + 1 <= hash_limit && best.length < 64) {
            const Match next = best_match_at(pos + 1);
            if (next.length > best.length + 1) {
                ++pos;
                best = next;
            }
        }
        miss_streak = 0;
        parse.sequences.push_back(
            {.literalLength = static_cast<u32>(pos - literal_start),
             .matchLength = best.length,
             .offset = static_cast<u32>(pos - best.position)});
        const std::size_t match_end = pos + best.length;
        const std::size_t stride = best.length >= 64 ? 8 : 2;
        for (std::size_t p = pos + 1; p < match_end && p <= hash_limit;
             p += stride)
            record(set_of(p), p);
        pos = match_end;
        literal_start = pos;
    }
    parse.literalTailStart = literal_start;

    // Inline hashing is scalar work, whatever tier is active.
    mem::KernelStats &stats = mem::kernelStats();
    stats.tierHashPositions[0] += hashed;
    stats.matchWordCompares += words;
}

using ParseFn = void (*)(ByteSpan, const MatchFinderConfig &,
                         ParseTable &, Parse &);

ParseFn
specialization(const HashTableConfig &table)
{
    using enum HashFunction;
    switch (table.hashFunction) {
      case multiplicative:
        switch (table.ways) {
          case 1: return &parseWith<multiplicative, 1>;
          case 2: return &parseWith<multiplicative, 2>;
          case 4: return &parseWith<multiplicative, 4>;
        }
        break;
      case fibonacci64:
        switch (table.ways) {
          case 1: return &parseWith<fibonacci64, 1>;
          case 2: return &parseWith<fibonacci64, 2>;
          case 4: return &parseWith<fibonacci64, 4>;
          case 8: return &parseWith<fibonacci64, 8>;
          case 16: return &parseWith<fibonacci64, 16>;
        }
        break;
      case xorShift:
        break;
    }
    return nullptr;
}

} // namespace

u32 *
ParseTable::prepare(std::size_t slots, std::size_t input_size, u32 &base)
{
    if (base_ + input_size > kResetBase) {
        std::fill(slots_.begin(), slots_.end(), 0u);
        base_ = 1;
    }
    if (slots_.size() < slots)
        slots_.resize(slots, 0u);
    base = static_cast<u32>(base_);
    base_ += input_size;
    return slots_.data();
}

bool
hasFastParse(const MatchFinderConfig &config)
{
    return specialization(config.hashTable) != nullptr;
}

void
fastParse(ByteSpan input, const MatchFinderConfig &config,
          ParseTable &table, Parse &parse)
{
    const ParseFn parse_with = specialization(config.hashTable);
    if (!parse_with) {
        parse = MatchFinder(config).parse(input);
        return;
    }
    const std::size_t bytes = config.hashTable.entries() *
                              config.hashTable.ways * sizeof(u32);
    if (bytes <= ParseTable::kMaxRetainedBytes) {
        parse_with(input, config, table, parse);
        return;
    }
    ParseTable own;
    parse_with(input, config, own, parse);
}

Parse
fastParse(ByteSpan input, const MatchFinderConfig &config)
{
    ParseTable table;
    Parse parse;
    fastParse(input, config, table, parse);
    return parse;
}

} // namespace cdpu::lz77

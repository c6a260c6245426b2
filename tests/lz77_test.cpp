/**
 * @file
 * Unit and property tests for the LZ77 hash table and match finder.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "battery.h"
#include "corpus/generators.h"
#include "lz77/match_finder.h"

namespace cdpu::lz77
{
namespace
{

Bytes
ascii(const char *s)
{
    return Bytes(s, s + strlen(s));
}

TEST(HashTableTest, LookupReturnsInsertedPosition)
{
    HashTableConfig config{.log2Entries = 10, .ways = 1};
    MatchHashTable table(config);
    Bytes data = ascii("abcdabcdabcd");
    std::vector<u32> candidates;

    table.lookupAndInsert(data, 0, candidates);
    EXPECT_TRUE(candidates.empty());

    // Position 4 has the same 4-byte prefix "abcd" as position 0.
    table.lookupAndInsert(data, 4, candidates);
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], 0u);
}

TEST(HashTableTest, DirectMappedEvicts)
{
    HashTableConfig config{.log2Entries = 10, .ways = 1};
    MatchHashTable table(config);
    Bytes data = ascii("abcdXXXXabcdYYYYabcd");
    std::vector<u32> candidates;
    table.lookupAndInsert(data, 0, candidates);  // insert pos 0
    table.lookupAndInsert(data, 8, candidates);  // evicts 0, inserts 8
    table.lookupAndInsert(data, 16, candidates); // sees only 8
    ASSERT_EQ(candidates.size(), 1u);
    EXPECT_EQ(candidates[0], 8u);
}

TEST(HashTableTest, TwoWayKeepsBothCandidates)
{
    HashTableConfig config{.log2Entries = 10, .ways = 2};
    MatchHashTable table(config);
    Bytes data = ascii("abcdXXXXabcdYYYYabcd");
    std::vector<u32> candidates;
    table.lookupAndInsert(data, 0, candidates);
    table.lookupAndInsert(data, 8, candidates);
    table.lookupAndInsert(data, 16, candidates);
    ASSERT_EQ(candidates.size(), 2u);
    // Most recent first.
    EXPECT_EQ(candidates[0], 8u);
    EXPECT_EQ(candidates[1], 0u);
}

TEST(HashTableTest, ResetForgetsEverything)
{
    HashTableConfig config{.log2Entries = 8, .ways = 1};
    MatchHashTable table(config);
    Bytes data = ascii("abcdabcd");
    std::vector<u32> candidates;
    table.lookupAndInsert(data, 0, candidates);
    table.reset();
    table.lookupAndInsert(data, 4, candidates);
    EXPECT_TRUE(candidates.empty());
    EXPECT_EQ(table.probeCount(), 0u);
}

TEST(HashTableTest, HashFunctionsStayInRange)
{
    Bytes data = ascii("the quick brown fox jumps over it");
    for (auto fn : {HashFunction::multiplicative, HashFunction::xorShift,
                    HashFunction::fibonacci64}) {
        HashTableConfig config{.log2Entries = 9, .ways = 1,
                               .hashFunction = fn};
        MatchHashTable table(config);
        for (std::size_t pos = 0; pos + 8 <= data.size(); ++pos)
            EXPECT_LT(table.hashAt(data, pos), 1u << 9);
    }
}

TEST(MatchFinderTest, FindsSimpleRepeat)
{
    MatchFinderConfig config;
    MatchFinder finder(config);
    Bytes data = ascii("HelloHelloHelloHelloHello");
    Parse parse = finder.parse(data);
    ASSERT_FALSE(parse.sequences.empty());
    const auto &seq = parse.sequences[0];
    EXPECT_EQ(seq.literalLength, 5u); // first "Hello" is literal
    EXPECT_EQ(seq.offset, 5u);
    EXPECT_GE(seq.matchLength, 4u);
    EXPECT_EQ(reconstruct(parse, data), data);
}

TEST(MatchFinderTest, EmptyAndTinyInputs)
{
    MatchFinder finder(MatchFinderConfig{});
    for (std::size_t n : {0u, 1u, 2u, 3u, 4u}) {
        Bytes data(n, 'x');
        Parse parse = finder.parse(data);
        EXPECT_EQ(reconstruct(parse, data), data) << n;
    }
}

TEST(MatchFinderTest, WindowBoundsOffsets)
{
    // Repeat distance 1000 with a 512-byte window: match unusable.
    Bytes motif;
    Rng rng(5);
    motif = corpus::generate(corpus::DataClass::randomBytes, 1000, rng);
    Bytes data = motif;
    data.insert(data.end(), motif.begin(), motif.end());

    MatchFinderConfig small_window;
    small_window.windowSize = 512;
    MatchFinder finder(small_window);
    Parse parse = finder.parse(data, nullptr);
    for (const auto &seq : parse.sequences)
        EXPECT_LE(seq.offset, 512u);
    EXPECT_EQ(reconstruct(parse, data), data);

    MatchFinderConfig big_window;
    big_window.windowSize = 64 * kKiB;
    MatchFinder finder2(big_window);
    Parse parse2 = finder2.parse(data, nullptr);
    bool found_long = false;
    for (const auto &seq : parse2.sequences)
        found_long |= seq.offset == 1000;
    EXPECT_TRUE(found_long);
}

TEST(MatchFinderTest, StatsAccounting)
{
    MatchFinderConfig config;
    MatchFinder finder(config);
    Rng rng(11);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 32 * kKiB,
                                  rng);
    MatchFinderStats stats;
    Parse parse = finder.parse(data, &stats);
    EXPECT_GT(stats.positionsHashed, 0u);
    EXPECT_GT(stats.matchesEmitted, 0u);
    EXPECT_EQ(stats.matchBytes + stats.literalBytes, data.size());
    EXPECT_EQ(stats.matchesEmitted, parse.sequences.size());
}

TEST(MatchFinderTest, LazyNeverWorseOnText)
{
    Rng rng(13);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 64 * kKiB,
                                  rng);
    MatchFinderConfig greedy;
    greedy.skipAcceleration = false;
    MatchFinderConfig lazy = greedy;
    lazy.lazyMatching = true;

    MatchFinderStats gs;
    MatchFinderStats ls;
    MatchFinder(greedy).parse(data, &gs);
    MatchFinder(lazy).parse(data, &ls);
    // Lazy matching should cover at least roughly as many bytes with
    // matches as greedy (small slack for heuristic interactions).
    EXPECT_GE(ls.matchBytes + ls.matchBytes / 20 + 64, gs.matchBytes);
}

struct RoundTripCase
{
    corpus::DataClass cls;
    std::size_t size;
    u64 seed;
};

class MatchFinderRoundTrip
    : public ::testing::TestWithParam<RoundTripCase>
{};

TEST_P(MatchFinderRoundTrip, ReconstructionIsExact)
{
    const auto &param = GetParam();
    Rng rng(param.seed);
    Bytes data = corpus::generate(param.cls, param.size, rng);

    for (unsigned log2_entries : {9u, 14u}) {
        for (unsigned ways : {1u, 2u}) {
            MatchFinderConfig config;
            config.hashTable.log2Entries = log2_entries;
            config.hashTable.ways = ways;
            MatchFinder finder(config);
            Parse parse = finder.parse(data);
            EXPECT_EQ(reconstruct(parse, data), data)
                << corpus::dataClassName(param.cls) << " entries=2^"
                << log2_entries << " ways=" << ways;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, MatchFinderRoundTrip,
    ::testing::Values(
        RoundTripCase{corpus::DataClass::textLike, 40 * kKiB, 1},
        RoundTripCase{corpus::DataClass::logLike, 40 * kKiB, 2},
        RoundTripCase{corpus::DataClass::numericTabular, 40 * kKiB, 3},
        RoundTripCase{corpus::DataClass::protobufLike, 40 * kKiB, 4},
        RoundTripCase{corpus::DataClass::randomBytes, 40 * kKiB, 5},
        RoundTripCase{corpus::DataClass::repetitive, 40 * kKiB, 6},
        RoundTripCase{corpus::DataClass::textLike, 333, 7},
        RoundTripCase{corpus::DataClass::repetitive, 5, 8}));

TEST(MatchFinderTest, HashFunctionSweepRoundTrips)
{
    Rng rng(21);
    Bytes data = corpus::generateMixed(96 * kKiB, rng);
    for (auto fn : {HashFunction::multiplicative, HashFunction::xorShift,
                    HashFunction::fibonacci64}) {
        MatchFinderConfig config;
        config.hashTable.hashFunction = fn;
        MatchFinder finder(config);
        Parse parse = finder.parse(data);
        EXPECT_EQ(reconstruct(parse, data), data);
    }
}

/** One pinned parse geometry and the digest of its parses. */
struct PinnedGeometry
{
    HashFunction hash;
    unsigned ways;
    bool lazy;
    unsigned log2Entries;
    u64 digest;
};

TEST(MatchFinderTest, ParsesMatchPinnedDigests)
{
    // MatchFinder is the oracle for the CDPU cycle models and the
    // Fig. 12/13/15 sweeps: its sequences, tail and stats are pinned
    // per geometry over every corpus class, so a change to how it
    // hashes or probes cannot move a parse unnoticed.
    using enum HashFunction;
    const PinnedGeometry pinned[] = {
        {multiplicative, 1, false, 9, 0x32883c2d9a2bf42cull},
        {multiplicative, 1, false, 14, 0x1bbbb9f84b9364f5ull},
        {multiplicative, 1, true, 9, 0x916681784e720f16ull},
        {multiplicative, 1, true, 14, 0xd913bf1f4dad32bbull},
        {multiplicative, 2, false, 9, 0x016b5784c4438afcull},
        {multiplicative, 2, false, 14, 0x5c4528301f2d8ab5ull},
        {multiplicative, 2, true, 9, 0xa12ae6993e433b17ull},
        {multiplicative, 2, true, 14, 0x802b25dab9474a47ull},
        {multiplicative, 4, false, 9, 0x2f76ad26e4b20863ull},
        {multiplicative, 4, false, 14, 0x983f01d4a77f71fbull},
        {multiplicative, 4, true, 9, 0x9351d4c0495d952full},
        {multiplicative, 4, true, 14, 0x2991567e5d15789dull},
        {multiplicative, 8, false, 9, 0x570b8c7c8409d15eull},
        {multiplicative, 8, false, 14, 0xb494254c171c79e5ull},
        {multiplicative, 8, true, 9, 0x70e5e6ab48c27755ull},
        {multiplicative, 8, true, 14, 0x5ae8017e4d103c5full},
        {xorShift, 1, false, 9, 0xabbdbb680c7334c2ull},
        {xorShift, 1, false, 14, 0xf017cdec7942d9d0ull},
        {xorShift, 1, true, 9, 0xfb58e976cd209396ull},
        {xorShift, 1, true, 14, 0x9bcb6d04fb24b21aull},
        {xorShift, 2, false, 9, 0xef27927b4004c19full},
        {xorShift, 2, false, 14, 0x087cbf9b3730544cull},
        {xorShift, 2, true, 9, 0x060990add61e3df8ull},
        {xorShift, 2, true, 14, 0x3f7e8a84b64a05ffull},
        {xorShift, 4, false, 9, 0x2d54d660b61755cfull},
        {xorShift, 4, false, 14, 0xb77c9ce1e61cb9aaull},
        {xorShift, 4, true, 9, 0xfb2224fa985254beull},
        {xorShift, 4, true, 14, 0x73b4395b3099a121ull},
        {xorShift, 8, false, 9, 0x8b495774de1181a0ull},
        {xorShift, 8, false, 14, 0xe411f9c1f332f241ull},
        {xorShift, 8, true, 9, 0xe55d9e49b4910a2aull},
        {xorShift, 8, true, 14, 0xd5ba87cac19a0861ull},
        {fibonacci64, 1, false, 9, 0xe7c9acd8c4d53383ull},
        {fibonacci64, 1, false, 14, 0xaa63de6060f83257ull},
        {fibonacci64, 1, true, 9, 0x445ea751762e39f0ull},
        {fibonacci64, 1, true, 14, 0x7ed9d7c4d784d995ull},
        {fibonacci64, 2, false, 9, 0x9eab30dfa7f46ac5ull},
        {fibonacci64, 2, false, 14, 0xb0fdb0f200f9b06full},
        {fibonacci64, 2, true, 9, 0x6b5575e0a982ac93ull},
        {fibonacci64, 2, true, 14, 0x94beec908b9fa2dcull},
        {fibonacci64, 4, false, 9, 0xa0a84f9d55cf6997ull},
        {fibonacci64, 4, false, 14, 0x3b6b9d187a5845e0ull},
        {fibonacci64, 4, true, 9, 0xc28a9c71dca48d59ull},
        {fibonacci64, 4, true, 14, 0xc9e9e73b5cb65682ull},
        {fibonacci64, 8, false, 9, 0x47f131f6e8b91518ull},
        {fibonacci64, 8, false, 14, 0x23335180d3dc256full},
        {fibonacci64, 8, true, 9, 0x337ff41e43e75506ull},
        {fibonacci64, 8, true, 14, 0xfbd00c5b27237680ull},
    };
    Rng rng(227);
    std::vector<Bytes> inputs;
    for (auto cls : corpus::allDataClasses())
        inputs.push_back(corpus::generate(cls, 48 * kKiB, rng));
    std::size_t index = 0;
    for (HashFunction hash : {multiplicative, xorShift, fibonacci64}) {
        for (unsigned ways : {1u, 2u, 4u, 8u}) {
            for (bool lazy : {false, true}) {
                for (unsigned log2_entries : {9u, 14u}) {
                    MatchFinderConfig config;
                    config.hashTable.hashFunction = hash;
                    config.hashTable.ways = ways;
                    config.hashTable.log2Entries = log2_entries;
                    config.hashTable.minMatch = hash == fibonacci64 ? 5 : 4;
                    config.lazyMatching = lazy;
                    MatchFinder finder(config);
                    battery::Fnv1a digest;
                    for (const Bytes &input : inputs) {
                        MatchFinderStats stats;
                        const Parse parse = finder.parse(input, &stats);
                        for (const Sequence &seq : parse.sequences) {
                            digest.add(seq.literalLength);
                            digest.add(seq.matchLength);
                            digest.add(seq.offset);
                        }
                        digest.add(parse.literalTailStart);
                        digest.add(stats.positionsHashed);
                        digest.add(stats.candidateProbes);
                        digest.add(stats.matchesEmitted);
                        digest.add(stats.matchBytes);
                        digest.add(stats.literalBytes);
                    }
                    ASSERT_LT(index, std::size(pinned));
                    const PinnedGeometry &want = pinned[index];
                    ASSERT_EQ(want.hash, hash);
                    ASSERT_EQ(want.ways, ways);
                    ASSERT_EQ(want.lazy, lazy);
                    ASSERT_EQ(want.log2Entries, log2_entries);
                    EXPECT_EQ(digest.state, want.digest)
                        << "hash " << static_cast<int>(hash) << ", " << ways
                        << " ways, lazy " << lazy << ", 2^" << log2_entries
                        << " entries";
                    ++index;
                }
            }
        }
    }
    EXPECT_EQ(index, std::size(pinned));
}

TEST(MatchFinderTest, MoreHashEntriesNeverHurtMuch)
{
    // Figure 13's premise: fewer hash entries -> more collisions ->
    // fewer match bytes. Verify the monotone trend on templated data.
    Rng rng(31);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 128 * kKiB,
                                  rng);
    u64 prev_match_bytes = 0;
    for (unsigned log2_entries : {6u, 10u, 14u}) {
        MatchFinderConfig config;
        config.hashTable.log2Entries = log2_entries;
        config.skipAcceleration = false;
        MatchFinderStats stats;
        MatchFinder(config).parse(data, &stats);
        EXPECT_GE(stats.matchBytes + stats.matchBytes / 10,
                  prev_match_bytes)
            << "entries=2^" << log2_entries;
        prev_match_bytes = stats.matchBytes;
    }
}

} // namespace
} // namespace cdpu::lz77

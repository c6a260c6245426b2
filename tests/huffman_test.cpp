/**
 * @file
 * Huffman code construction, encode/decode round-trips, length limiting,
 * and canonical-code invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <queue>
#include <string>

#include "corpus/generators.h"
#include "huffman/decoder.h"
#include "huffman/encoder.h"

namespace cdpu::huffman
{
namespace
{

double
kraftSum(const CodeTable &table)
{
    double sum = 0;
    for (u8 len : table.lengths)
        if (len)
            sum += std::pow(2.0, -static_cast<double>(len));
    return sum;
}

TEST(CodeBuilderTest, RejectsEmptyAlphabet)
{
    std::vector<u64> freqs(256, 0);
    EXPECT_FALSE(buildCodeTable(freqs).ok());
}

TEST(CodeBuilderTest, SingleSymbolGetsOneBit)
{
    std::vector<u64> freqs(256, 0);
    freqs['z'] = 10;
    auto table = buildCodeTable(freqs);
    ASSERT_TRUE(table.ok());
    EXPECT_EQ(table.value().lengths['z'], 1);
    EXPECT_EQ(table.value().maxBits, 1u);
}

TEST(CodeBuilderTest, SkewedFrequenciesGetShortCodes)
{
    std::vector<u64> freqs(256, 0);
    freqs['a'] = 1000;
    freqs['b'] = 10;
    freqs['c'] = 10;
    freqs['d'] = 1;
    auto table = buildCodeTable(freqs);
    ASSERT_TRUE(table.ok());
    EXPECT_LT(table.value().lengths['a'], table.value().lengths['d']);
    EXPECT_NEAR(kraftSum(table.value()), 1.0, 1e-9);
}

TEST(CodeBuilderTest, LengthLimitIsEnforced)
{
    // Fibonacci-ish frequencies force very deep unconstrained trees.
    std::vector<u64> freqs(256, 0);
    u64 a = 1;
    u64 b = 1;
    for (int sym = 0; sym < 40; ++sym) {
        freqs[sym] = a;
        u64 next = a + b;
        a = b;
        b = next;
    }
    for (unsigned max_bits : {11u, 12u, 15u}) {
        auto table = buildCodeTable(freqs, max_bits);
        ASSERT_TRUE(table.ok()) << max_bits;
        for (u8 len : table.value().lengths)
            EXPECT_LE(len, max_bits);
        EXPECT_LE(kraftSum(table.value()), 1.0 + 1e-9);
    }
}

TEST(CodeBuilderTest, RejectsAlphabetTooLargeForMaxBits)
{
    std::vector<u64> freqs(256, 1); // 256 symbols cannot fit in 7 bits
    EXPECT_FALSE(buildCodeTable(freqs, 7).ok());
    EXPECT_TRUE(buildCodeTable(freqs, 8).ok());
}

TEST(CodeBuilderTest, UniformFrequenciesGiveFlatCode)
{
    std::vector<u64> freqs(16, 5);
    auto table = buildCodeTable(freqs, 11);
    ASSERT_TRUE(table.ok());
    for (u8 len : table.value().lengths)
        EXPECT_EQ(len, 4);
}

TEST(CodeBuilderTest, CodesFromLengthsMatchesBuild)
{
    std::vector<u64> freqs(256, 0);
    for (int sym = 0; sym < 20; ++sym)
        freqs[sym] = 1 + sym * sym;
    auto built = buildCodeTable(freqs);
    ASSERT_TRUE(built.ok());
    auto rebuilt = codesFromLengths(built.value().lengths);
    ASSERT_TRUE(rebuilt.ok());
    EXPECT_EQ(built.value().codes, rebuilt.value().codes);
    EXPECT_EQ(built.value().maxBits, rebuilt.value().maxBits);
}

TEST(CodeBuilderTest, CodesFromLengthsRejectsOverfull)
{
    std::vector<u8> lengths = {1, 1, 1}; // Kraft sum 1.5
    EXPECT_FALSE(codesFromLengths(lengths).ok());
}

TEST(CodeBuilderTest, CodesFromLengthsRejectsIncomplete)
{
    std::vector<u8> lengths = {2, 2, 2}; // Kraft sum 0.75
    EXPECT_FALSE(codesFromLengths(lengths).ok());
}

/**
 * The oracle for buildCodeTable's lengths: the binary-heap Huffman
 * construction it replaced. Leaves are numbered in symbol order,
 * internal nodes in creation order after them, and the heap pops the
 * smallest (weight, node number) pair; limitLengths then clamps.
 */
std::vector<u8>
heapLengths(const std::vector<u64> &freqs, unsigned max_bits)
{
    struct Node
    {
        u64 weight;
        i32 parent = -1;
        u8 depth = 0;
    };
    std::vector<Node> nodes;
    std::vector<std::size_t> leaf_node(freqs.size(),
                                       static_cast<std::size_t>(-1));
    using HeapItem = std::pair<u64, std::size_t>; // (weight, node)
    std::priority_queue<HeapItem, std::vector<HeapItem>,
                        std::greater<HeapItem>>
        heap;
    for (std::size_t sym = 0; sym < freqs.size(); ++sym) {
        if (freqs[sym] == 0)
            continue;
        leaf_node[sym] = nodes.size();
        nodes.push_back({freqs[sym]});
        heap.push({freqs[sym], nodes.size() - 1});
    }
    std::vector<u8> lengths(freqs.size(), 0);
    if (nodes.size() == 1) {
        for (std::size_t sym = 0; sym < freqs.size(); ++sym)
            if (freqs[sym] != 0)
                lengths[sym] = 1;
        return lengths;
    }
    while (heap.size() > 1) {
        auto [wa, a] = heap.top();
        heap.pop();
        auto [wb, b] = heap.top();
        heap.pop();
        const std::size_t parent = nodes.size();
        nodes.push_back({wa + wb});
        nodes[a].parent = static_cast<i32>(parent);
        nodes[b].parent = static_cast<i32>(parent);
        heap.push({wa + wb, parent});
    }
    for (std::size_t i = nodes.size(); i-- > 0;)
        if (nodes[i].parent >= 0)
            nodes[i].depth =
                static_cast<u8>(nodes[nodes[i].parent].depth + 1);
    for (std::size_t sym = 0; sym < freqs.size(); ++sym)
        if (leaf_node[sym] != static_cast<std::size_t>(-1))
            lengths[sym] = nodes[leaf_node[sym]].depth;
    limitLengths(lengths, max_bits);
    return lengths;
}

void
expectMatchesHeapOracle(const std::vector<u64> &freqs, unsigned max_bits)
{
    auto table = buildCodeTable(freqs, max_bits);
    ASSERT_TRUE(table.ok()) << max_bits;
    const std::vector<u8> expected = heapLengths(freqs, max_bits);
    ASSERT_EQ(table.value().lengths, expected) << "max_bits " << max_bits;
    EXPECT_EQ(table.value().codes, codesFromLengths(expected).value().codes);
}

TEST(CodeBuilderTest, MatchesHeapOracleOnRandomHistograms)
{
    // Weights are drawn log-uniformly up to 2^20, so small equal
    // weights (ties the merge order must break like the heap) and
    // zeros are common.
    Rng rng(2025);
    for (int trial = 0; trial < 3000; ++trial) {
        std::vector<u64> freqs(2 + rng.below(285));
        for (u64 &f : freqs)
            f = rng.below((u64{1} << rng.below(21)) + 1);
        if (std::all_of(freqs.begin(), freqs.end(),
                        [](u64 f) { return f == 0; }))
            freqs[rng.below(freqs.size())] = 1;
        for (unsigned max_bits : {11u, 14u, 15u}) {
            SCOPED_TRACE(trial);
            expectMatchesHeapOracle(freqs, max_bits);
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(CodeBuilderTest, MatchesHeapOracleOnCorpusLiteralHistograms)
{
    for (corpus::DataClass cls : corpus::allDataClasses()) {
        for (std::size_t size : {1 * kKiB, 4 * kKiB}) {
            Rng rng(static_cast<u64>(cls) * 31 + size);
            const Bytes data = corpus::generate(cls, size, rng);
            SCOPED_TRACE(corpus::dataClassName(cls) + " " +
                         std::to_string(size));
            for (unsigned max_bits : {11u, 14u, 15u})
                expectMatchesHeapOracle(countFrequencies(data), max_bits);
        }
    }
}

/** The one-bit-per-iteration loop reverseBits replaced: the oracle
 *  for its byte-table form. */
u16
loopReverseBits(u16 v, unsigned nbits)
{
    u16 r = 0;
    for (unsigned i = 0; i < nbits; ++i) {
        r = static_cast<u16>((r << 1) | (v & 1));
        v >>= 1;
    }
    return r;
}

TEST(CodeBuilderTest, ReverseBits)
{
    EXPECT_EQ(reverseBits(0b1, 1), 0b1);
    EXPECT_EQ(reverseBits(0b110, 3), 0b011);
    EXPECT_EQ(reverseBits(0b10000000, 8), 0b00000001);
    // Every value at every width a code can have, bits above the width
    // included (both forms ignore them).
    for (unsigned width = 0; width <= 15; ++width) {
        for (u32 value = 0; value <= 0xffff; ++value) {
            const u16 v = static_cast<u16>(value);
            ASSERT_EQ(reverseBits(v, width), loopReverseBits(v, width))
                << "value " << value << ", width " << width;
        }
    }
}

TEST(EncoderTest, BitCostMatchesLengths)
{
    std::vector<u64> freqs(256, 0);
    freqs['x'] = 3;
    freqs['y'] = 1;
    auto table = buildCodeTable(freqs);
    ASSERT_TRUE(table.ok());
    Bytes stream = {'x', 'x', 'y'};
    auto cost = encodedBitCost(table.value(), countFrequencies(stream));
    ASSERT_TRUE(cost.ok());
    u64 expected = 2 * table.value().lengths['x'] +
                   table.value().lengths['y'];
    EXPECT_EQ(cost.value(), expected);
    // The count is what is priced: the encoder writes exactly this many.
    BitWriter writer;
    encode(table.value(), stream, writer);
    EXPECT_EQ(writer.bitCount(), expected);
    // A symbol that occurs but has no code cannot be priced.
    std::vector<u64> uncoded(256, 0);
    uncoded['z'] = 1;
    EXPECT_FALSE(encodedBitCost(table.value(), uncoded).ok());
}

TEST(DecoderTest, InvalidPrefixRejected)
{
    // Incomplete-by-design single symbol table: pattern "1" never maps
    // to a symbol when the code for 'q' is "0".
    std::vector<u64> freqs(256, 0);
    freqs['q'] = 7;
    auto table = buildCodeTable(freqs);
    ASSERT_TRUE(table.ok());
    auto decoder = Decoder::build(table.value());
    ASSERT_TRUE(decoder.ok());

    BitWriter writer;
    writer.put(1, 1); // not 'q''s code if its code is 0
    Bytes stream = writer.finish();
    BitReader reader(stream);
    Bytes out;
    u16 code = table.value().codes['q'];
    if (code == 0) {
        EXPECT_FALSE(decoder.value().decode(reader, 1, out).ok());
    }
}

class HuffmanRoundTrip
    : public ::testing::TestWithParam<corpus::DataClass>
{};

TEST_P(HuffmanRoundTrip, EncodeDecodeIsIdentity)
{
    Rng rng(static_cast<u64>(GetParam()) + 100);
    Bytes data = corpus::generate(GetParam(), 64 * kKiB, rng);

    auto freqs = countFrequencies(data);
    auto table = buildCodeTable(freqs);
    ASSERT_TRUE(table.ok());

    BitWriter writer;
    encode(table.value(), data, writer);
    Bytes stream = writer.finish();

    auto decoder = Decoder::build(table.value());
    ASSERT_TRUE(decoder.ok());
    BitReader reader(stream);
    Bytes out;
    ASSERT_TRUE(decoder.value().decode(reader, data.size(), out).ok());
    EXPECT_EQ(out, data);

    // Entropy sanity: text must compress, random must not beat 8b/sym
    // by much.
    double bits_per_symbol =
        static_cast<double>(stream.size()) * 8 / data.size();
    if (GetParam() == corpus::DataClass::textLike) {
        EXPECT_LT(bits_per_symbol, 5.0);
    }
    EXPECT_GT(bits_per_symbol, 0.5);
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, HuffmanRoundTrip,
    ::testing::Values(corpus::DataClass::textLike,
                      corpus::DataClass::logLike,
                      corpus::DataClass::numericTabular,
                      corpus::DataClass::protobufLike,
                      corpus::DataClass::randomBytes,
                      corpus::DataClass::repetitive));

TEST(HuffmanPropertyTest, RandomAlphabetsRoundTrip)
{
    Rng rng(777);
    for (int trial = 0; trial < 30; ++trial) {
        // Random sparse alphabet and random stream over it.
        std::size_t alphabet = 2 + rng.below(200);
        std::vector<u8> symbols;
        for (std::size_t s = 0; s < alphabet; ++s)
            if (rng.chance(0.7))
                symbols.push_back(static_cast<u8>(s));
        if (symbols.size() < 2)
            symbols = {0, 1};

        Bytes stream_data;
        for (int i = 0; i < 2000; ++i) {
            // Skewed pick: favor low indices.
            std::size_t idx = static_cast<std::size_t>(
                rng.uniform() * rng.uniform() * symbols.size());
            stream_data.push_back(symbols[std::min(idx,
                                                   symbols.size() - 1)]);
        }

        auto freqs = countFrequencies(stream_data);
        auto table = buildCodeTable(freqs);
        ASSERT_TRUE(table.ok());
        BitWriter writer;
        encode(table.value(), stream_data, writer);
        Bytes bits = writer.finish();
        auto decoder = Decoder::build(table.value());
        ASSERT_TRUE(decoder.ok());
        BitReader reader(bits);
        Bytes out;
        ASSERT_TRUE(
            decoder.value().decode(reader, stream_data.size(), out).ok());
        EXPECT_EQ(out, stream_data) << "trial " << trial;
    }
}

} // namespace
} // namespace cdpu::huffman

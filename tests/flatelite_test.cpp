/**
 * @file
 * FlateLite codec tests: RFC 1951 binning golden values, round trips
 * across levels/classes, corruption rejection, and the Flate CDPU
 * built from the shared unit library.
 */

#include <gtest/gtest.h>

#include "cdpu/area_model.h"
#include "cdpu/flate_pu.h"
#include "corpus/generators.h"
#include "snappy/compress.h"
#include "zstdlite/compress.h"

namespace cdpu::flatelite
{
namespace
{

Bytes
mustCompress(ByteSpan input, const CompressorConfig &config = {})
{
    auto out = compress(input, config);
    EXPECT_TRUE(out.ok()) << out.status().toString();
    return std::move(out).value();
}

TEST(FlateBinsTest, LengthCodesMatchRfc1951)
{
    EXPECT_EQ(lengthBin(3).code, 257);
    EXPECT_EQ(lengthBin(10).code, 264);
    EXPECT_EQ(lengthBin(11).code, 265);
    EXPECT_EQ(lengthBin(11).extraBits, 1);
    EXPECT_EQ(lengthBin(12).code, 265);
    EXPECT_EQ(lengthBin(131).code, 281);
    EXPECT_EQ(lengthBin(131).extraBits, 5);
    EXPECT_EQ(lengthBin(258).code, 285);
    EXPECT_EQ(lengthBin(258).extraBits, 0);
}

TEST(FlateBinsTest, DistanceCodesMatchRfc1951)
{
    EXPECT_EQ(distanceBin(1).code, 0);
    EXPECT_EQ(distanceBin(4).code, 3);
    EXPECT_EQ(distanceBin(5).code, 4);
    EXPECT_EQ(distanceBin(5).extraBits, 1);
    EXPECT_EQ(distanceBin(24577).code, 29);
    EXPECT_EQ(distanceBin(32768).code, 29);
    EXPECT_EQ(distanceBin(32768).extraBits, 13);
}

/** RFC 1951 §3.2.5's tables, scanned for the widest baseline not
 *  above the value: the oracle for the table-driven bins. */
FlateBin
specScan(u32 value, bool distance)
{
    struct Spec
    {
        u32 baseline;
        u8 extraBits;
    };
    static constexpr Spec kLengths[] = {
        {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},
        {9, 0},   {10, 0},  {11, 1},  {13, 1},  {15, 1},  {17, 1},
        {19, 2},  {23, 2},  {27, 2},  {31, 2},  {35, 3},  {43, 3},
        {51, 3},  {59, 3},  {67, 4},  {83, 4},  {99, 4},  {115, 4},
        {131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
    };
    static constexpr Spec kDistances[] = {
        {1, 0},     {2, 0},     {3, 0},      {4, 0},     {5, 1},
        {7, 1},     {9, 2},     {13, 2},     {17, 3},    {25, 3},
        {33, 4},    {49, 4},    {65, 5},     {97, 5},    {129, 6},
        {193, 6},   {257, 7},   {385, 7},    {513, 8},   {769, 8},
        {1025, 9},  {1537, 9},  {2049, 10},  {3073, 10}, {4097, 11},
        {6145, 11}, {8193, 12}, {12289, 12}, {16385, 13}, {24577, 13},
    };
    if (distance) {
        for (std::size_t i = std::size(kDistances); i-- > 0;) {
            if (value >= kDistances[i].baseline)
                return {static_cast<u16>(i), kDistances[i].extraBits,
                        kDistances[i].baseline};
        }
        return {0, 0, 1};
    }
    if (value >= kMaxMatchLength)
        return {285, 0, 258};
    for (std::size_t i = std::size(kLengths) - 1; i-- > 0;) {
        if (value >= kLengths[i].baseline)
            return {static_cast<u16>(257 + i), kLengths[i].extraBits,
                    kLengths[i].baseline};
    }
    return {257, 0, 3};
}

void
expectSameBin(const FlateBin &got, const FlateBin &want, u32 value)
{
    EXPECT_EQ(got.code, want.code) << value;
    EXPECT_EQ(got.extraBits, want.extraBits) << value;
    EXPECT_EQ(got.baseline, want.baseline) << value;
}

TEST(FlateBinsTest, TableLookupsEqualSpecScan)
{
    for (u32 length = 0; length <= 300; ++length)
        expectSameBin(lengthBin(length), specScan(length, false), length);
    for (u32 distance = 1; distance <= 65536; ++distance) {
        expectSameBin(distanceBin(distance), specScan(distance, true),
                      distance);
    }
}

TEST(FlateBinsTest, CodeRoundTrips)
{
    for (u32 len : {3u, 4u, 10u, 11u, 57u, 130u, 257u, 258u}) {
        FlateBin bin = lengthBin(len);
        auto back = lengthFromCode(bin.code);
        ASSERT_TRUE(back.ok());
        EXPECT_LE(back.value().baseline, len);
        EXPECT_LT(len - back.value().baseline,
                  1u << back.value().extraBits |
                      (back.value().extraBits == 0 ? 1u : 0u));
    }
    EXPECT_FALSE(lengthFromCode(256).ok());
    EXPECT_FALSE(lengthFromCode(286).ok());
    EXPECT_FALSE(distanceFromCode(30).ok());
}

TEST(FlateLiteTest, EmptyInput)
{
    Bytes compressed = mustCompress({});
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_TRUE(out.value().empty());
}

struct FlateCase
{
    corpus::DataClass cls;
    std::size_t size;
    int level;
    u64 seed;
};

class FlateLiteRoundTrip : public ::testing::TestWithParam<FlateCase>
{};

TEST_P(FlateLiteRoundTrip, CompressDecompressIsIdentity)
{
    const auto &param = GetParam();
    Rng rng(param.seed);
    Bytes data = corpus::generate(param.cls, param.size, rng);
    CompressorConfig config;
    config.level = param.level;
    Bytes compressed = mustCompress(data, config);
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_EQ(out.value(), data);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsAndClasses, FlateLiteRoundTrip,
    ::testing::Values(
        FlateCase{corpus::DataClass::textLike, 1, 6, 1},
        FlateCase{corpus::DataClass::textLike, 100 * kKiB, 1, 2},
        FlateCase{corpus::DataClass::textLike, 100 * kKiB, 6, 3},
        FlateCase{corpus::DataClass::textLike, 100 * kKiB, 9, 4},
        FlateCase{corpus::DataClass::logLike, 300 * kKiB, 6, 5},
        FlateCase{corpus::DataClass::numericTabular, 150 * kKiB, 6, 6},
        FlateCase{corpus::DataClass::protobufLike, 150 * kKiB, 6, 7},
        FlateCase{corpus::DataClass::randomBytes, 80 * kKiB, 6, 8},
        FlateCase{corpus::DataClass::repetitive, 300 * kKiB, 6, 9}));

TEST(FlateLiteTest, RatioBetweenSnappyAndZstd)
{
    // Figure 2c taxonomy: Flate is heavyweight — clearly better than
    // Snappy; ZStd's FSE stage usually edges it out.
    Rng rng(21);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 1 * kMiB,
                                  rng);
    std::size_t flate_size = mustCompress(data).size();
    std::size_t snappy_size = snappy::compress(data).size();
    EXPECT_LT(flate_size, snappy_size);
}

TEST(FlateLiteTest, HigherLevelNeverMuchWorse)
{
    Rng rng(23);
    Bytes data = corpus::generateMixed(512 * kKiB, rng);
    std::size_t level1 = mustCompress(data, {.level = 1}).size();
    std::size_t level9 = mustCompress(data, {.level = 9}).size();
    EXPECT_LE(level9, level1 + level1 / 50);
}

TEST(FlateLiteTest, WindowNeverExceedsRfcLimit)
{
    Rng rng(29);
    Bytes data = corpus::generateMixed(256 * kKiB, rng);
    FileTrace trace;
    auto compressed = compress(data, {}, &trace);
    ASSERT_TRUE(compressed.ok());
    for (const auto &block : trace.blocks)
        for (const auto &seq : block.sequences)
            EXPECT_LE(seq.offset, 32768u);
    EXPECT_FALSE(compress(data, {.level = 6, .windowLog = 16}).ok());
}

TEST(FlateLiteCorruptionTest, TruncationRejected)
{
    Rng rng(31);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 64 * kKiB,
                                  rng);
    Bytes compressed = mustCompress(data);
    for (int trial = 0; trial < 50; ++trial) {
        std::size_t keep = rng.below(compressed.size());
        Bytes cut(compressed.begin(), compressed.begin() + keep);
        EXPECT_FALSE(decompress(cut).ok());
    }
}

TEST(FlateLiteCorruptionTest, BitFlipsNeverCrash)
{
    Rng rng(37);
    Bytes data = corpus::generateMixed(64 * kKiB, rng);
    Bytes compressed = mustCompress(data);
    for (int trial = 0; trial < 150; ++trial) {
        Bytes mutated = compressed;
        mutated[rng.below(mutated.size())] ^=
            static_cast<u8>(1u << rng.below(8));
        auto out = decompress(mutated);
        if (out.ok()) {
            EXPECT_EQ(out.value().size(), data.size());
        }
    }
}

// --- Flate CDPU (generator reuse) ---------------------------------------

TEST(FlatePuTest, DecompressorMatchesSoftware)
{
    Rng rng(41);
    Bytes data = corpus::generateMixed(256 * kKiB, rng);
    Bytes compressed = mustCompress(data);
    hw::FlateDecompressorPU pu{hw::CdpuConfig{}};
    Bytes out;
    auto result = pu.run(compressed, &out);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_EQ(out, data);
    EXPECT_GT(result.value().cycles, 0u);
}

TEST(FlatePuTest, CompressorOutputDecodes)
{
    Rng rng(43);
    Bytes data = corpus::generate(corpus::DataClass::textLike,
                                  256 * kKiB, rng);
    hw::FlateCompressorPU pu{hw::CdpuConfig{}};
    Bytes compressed;
    auto result = pu.run(data, &compressed);
    ASSERT_TRUE(result.ok());
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(FlatePuTest, SpeculationMattersLikeZstd)
{
    // Every Flate symbol flows through the Huffman expander, so the
    // speculation knob moves Flate decompression at least as much as
    // ZStd's (Section 6.4 mechanism, shared unit).
    Rng rng(47);
    Bytes data = corpus::generate(corpus::DataClass::textLike,
                                  512 * kKiB, rng);
    Bytes compressed = mustCompress(data);
    u64 prev = std::numeric_limits<u64>::max();
    for (unsigned spec : {4u, 16u, 32u}) {
        hw::CdpuConfig config;
        config.huffSpeculations = spec;
        hw::FlateDecompressorPU pu{config};
        auto result = pu.run(compressed);
        ASSERT_TRUE(result.ok());
        EXPECT_LT(result.value().cycles, prev) << spec;
        prev = result.value().cycles;
    }
}

TEST(FlatePuTest, AreaSitsBetweenSnappyAndZstd)
{
    hw::CdpuConfig config;
    double flate_d = hw::flateDecompressorAreaMm2(config);
    EXPECT_GT(flate_d, hw::snappyDecompressorAreaMm2(config));
    EXPECT_LT(flate_d, hw::zstdDecompressorAreaMm2(config));
    double flate_c = hw::flateCompressorAreaMm2(config);
    EXPECT_GT(flate_c, hw::snappyCompressorAreaMm2(config));
    EXPECT_LT(flate_c, hw::zstdCompressorAreaMm2(config));
}

} // namespace
} // namespace cdpu::flatelite

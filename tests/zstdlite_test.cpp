/**
 * @file
 * ZstdLite codec tests: code binning golden values, frame/section
 * structure, round-trips across levels/windows/data classes, heavy-vs-
 * light ratio properties, and corruption rejection.
 */

#include <gtest/gtest.h>

#include "corpus/generators.h"
#include "snappy/compress.h"
#include "zstdlite/compress.h"
#include "zstdlite/decompress.h"
#include "zstdlite/sequences.h"

namespace cdpu::zstdlite
{
namespace
{

Bytes
mustCompress(ByteSpan input, const CompressorConfig &config = {},
             FileTrace *trace = nullptr)
{
    auto compressed = compress(input, config, trace);
    EXPECT_TRUE(compressed.ok()) << compressed.status().toString();
    return std::move(compressed).value();
}

// --- Code binning (zstd Tables 5/7 golden values) -----------------------

TEST(CodeBinTest, LiteralLengthDirectCodes)
{
    for (u32 v = 0; v < 16; ++v) {
        CodeBin bin = literalLengthBin(v);
        EXPECT_EQ(bin.code, v);
        EXPECT_EQ(bin.extraBits, 0);
        EXPECT_EQ(bin.baseline, v);
    }
}

TEST(CodeBinTest, LiteralLengthBinnedCodes)
{
    // Golden points from the Zstandard spec.
    EXPECT_EQ(literalLengthBin(16).code, 16);
    EXPECT_EQ(literalLengthBin(17).code, 16);
    EXPECT_EQ(literalLengthBin(18).code, 17);
    EXPECT_EQ(literalLengthBin(64).code, 25);
    EXPECT_EQ(literalLengthBin(64).extraBits, 6);
    EXPECT_EQ(literalLengthBin(65535).code, 34);
    EXPECT_EQ(literalLengthBin(65536).code, 35);
    EXPECT_EQ(literalLengthBin(65536).extraBits, 16);
}

TEST(CodeBinTest, MatchLengthCodes)
{
    EXPECT_EQ(matchLengthBin(3).code, 0);
    EXPECT_EQ(matchLengthBin(34).code, 31);
    EXPECT_EQ(matchLengthBin(35).code, 32);
    EXPECT_EQ(matchLengthBin(35).extraBits, 1);
    EXPECT_EQ(matchLengthBin(131).code, 43);
    EXPECT_EQ(matchLengthBin(131).extraBits, 7);
    EXPECT_EQ(matchLengthBin(65539).code, 52);
}

TEST(CodeBinTest, OffsetCodesArePowersOfTwo)
{
    EXPECT_EQ(offsetBin(1).code, 0);
    EXPECT_EQ(offsetBin(2).code, 1);
    EXPECT_EQ(offsetBin(3).code, 1);
    EXPECT_EQ(offsetBin(4).code, 2);
    EXPECT_EQ(offsetBin(65536).code, 16);
    EXPECT_EQ(offsetBin(65536).baseline, 65536u);
}

TEST(CodeBinTest, RoundTripAllBinsThroughCodes)
{
    for (u32 v : {0u, 1u, 15u, 16u, 17u, 100u, 5000u, 131000u}) {
        CodeBin bin = literalLengthBin(v);
        auto back = literalLengthFromCode(bin.code);
        ASSERT_TRUE(back.ok());
        EXPECT_EQ(back.value().baseline, bin.baseline);
        EXPECT_EQ(back.value().extraBits, bin.extraBits);
        EXPECT_LE(bin.baseline, v);
        EXPECT_LT(v - bin.baseline, 1u << bin.extraBits |
                  (bin.extraBits == 0 ? 1u : 0u));
    }
    for (u32 v : {3u, 4u, 34u, 35u, 1000u, 131074u}) {
        CodeBin bin = matchLengthBin(v);
        auto back = matchLengthFromCode(bin.code);
        ASSERT_TRUE(back.ok());
        EXPECT_LE(bin.baseline, v);
    }
    EXPECT_FALSE(literalLengthFromCode(36).ok());
    EXPECT_FALSE(matchLengthFromCode(53).ok());
    EXPECT_FALSE(offsetFromCode(28).ok());
}

// --- Frame structure -----------------------------------------------------

TEST(FrameTest, HeaderRoundTrip)
{
    Bytes buf;
    writeFrameHeader({20, 123456}, buf);
    std::size_t pos = 0;
    auto header = readFrameHeader(buf, pos);
    ASSERT_TRUE(header.ok());
    EXPECT_EQ(header.value().windowLog, 20u);
    EXPECT_EQ(header.value().contentSize, 123456u);
    EXPECT_EQ(pos, buf.size());
}

TEST(FrameTest, BadMagicRejected)
{
    Bytes buf;
    writeFrameHeader({20, 10}, buf);
    buf[0] = 'X';
    EXPECT_FALSE(peekFrameHeader(buf).ok());
}

TEST(FrameTest, BadWindowLogRejected)
{
    Bytes buf;
    writeFrameHeader({20, 10}, buf);
    buf[4] = 40; // windowLog > kMaxWindowLog
    EXPECT_FALSE(peekFrameHeader(buf).ok());
    buf[4] = 5;
    EXPECT_FALSE(peekFrameHeader(buf).ok());
}

TEST(FrameTest, EmptyInputMakesValidFrame)
{
    Bytes compressed = mustCompress({});
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_TRUE(out.value().empty());
}

TEST(FrameTest, UniformDataUsesRleBlock)
{
    Bytes data(50 * kKiB, 0x42);
    FileTrace trace;
    Bytes compressed = mustCompress(data, {}, &trace);
    EXPECT_LT(compressed.size(), 64u);
    ASSERT_FALSE(trace.blocks.empty());
    EXPECT_EQ(trace.blocks[0].type, BlockType::rle);
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(FrameTest, IncompressibleDataFallsBackToRaw)
{
    Rng rng(5);
    Bytes data = corpus::generate(corpus::DataClass::randomBytes,
                                  100 * kKiB, rng);
    FileTrace trace;
    Bytes compressed = mustCompress(data, {}, &trace);
    // Raw fallback: tiny overhead only.
    EXPECT_LT(compressed.size(), data.size() + 64);
    bool all_raw = true;
    for (const auto &block : trace.blocks)
        all_raw &= block.type == BlockType::raw;
    EXPECT_TRUE(all_raw);
}

TEST(FrameTest, MultiBlockFilesPartitionCorrectly)
{
    Rng rng(7);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 600 * kKiB,
                                  rng);
    FileTrace trace;
    Bytes compressed = mustCompress(data, {}, &trace);
    EXPECT_GE(trace.blocks.size(), 4u); // ~120 KiB target blocks
    std::size_t total_regen = 0;
    for (const auto &block : trace.blocks)
        total_regen += block.regenSize;
    EXPECT_EQ(total_regen, data.size());
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

TEST(FrameTest, TraceSequenceLiteralRunsAreBounded)
{
    // A 2 MiB incompressible run followed by a big repeat: the long
    // literal run must be cut to fit the LL code space.
    Rng rng(11);
    Bytes head = corpus::generate(corpus::DataClass::randomBytes,
                                  2 * kMiB, rng);
    Bytes data = head;
    data.insert(data.end(), head.begin(), head.begin() + 300 * kKiB);

    CompressorConfig config;
    config.windowLog = 22; // window covers the 2 MiB offset
    FileTrace trace;
    Bytes compressed = mustCompress(data, config, &trace);
    for (const auto &block : trace.blocks)
        for (const auto &seq : block.sequences)
            EXPECT_LE(seq.literalLength, kMaxSeqLiteralRun);
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_EQ(out.value(), data);
}

// --- Round trips ----------------------------------------------------------

struct ZstdCase
{
    corpus::DataClass cls;
    std::size_t size;
    int level;
    unsigned windowLog;
    u64 seed;
};

class ZstdLiteRoundTrip : public ::testing::TestWithParam<ZstdCase>
{};

TEST_P(ZstdLiteRoundTrip, CompressDecompressIsIdentity)
{
    const auto &param = GetParam();
    Rng rng(param.seed);
    Bytes data = corpus::generate(param.cls, param.size, rng);
    CompressorConfig config;
    config.level = param.level;
    config.windowLog = param.windowLog;
    Bytes compressed = mustCompress(data, config);
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok()) << out.status().toString();
    EXPECT_EQ(out.value(), data);
}

INSTANTIATE_TEST_SUITE_P(
    LevelsWindowsClasses, ZstdLiteRoundTrip,
    ::testing::Values(
        ZstdCase{corpus::DataClass::textLike, 1, 3, 17, 1},
        ZstdCase{corpus::DataClass::textLike, 100 * kKiB, -5, 17, 2},
        ZstdCase{corpus::DataClass::textLike, 100 * kKiB, 1, 17, 3},
        ZstdCase{corpus::DataClass::textLike, 100 * kKiB, 3, 17, 4},
        ZstdCase{corpus::DataClass::textLike, 100 * kKiB, 9, 17, 5},
        ZstdCase{corpus::DataClass::textLike, 100 * kKiB, 19, 17, 6},
        ZstdCase{corpus::DataClass::logLike, 500 * kKiB, 3, 17, 7},
        ZstdCase{corpus::DataClass::logLike, 500 * kKiB, 12, 20, 8},
        ZstdCase{corpus::DataClass::numericTabular, 300 * kKiB, 5, 15, 9},
        ZstdCase{corpus::DataClass::protobufLike, 300 * kKiB, 3, 12, 10},
        ZstdCase{corpus::DataClass::randomBytes, 64 * kKiB, 3, 17, 11},
        ZstdCase{corpus::DataClass::repetitive, 1 * kMiB, 3, 17, 12},
        ZstdCase{corpus::DataClass::repetitive, 63, 22, 10, 13}));

TEST(ZstdLiteRatioTest, MixedDataRoundTripsAtAllWindows)
{
    Rng rng(21);
    Bytes data = corpus::generateMixed(1 * kMiB, rng);
    for (unsigned window_log : {10u, 14u, 17u, 21u}) {
        CompressorConfig config;
        config.windowLog = window_log;
        Bytes compressed = mustCompress(data, config);
        auto out = decompress(compressed);
        ASSERT_TRUE(out.ok()) << window_log;
        EXPECT_EQ(out.value(), data);
    }
}

TEST(ZstdLiteRatioTest, HigherLevelNeverMuchWorse)
{
    Rng rng(23);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 1 * kMiB,
                                  rng);
    std::size_t level1 = mustCompress(data, {.level = 1}).size();
    std::size_t level9 = mustCompress(data, {.level = 9}).size();
    std::size_t level19 = mustCompress(data, {.level = 19}).size();
    EXPECT_LE(level9, level1 + level1 / 50);
    EXPECT_LE(level19, level9 + level9 / 50);
}

TEST(ZstdLiteRatioTest, BeatsSnappyOnText)
{
    // The heavyweight-vs-lightweight premise of the paper (Fig 2c):
    // ZStd-class compression achieves a higher ratio than Snappy.
    Rng rng(29);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 1 * kMiB,
                                  rng);
    std::size_t zstd_size = mustCompress(data, {.level = 3}).size();
    std::size_t snappy_size = snappy::compress(data).size();
    EXPECT_LT(zstd_size, snappy_size);
}

TEST(ZstdLiteRatioTest, LargerWindowHelpsLongRangeData)
{
    // Repeats at ~256 KiB distance: invisible to a 64 KiB window.
    Rng rng(31);
    Bytes motif = corpus::generate(corpus::DataClass::textLike,
                                   256 * kKiB, rng);
    Bytes data = motif;
    data.insert(data.end(), motif.begin(), motif.end());

    std::size_t small = mustCompress(data, {.windowLog = 16}).size();
    std::size_t large = mustCompress(data, {.windowLog = 20}).size();
    EXPECT_LT(large, small * 3 / 4);
}

// --- Corruption -----------------------------------------------------------

class ZstdLiteCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        Rng rng(37);
        data_ = corpus::generateMixed(200 * kKiB, rng);
        compressed_ = mustCompress(data_);
    }

    Bytes data_;
    Bytes compressed_;
};

TEST_F(ZstdLiteCorruption, TruncationAlwaysRejected)
{
    Rng rng(41);
    for (int trial = 0; trial < 60; ++trial) {
        std::size_t keep = rng.below(compressed_.size());
        Bytes cut(compressed_.begin(), compressed_.begin() + keep);
        EXPECT_FALSE(decompress(cut).ok()) << keep;
    }
}

TEST_F(ZstdLiteCorruption, BitFlipsNeverCrashOrSilentlyCorrupt)
{
    Rng rng(43);
    for (int trial = 0; trial < 150; ++trial) {
        Bytes mutated = compressed_;
        std::size_t where = rng.below(mutated.size());
        mutated[where] ^= static_cast<u8>(1u << rng.below(8));
        auto out = decompress(mutated);
        if (out.ok()) {
            // Flips confined to literal payload bytes can "succeed";
            // the regenerated size must still be exact.
            EXPECT_EQ(out.value().size(), data_.size());
        }
    }
}

TEST_F(ZstdLiteCorruption, TrailingGarbageRejected)
{
    Bytes padded = compressed_;
    padded.push_back(0);
    EXPECT_FALSE(decompress(padded).ok());
}

TEST_F(ZstdLiteCorruption, WindowViolationRejected)
{
    // Shrink the declared windowLog below real offsets: the decoder
    // must flag offsets beyond the window.
    Bytes mutated = compressed_;
    mutated[4] = 10; // windowLog byte; offsets in a 200 KiB file exceed 1 KiB
    auto out = decompress(mutated);
    EXPECT_FALSE(out.ok());
}

// --- Level parameter mapping ---------------------------------------------

TEST(LevelParamsTest, EffortGrowsWithLevel)
{
    auto low = levelParameters(1, 17);
    auto mid = levelParameters(9, 17);
    auto high = levelParameters(22, 17);
    EXPECT_LE(low.hashTable.log2Entries, mid.hashTable.log2Entries);
    EXPECT_LE(mid.hashTable.log2Entries, high.hashTable.log2Entries);
    EXPECT_LE(low.hashTable.ways, high.hashTable.ways);
    EXPECT_FALSE(low.lazyMatching);
    EXPECT_TRUE(high.lazyMatching);
    EXPECT_FALSE(high.skipAcceleration);
}

TEST(LevelParamsTest, InvalidLevelsRejected)
{
    Bytes data = {1, 2, 3};
    EXPECT_FALSE(compress(data, {.level = 23}).ok());
    EXPECT_FALSE(compress(data, {.level = -8}).ok());
    EXPECT_FALSE(compress(data, {.level = 3, .windowLog = 9}).ok());
    EXPECT_FALSE(compress(data, {.level = 3, .windowLog = 28}).ok());
}

// --- Predefined tables -----------------------------------------------------

TEST(PredefinedTablesTest, CoverFullAlphabets)
{
    EXPECT_EQ(predefinedLLCounts().alphabetSize(), kNumLLCodes);
    EXPECT_EQ(predefinedOFCounts().alphabetSize(), kNumOFCodes);
    EXPECT_EQ(predefinedMLCounts().alphabetSize(), kNumMLCodes);
    for (u32 c : predefinedLLCounts().counts)
        EXPECT_GE(c, 1u);
    for (u32 c : predefinedOFCounts().counts)
        EXPECT_GE(c, 1u);
    for (u32 c : predefinedMLCounts().counts)
        EXPECT_GE(c, 1u);
}

TEST(PredefinedTablesTest, SmallBlocksUsePredefined)
{
    // A tiny compressible input yields few sequences -> predefined mode.
    Bytes data;
    for (int i = 0; i < 40; ++i)
        data.insert(data.end(), {'a', 'b', 'c', 'd'});
    FileTrace trace;
    Bytes compressed = mustCompress(data, {}, &trace);
    ASSERT_EQ(trace.blocks.size(), 1u);
    if (trace.blocks[0].type == BlockType::compressed &&
        trace.blocks[0].numSequences > 0) {
        EXPECT_FALSE(trace.blocks[0].dynamicTables);
    }
    auto out = decompress(compressed);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out.value(), data);
}

// --- Fused decode tables ---------------------------------------------------

/** The oracle for buildSeqTable: fse::buildDecodeTable's entries with
 *  each symbol replaced by its code's baseline and extra bits. */
SeqTable
seqTableFromDecodeTable(const fse::NormalizedCounts &norm, CodeStream which)
{
    const fse::DecodeTable fse_table = fse::buildDecodeTable(norm).value();
    SeqTable table;
    table.tableLog = fse_table.tableLog;
    for (const fse::DecodeEntry &entry : fse_table.entries) {
        const CodeBin bin = which == kLL
                                ? literalLengthFromCode(entry.symbol).value()
                            : which == kOF
                                ? offsetFromCode(entry.symbol).value()
                                : matchLengthFromCode(entry.symbol).value();
        table.entries.push_back({bin.baseline, bin.extraBits, entry.nbBits,
                                 entry.nextStateBase});
    }
    return table;
}

void
expectSeqTableMatchesOracle(const fse::NormalizedCounts &norm,
                            CodeStream which)
{
    SeqTable built;
    buildSeqTable(norm, which, built);
    const SeqTable expected = seqTableFromDecodeTable(norm, which);
    EXPECT_EQ(built.tableLog, expected.tableLog);
    EXPECT_TRUE(built.entries == expected.entries)
        << "stream " << which << " table log " << norm.tableLog;
}

TEST(SeqTableTest, PredefinedTablesMatchDecodeTableOracle)
{
    expectSeqTableMatchesOracle(predefinedLLCounts(), kLL);
    expectSeqTableMatchesOracle(predefinedOFCounts(), kOF);
    expectSeqTableMatchesOracle(predefinedMLCounts(), kML);
}

TEST(SeqTableTest, DynamicTablesMatchDecodeTableOracle)
{
    Rng rng(1234);
    const std::array<std::size_t, 3> alphabets = {kNumLLCodes, kNumOFCodes,
                                                  kNumMLCodes};
    for (unsigned which : {kLL, kOF, kML}) {
        for (unsigned log = fse::kMinTableLog; log <= fse::kMaxTableLog;
             ++log) {
            for (int trial = 0; trial < 20; ++trial) {
                // A transmitted alphabet may stop short of the full
                // code range; skewed weights give large and count-1
                // symbols alike.
                std::vector<u64> freqs(1 + rng.below(alphabets[which]));
                std::size_t used = 0;
                for (u64 &f : freqs) {
                    if (used < (std::size_t{1} << log) && rng.below(4)) {
                        f = 1 + rng.below(u64{1} << rng.below(12));
                        ++used;
                    }
                }
                if (used == 0)
                    freqs[0] = 1;
                auto norm = fse::normalizeCounts(freqs, log);
                ASSERT_TRUE(norm.ok()) << norm.status().toString();
                SCOPED_TRACE(trial);
                expectSeqTableMatchesOracle(norm.value(),
                                            CodeStream(which));
            }
        }
    }
}

} // namespace
} // namespace cdpu::zstdlite

/**
 * @file
 * Differential battery for the block-parallel container.
 *
 * The container's core claim is relational, so the tests are too:
 * decodeParallel at any worker count must be byte-identical to the
 * decodeSequential reference, with identical deterministic work
 * counters, and — on truncated or tampered frames — an identical
 * FailureClass verdict. The grids below run that comparison across
 * every registry codec x corpus classes x block sizes {4 KiB, 64 KiB,
 * 1 MiB, whole} x workers {1, 2, 8}, then pin the index validator's
 * individual rejections on hand-crafted frames.
 */

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/varint.h"
#include "codec/registry.h"
#include "container/container.h"
#include "corpus/generators.h"
#include "harden/injector.h"
#include "zstdlite/format.h"

namespace cdpu
{
namespace
{

constexpr unsigned kWorkerCounts[] = {1, 2, 8};

/** Histograms lack operator==; count/sum/min/max pins the part the
 *  differential contract cares about. */
void
expectHistogramsEqual(const obs::CounterSnapshot &a,
                      const obs::CounterSnapshot &b,
                      const std::string &name)
{
    const obs::HistogramSnapshot &ha = a.histogramAt(name);
    const obs::HistogramSnapshot &hb = b.histogramAt(name);
    EXPECT_EQ(ha.count, hb.count) << name;
    EXPECT_EQ(ha.sum, hb.sum) << name;
    EXPECT_EQ(ha.min, hb.min) << name;
    EXPECT_EQ(ha.max, hb.max) << name;
}

/** One point of the differential grid: sequential reference vs every
 *  worker count, bytes + counters + verdict. */
void
expectParallelMatchesSequential(ByteSpan frame,
                                const container::DecodeOptions &options,
                                const Bytes *expect_payload)
{
    Bytes sequential;
    container::DecodeReport sequential_report;
    Status ss = container::decodeSequential(frame, sequential, options,
                                            &sequential_report);
    if (expect_payload) {
        ASSERT_TRUE(ss.ok()) << ss.toString();
        EXPECT_EQ(sequential, *expect_payload);
    }
    if (!ss.ok()) {
        EXPECT_TRUE(sequential.empty());
    }

    for (unsigned workers : kWorkerCounts) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        Bytes parallel;
        container::DecodeReport parallel_report;
        Status ps = container::decodeParallel(frame, workers, parallel,
                                              options, &parallel_report);
        EXPECT_EQ(failureClass(ss), failureClass(ps))
            << ss.toString() << " vs " << ps.toString();
        EXPECT_EQ(sequential, parallel);
        EXPECT_EQ(sequential_report.work.counters,
                  parallel_report.work.counters);
        expectHistogramsEqual(sequential_report.work,
                              parallel_report.work,
                              "container.block_regen_bytes");
        EXPECT_EQ(sequential_report.blocks, parallel_report.blocks);
        EXPECT_EQ(sequential_report.bytesOut, parallel_report.bytesOut);
    }
}

class ContainerCodecTest
    : public testing::TestWithParam<codec::CodecId>
{
};

TEST_P(ContainerCodecTest, DifferentialGridAcrossClassesAndBlockSizes)
{
    Rng rng(2023);
    std::vector<Bytes> payloads;
    for (corpus::DataClass cls : corpus::allDataClasses())
        payloads.push_back(corpus::generate(cls, 96 * kKiB, rng));

    const std::size_t block_sizes[] = {4 * kKiB, 64 * kKiB, 0};
    for (const Bytes &payload : payloads) {
        for (std::size_t block_bytes : block_sizes) {
            SCOPED_TRACE("payload=" + std::to_string(payload.size()) +
                         " block=" + std::to_string(block_bytes));
            container::WriteOptions options;
            options.blockBytes = block_bytes;
            Bytes frame;
            ASSERT_TRUE(
                container::write(GetParam(), payload, options, frame)
                    .ok());
            expectParallelMatchesSequential(frame, {}, &payload);
        }
    }
}

TEST_P(ContainerCodecTest, DifferentialGridMegabyteBlocks)
{
    // A payload past 1 MiB so the 1 MiB block size actually splits.
    Rng rng(7);
    const Bytes payload =
        corpus::generateMixed(2 * kMiB + 512 * kKiB, rng);
    for (std::size_t block_bytes :
         {std::size_t{256} * kKiB, 1 * kMiB, std::size_t{0}}) {
        SCOPED_TRACE("block=" + std::to_string(block_bytes));
        container::WriteOptions options;
        options.blockBytes = block_bytes;
        Bytes frame;
        ASSERT_TRUE(
            container::write(GetParam(), payload, options, frame).ok());
        expectParallelMatchesSequential(frame, {}, &payload);
    }
}

TEST_P(ContainerCodecTest, TamperedFramesGetIdenticalVerdicts)
{
    Rng rng(11);
    const Bytes payload =
        corpus::generate(corpus::DataClass::textLike, 32 * kKiB, rng);
    container::WriteOptions options;
    options.blockBytes = 1 * kKiB;
    Bytes frame;
    ASSERT_TRUE(
        container::write(GetParam(), payload, options, frame).ok());

    for (harden::MutationClass cls : harden::allMutationClasses()) {
        for (u64 seed = 0; seed < 48; ++seed) {
            harden::MutationSpec spec{GetParam(), cls, seed};
            SCOPED_TRACE(harden::describeSpec(spec));
            Bytes mutated = harden::CorruptionInjector::mutate(
                frame, spec, harden::FrameKind::container);
            expectParallelMatchesSequential(mutated, {}, nullptr);
        }
    }
}

TEST_P(ContainerCodecTest, TruncationsGetIdenticalVerdicts)
{
    Rng rng(13);
    const Bytes payload =
        corpus::generate(corpus::DataClass::repetitive, 8 * kKiB, rng);
    container::WriteOptions options;
    options.blockBytes = 512;
    Bytes frame;
    ASSERT_TRUE(
        container::write(GetParam(), payload, options, frame).ok());

    // Every prefix is either a clean reject or (only at full length)
    // the valid frame; both paths must agree at each cut.
    const std::size_t stride = std::max<std::size_t>(frame.size() / 96, 1);
    for (std::size_t cut = 0; cut < frame.size(); cut += stride) {
        SCOPED_TRACE("cut=" + std::to_string(cut));
        ByteSpan truncated(frame.data(), cut);
        Bytes sequential;
        Status ss = container::decodeSequential(truncated, sequential);
        EXPECT_EQ(failureClass(ss), FailureClass::dataError)
            << ss.toString();
        EXPECT_TRUE(sequential.empty());
        expectParallelMatchesSequential(truncated, {}, nullptr);
    }
}

TEST_P(ContainerCodecTest, WorkCountersTellTheDecodeStory)
{
    Rng rng(17);
    const Bytes payload =
        corpus::generate(corpus::DataClass::textLike, 16 * kKiB, rng);
    container::WriteOptions options;
    options.blockBytes = 4 * kKiB;
    Bytes frame;
    ASSERT_TRUE(
        container::write(GetParam(), payload, options, frame).ok());

    Bytes out;
    container::DecodeReport report;
    ASSERT_TRUE(container::decodeParallel(frame, 2, out, {}, &report)
                    .ok());
    const std::string name = codec::codecName(GetParam());
    EXPECT_EQ(report.work.at("container.blocks"), 4u);
    EXPECT_EQ(report.work.at("container.blocks." + name), 4u);
    EXPECT_EQ(report.work.at("container.blocks.ok"), 4u);
    EXPECT_EQ(report.work.at("container.blocks.failed"), 0u);
    EXPECT_EQ(report.work.at("container.bytes.out"), payload.size());
    EXPECT_EQ(report.work.histogramAt("container.block_regen_bytes")
                  .count,
              4u);
    // Steals are runtime accounting: present, but quarantined from the
    // deterministic work snapshot.
    EXPECT_TRUE(report.runtime.has("container.steals"));
    EXPECT_FALSE(report.work.has("container.steals"));
    EXPECT_EQ(report.blocks, 4u);
    EXPECT_EQ(report.bytesOut, payload.size());
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, ContainerCodecTest,
                         testing::ValuesIn(codec::allCodecs()),
                         [](const auto &info) {
                             // gtest names must be identifiers; spell
                             // the pipeline '+' as '_'.
                             std::string name =
                                 codec::codecName(info.param);
                             for (char &c : name)
                                 if (c == '+')
                                     c = '_';
                             return name;
                         });

// ---------------------------------------------------------------------
// Index grammar: hand-crafted frames against parseIndex's validators.
// ---------------------------------------------------------------------

struct CraftedEntry
{
    u64 offset;
    u64 comp;
    u64 regen;
};

/** Builds a container frame byte-by-byte, CRC included, with @p data
 *  bytes of (not necessarily decodable) block data. */
Bytes
craftFrame(const std::vector<CraftedEntry> &entries, u64 total_regen,
           std::size_t data_bytes, u8 version = container::kVersion,
           u8 codec_byte = 0, u8 flags = 0)
{
    Bytes frame(container::kMagic.begin(), container::kMagic.end());
    frame.push_back(version);
    frame.push_back(codec_byte);
    frame.push_back(flags);
    putVarint(frame, entries.size());
    putVarint(frame, total_regen);
    for (const CraftedEntry &entry : entries) {
        putVarint(frame, entry.offset);
        putVarint(frame, entry.comp);
        putVarint(frame, entry.regen);
    }
    const u32 crc = crc32c(frame);
    frame.push_back(static_cast<u8>(crc));
    frame.push_back(static_cast<u8>(crc >> 8));
    frame.push_back(static_cast<u8>(crc >> 16));
    frame.push_back(static_cast<u8>(crc >> 24));
    frame.insert(frame.end(), data_bytes, u8{0xaa});
    return frame;
}

void
expectCorrupt(const Bytes &frame, const std::string &what)
{
    auto parsed = container::parseIndex(frame);
    ASSERT_FALSE(parsed.ok()) << what;
    EXPECT_EQ(failureClass(parsed.status()), FailureClass::dataError)
        << what << ": " << parsed.status().toString();
}

TEST(ContainerIndexTest, CraftedFrameParses)
{
    Bytes frame = craftFrame({{0, 10, 100}, {10, 6, 50}}, 150, 16);
    auto parsed = container::parseIndex(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_EQ(parsed.value().blocks.size(), 2u);
    EXPECT_EQ(parsed.value().totalRegenBytes, 150u);
    EXPECT_EQ(parsed.value().dataBytes, 16u);
    EXPECT_EQ(parsed.value().codec, codec::CodecId::snappy);
}

TEST(ContainerIndexTest, RejectsEveryGrammarViolation)
{
    expectCorrupt({}, "empty frame");
    expectCorrupt({'C', 'D', 'P'}, "short header");
    {
        Bytes frame = craftFrame({{0, 4, 4}}, 4, 4);
        frame[0] = 'X';
        expectCorrupt(frame, "bad magic");
    }
    expectCorrupt(craftFrame({{0, 4, 4}}, 4, 4, container::kVersion + 1),
                  "unsupported version");
    expectCorrupt(craftFrame({{0, 4, 4}}, 4, 4, container::kVersion,
                             codec::kNumBaseCodecs),
                  "unknown codec id");
    expectCorrupt(craftFrame({{0, 4, 4}}, 4, 4, container::kVersion, 0,
                             0x80),
                  "reserved flags");
    expectCorrupt(craftFrame({{1, 4, 4}}, 4, 5), "offset contiguity");
    expectCorrupt(craftFrame({{0, 4, 4}, {3, 4, 4}}, 8, 8),
                  "second offset contiguity");
    expectCorrupt(craftFrame({{0, 0, 4}}, 4, 0), "empty comp block");
    expectCorrupt(craftFrame({{0, 4, 0}}, 0, 4), "empty regen block");
    expectCorrupt(craftFrame({{0, 1u << 20, 4}}, 4, 8),
                  "comp size past the frame");
    expectCorrupt(craftFrame({{0, 4, 4}}, 5, 4), "regen total lie");
    expectCorrupt(craftFrame({{0, 4, 4}}, 4, 3), "short data section");
    expectCorrupt(craftFrame({{0, 4, 4}}, 4, 5), "long data section");
    {
        Bytes frame = craftFrame({{0, 4, 4}}, 4, 4);
        // Flip a CRC bit: the only field whose damage must be caught
        // by the CRC check itself.
        frame[frame.size() - 5] ^= 1;
        expectCorrupt(frame, "index CRC");
    }
    {
        // Claimed block count past the cap, before any entries.
        Bytes frame(container::kMagic.begin(), container::kMagic.end());
        frame.push_back(container::kVersion);
        frame.push_back(0);
        frame.push_back(0);
        putVarint(frame, u64{container::kMaxBlockCount} + 1);
        expectCorrupt(frame, "block count cap");
    }
    {
        // Truncated mid-varint, before the CRC exists.
        Bytes frame(container::kMagic.begin(), container::kMagic.end());
        frame.push_back(container::kVersion);
        frame.push_back(0);
        frame.push_back(0);
        frame.push_back(0x80); // Unterminated blockCount varint.
        expectCorrupt(frame, "truncated block count");
    }
}

TEST(ContainerIndexTest, IndexDrivenAllocationIsCapped)
{
    // A frame whose index coherently claims a huge output: every
    // cross-check passes, so only the decode cap can refuse it — and
    // it must refuse before allocating, returning dataError.
    Bytes frame =
        craftFrame({{0, 8, u64{64} * kMiB}}, u64{64} * kMiB, 8);
    ASSERT_TRUE(container::parseIndex(frame).ok());

    container::DecodeOptions options;
    options.maxOutputBytes = 16 * kMiB;
    Bytes out;
    container::DecodeReport report;
    Status ss =
        container::decodeSequential(frame, out, options, &report);
    EXPECT_EQ(failureClass(ss), FailureClass::dataError)
        << ss.toString();
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(report.blocks, 0u);
    expectParallelMatchesSequential(frame, options, nullptr);

    // Under the default cap the same frame reaches the codec and fails
    // there instead — still a clean data error on both paths.
    expectParallelMatchesSequential(frame, {}, nullptr);
}

TEST(ContainerIndexTest, EmptyInputRoundTrips)
{
    Bytes frame;
    ASSERT_TRUE(container::write(codec::CodecId::snappy, {}, {}, frame)
                    .ok());
    auto parsed = container::parseIndex(frame);
    ASSERT_TRUE(parsed.ok()) << parsed.status().toString();
    EXPECT_TRUE(parsed.value().blocks.empty());

    Bytes out{1, 2, 3}; // Must be cleared, not appended to.
    container::DecodeReport report;
    ASSERT_TRUE(
        container::decodeSequential(frame, out, {}, &report).ok());
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(report.blocks, 0u);
    expectParallelMatchesSequential(frame, {}, &out);
}

TEST(ContainerIndexTest, CodecErrorsNameTheFailingBlock)
{
    // Four zstdlite blocks; block 2's inner frame claims a block regen
    // size of 2^21 - 1, past zstdlite's format bound. zstdlite's own
    // message starts with "block ", which must not suppress the
    // container's block index.
    Rng rng(17);
    const codec::CodecCaps &caps =
        codec::registry(codec::CodecId::zstdlite).caps;
    const codec::CodecParams params =
        caps.clamp(caps.defaultLevel, caps.defaultWindowLog);
    std::vector<Bytes> blocks;
    std::vector<CraftedEntry> entries;
    u64 offset = 0;
    for (int i = 0; i < 4; ++i) {
        const Bytes chunk =
            corpus::generate(corpus::DataClass::textLike, 1024, rng);
        Bytes inner;
        ASSERT_TRUE(codec::compressInto(codec::CodecId::zstdlite, chunk,
                                        params, inner)
                        .ok());
        if (i == 2) {
            // Frame header: magic, windowLog, contentSize varint; then
            // the first block's header byte and its regen varint.
            std::size_t pos = zstdlite::kMagic.size() + 1;
            ASSERT_TRUE(getVarint(inner, pos).ok());
            const std::size_t regen_at = pos + 1;
            std::size_t regen_end = regen_at;
            ASSERT_TRUE(getVarint(inner, regen_end).ok());
            Bytes claim;
            putVarint(claim, (u64{1} << 21) - 1);
            inner.erase(inner.begin() + regen_at,
                        inner.begin() + regen_end);
            inner.insert(inner.begin() + regen_at, claim.begin(),
                         claim.end());
        }
        entries.push_back({offset, inner.size(), chunk.size()});
        offset += inner.size();
        blocks.push_back(std::move(inner));
    }
    Bytes frame =
        craftFrame(entries, 4 * 1024, 0, container::kVersion,
                   static_cast<u8>(codec::BaseCodecId::zstdlite));
    for (const Bytes &block : blocks)
        frame.insert(frame.end(), block.begin(), block.end());

    Bytes out;
    Status sequential = container::decodeSequential(frame, out);
    EXPECT_EQ(sequential.toString(),
              "CORRUPT_DATA: block 2: block size exceeds format bound");
    Status parallel = container::decodeParallel(frame, 2, out);
    EXPECT_EQ(parallel.toString(), sequential.toString());
}

TEST(ContainerIndexTest, WriteRejectsAbsurdBlockCounts)
{
    Bytes input(16 * kMiB, u8{0});
    container::WriteOptions options;
    options.blockBytes = 1; // 16M blocks, past the 1M cap.
    Bytes frame;
    Status ws = container::write(codec::CodecId::snappy, input, options,
                                 frame);
    EXPECT_EQ(failureClass(ws), FailureClass::usageError)
        << ws.toString();
}

} // namespace
} // namespace cdpu

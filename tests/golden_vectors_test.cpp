/**
 * @file
 * Golden-vector tests.
 *
 * tests/vectors/ holds committed frames produced by each codec's
 * encoder (regenerate with examples/make_golden_vectors). Decoding
 * them back to the committed raw bytes pins on-disk format stability:
 * a decoder that can no longer consume yesterday's frames would break
 * every consumer of stored compressed data — the serving fleet's
 * compress-once-decompress-often traffic (Section 3.1) makes that the
 * costliest regression a codec change can ship. Re-encoding the raw
 * bytes pins the encoders too: codec bytes change only on purpose,
 * with the vectors regenerated in the same change.
 */

#include <gtest/gtest.h>

#include <fstream>

#include "codec/registry.h"
#include "container/container.h"
#include "flatelite/decompress.h"
#include "gipfeli/gipfeli.h"
#include "snappy/decompress.h"
#include "zstdlite/decompress.h"

namespace cdpu
{
namespace
{

Bytes
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << "missing vector file: " << path
                    << " (regenerate with examples/make_golden_vectors)";
    return Bytes(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
}

class GoldenVectorsTest : public testing::TestWithParam<const char *>
{
  protected:
    std::string base_ = std::string(CDPU_VECTOR_DIR) + "/" + GetParam();
    Bytes raw_ = readFile(base_ + ".raw");
};

TEST_P(GoldenVectorsTest, SnappyDecodesCommittedFrame)
{
    auto out = snappy::decompress(readFile(base_ + ".snappy"));
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(out.value(), raw_);
}

TEST_P(GoldenVectorsTest, ZstdLiteDecodesCommittedFrame)
{
    auto out = zstdlite::decompress(readFile(base_ + ".zstdlite"));
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(out.value(), raw_);
}

TEST_P(GoldenVectorsTest, FlateLiteDecodesCommittedFrame)
{
    auto out = flatelite::decompress(readFile(base_ + ".flatelite"));
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(out.value(), raw_);
}

TEST_P(GoldenVectorsTest, GipfeliDecodesCommittedFrame)
{
    auto out = gipfeli::decompress(readFile(base_ + ".gipfeli"));
    ASSERT_TRUE(out.ok()) << out.status().message();
    EXPECT_EQ(out.value(), raw_);
}

TEST_P(GoldenVectorsTest, RegistryDecodesCommittedFrame)
{
    // One committed frame per registered codec — including the curated
    // preconditioner pipelines, whose stage wire format (DESIGN.md
    // §15) is pinned here the same way the base formats are.
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        Bytes frame = readFile(base_ + "." + codec::codecName(id));
        Bytes out;
        Status status = codec::decompressInto(id, frame, out);
        ASSERT_TRUE(status.ok()) << status.toString();
        EXPECT_EQ(out, raw_);
    }
}

TEST_P(GoldenVectorsTest, ContainerDecodesCommittedFrame)
{
    // Container vectors pin the index grammar (DESIGN.md §14) on top
    // of each codec's block format; both decode paths must consume
    // yesterday's frames.
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        Bytes frame = readFile(base_ + ".container-" +
                               codec::codecName(id));
        Bytes sequential;
        Status ss = container::decodeSequential(frame, sequential);
        ASSERT_TRUE(ss.ok()) << ss.toString();
        EXPECT_EQ(sequential, raw_);

        Bytes parallel;
        Status ps = container::decodeParallel(frame, 2, parallel);
        ASSERT_TRUE(ps.ok()) << ps.toString();
        EXPECT_EQ(parallel, raw_);
    }
}

TEST_P(GoldenVectorsTest, EncodersReproduceCommittedFrames)
{
    // The parameters make_golden_vectors uses: each codec's clamped
    // defaults, and 512-byte container blocks.
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        const codec::CodecVTable &vtable = codec::registry(id);
        const codec::CodecParams params = vtable.caps.clamp(
            vtable.caps.defaultLevel, vtable.caps.defaultWindowLog);
        Bytes frame;
        ASSERT_TRUE(codec::compressInto(id, raw_, params, frame).ok());
        EXPECT_TRUE(frame == readFile(base_ + "." + vtable.caps.name));

        container::WriteOptions options;
        options.blockBytes = 512;
        Bytes container_frame;
        ASSERT_TRUE(
            container::write(id, raw_, options, container_frame).ok());
        EXPECT_TRUE(container_frame ==
                    readFile(base_ + ".container-" + vtable.caps.name));
    }
}

INSTANTIATE_TEST_SUITE_P(AllPayloads, GoldenVectorsTest,
                         testing::Values("text", "repetitive",
                                         "random"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace
} // namespace cdpu

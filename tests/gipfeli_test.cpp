/**
 * @file
 * GipfeliLite codec tests: literal-class coding, round trips,
 * taxonomy position (between no compression and Snappy-or-better on
 * text), corruption rejection, and the fused decoder against the
 * per-bit reference decoder kept here as its oracle.
 */

#include <gtest/gtest.h>

#include "common/bitio.h"
#include "common/varint.h"
#include "corpus/generators.h"
#include "decode_battery.h"
#include "gipfeli/gipfeli.h"
#include "snappy/compress.h"

namespace cdpu::gipfeli
{
namespace
{

/**
 * The reference decoder: one BitReader::read, and one Result, per
 * stream field, and one push_back per output byte. The fused
 * decompress() must match it in bytes and verdict on every frame.
 */
Result<Bytes>
referenceDecompress(ByteSpan data)
{
    std::size_t pos = 0;
    if (data.size() < kMagic.size())
        return Status::corrupt("gipfeli frame truncated");
    for (u8 expected : kMagic) {
        if (data[pos++] != expected)
            return Status::corrupt("bad gipfeli magic");
    }
    auto content_size = getVarint(data, pos);
    if (!content_size.ok())
        return content_size.status();
    if (content_size.value() > (1ull << 32))
        return Status::corrupt("implausible gipfeli content size");
    if (pos + 96 > data.size())
        return Status::corrupt("gipfeli literal tables truncated");
    const ByteSpan class_a = data.subspan(pos, 32);
    const ByteSpan class_b = data.subspan(pos + 32, 64);
    pos += 96;
    auto stream_bytes = getVarint(data, pos);
    if (!stream_bytes.ok())
        return stream_bytes.status();
    if (pos + stream_bytes.value() != data.size())
        return Status::corrupt("gipfeli stream length mismatch");
    BitReader reader(data.subspan(pos, stream_bytes.value()));

    // Class A is '0' + 5 bits, class B '10' + 6, class C '11' + 8.
    auto literal = [&]() -> Result<u8> {
        auto first = reader.read(1);
        if (!first.ok())
            return first.status();
        if (first.value() == 0) {
            auto index = reader.read(5);
            if (!index.ok())
                return index.status();
            return class_a[index.value()];
        }
        auto second = reader.read(1);
        if (!second.ok())
            return second.status();
        auto index = reader.read(second.value() == 0 ? 6 : 8);
        if (!index.ok())
            return index.status();
        if (second.value() == 0)
            return class_b[index.value()];
        return static_cast<u8>(index.value());
    };

    Bytes out;
    while (out.size() < content_size.value()) {
        auto flag = reader.read(1);
        if (!flag.ok())
            return flag.status();
        if (flag.value() == 0) {
            auto count = reader.read(5);
            if (!count.ok())
                return count.status();
            for (u64 i = 0; i <= count.value(); ++i) {
                auto byte = literal();
                if (!byte.ok())
                    return byte.status();
                out.push_back(byte.value());
            }
        } else {
            auto length = reader.read(6);
            if (!length.ok())
                return length.status();
            auto offset = reader.read(16);
            if (!offset.ok())
                return offset.status();
            if (offset.value() == 0 || offset.value() > out.size())
                return Status::corrupt("gipfeli offset exceeds history");
            std::size_t from = out.size() - offset.value();
            for (u64 i = 0; i < length.value() + kMinMatch; ++i)
                out.push_back(out[from + i]);
        }
        if (out.size() > content_size.value())
            return Status::corrupt("gipfeli output overruns");
    }
    return out;
}

const battery::DecodeFn kFused = [](ByteSpan frame) {
    return decompress(frame);
};

TEST(GipfeliFusedDecode, CleanFramesMatchReference)
{
    battery::expectCleanFramesAgree(
        {[](ByteSpan payload) { return compress(payload); }}, kFused,
        referenceDecompress);
}

TEST(GipfeliFusedDecode, MutatedFramesMatchReference)
{
    // Small frames of every class plus one whose matches reach back
    // across the whole 64 KiB window.
    Rng rng(8191);
    std::vector<Bytes> pool;
    const auto classes = corpus::allDataClasses();
    for (std::size_t i = 0; i < classes.size(); ++i) {
        pool.push_back(compress(corpus::generate(
            classes[i], std::size_t{64} << (2 * (i % 4)), rng)));
    }
    pool.push_back(compress(corpus::generateMixed(80 * kKiB, rng)));
    battery::expectMutationsAgree(codec::CodecId::gipfeli, pool, kFused,
                                  referenceDecompress);
}

class GipfeliRoundTrip
    : public ::testing::TestWithParam<corpus::DataClass>
{};

TEST_P(GipfeliRoundTrip, CompressDecompressIsIdentity)
{
    Rng rng(static_cast<u64>(GetParam()) + 50);
    for (std::size_t size : {0u, 1u, 333u, 100 * 1024u, 300 * 1024u}) {
        Bytes data = corpus::generate(GetParam(), size, rng);
        Bytes compressed = compress(data);
        auto out = decompress(compressed);
        ASSERT_TRUE(out.ok()) << size << ": "
                              << out.status().toString();
        EXPECT_EQ(out.value(), data) << size;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllClasses, GipfeliRoundTrip,
    ::testing::Values(corpus::DataClass::textLike,
                      corpus::DataClass::logLike,
                      corpus::DataClass::numericTabular,
                      corpus::DataClass::protobufLike,
                      corpus::DataClass::randomBytes,
                      corpus::DataClass::repetitive));

TEST(GipfeliTest, EntropyCodingBeatsPlainLiteralsOnText)
{
    // Section 2.2: Gipfeli = Snappy-class LZ77 plus simple entropy
    // coding, so on literal-heavy text it should compress better than
    // Snappy (which stores literals raw).
    Rng rng(11);
    Bytes data = corpus::generate(corpus::DataClass::textLike,
                                  512 * kKiB, rng);
    std::size_t gipfeli_size = compress(data).size();
    std::size_t snappy_size = snappy::compress(data).size();
    EXPECT_LT(gipfeli_size, snappy_size);
}

TEST(GipfeliTest, IncompressibleCostsAtMostTwentyFivePercent)
{
    // Worst case: every literal in class C costs 10 bits.
    Rng rng(13);
    Bytes data = corpus::generate(corpus::DataClass::randomBytes,
                                  64 * kKiB, rng);
    std::size_t size = compress(data).size();
    EXPECT_LT(size, data.size() + data.size() / 3);
}

TEST(GipfeliTest, CorruptionNeverCrashes)
{
    Rng rng(17);
    Bytes data = corpus::generateMixed(64 * kKiB, rng);
    Bytes compressed = compress(data);
    for (int trial = 0; trial < 150; ++trial) {
        Bytes mutated = compressed;
        mutated[rng.below(mutated.size())] ^=
            static_cast<u8>(1u << rng.below(8));
        auto out = decompress(mutated); // must not crash or over-read
        if (out.ok()) {
            EXPECT_EQ(out.value().size(), data.size());
        }
    }
    for (int trial = 0; trial < 60; ++trial) {
        std::size_t keep = rng.below(compressed.size());
        Bytes cut(compressed.begin(), compressed.begin() + keep);
        EXPECT_FALSE(decompress(cut).ok());
    }
}

TEST(GipfeliTest, BadMagicRejected)
{
    Bytes data = {1, 2, 3};
    Bytes compressed = compress(data);
    compressed[0] = 'X';
    EXPECT_FALSE(decompress(compressed).ok());
}

} // namespace
} // namespace cdpu::gipfeli

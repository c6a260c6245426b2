/**
 * @file
 * Randomized round-trip fuzzing for the word-wide fast-path kernels.
 *
 * Every optimized path must be byte-identical to its scalar/two-pass
 * reference: the single-pass Snappy decoder is checked against the
 * retained decodeElements()/applyElements() element path, the bit
 * readers against a byte-stepping reference reader, and the mem.h
 * primitives against naive loops. Corpora span varied entropy, match
 * density, overlap-heavy streams, incompressible data, tiny/empty
 * inputs, and truncated streams.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <tuple>

#include "battery.h"
#include "common/kernels.h"
#include "common/mem.h"
#include "common/varint.h"
#include "corpus/generators.h"
#include "flatelite/compress.h"
#include "flatelite/decompress.h"
#include "fse/decoder.h"
#include "fse/encoder.h"
#include "fse/normalize.h"
#include "gipfeli/gipfeli.h"
#include "huffman/code_builder.h"
#include "huffman/decoder.h"
#include "huffman/encoder.h"
#include "lz77/fast_parse.h"
#include "lz77/match_finder.h"
#include "serve/codec_context.h"
#include "serve/engine.h"
#include "snappy/compress.h"
#include "snappy/decompress.h"
#include "zstdlite/compress.h"
#include "zstdlite/decompress.h"

namespace cdpu
{
namespace
{

/** The two-pass reference decoder the fast path replaced. */
Result<Bytes>
referenceSnappyDecompress(ByteSpan data)
{
    std::size_t pos = 0;
    auto length = getVarint(data, pos);
    if (!length.ok())
        return length.status();
    if (length.value() >= (1ull << 32))
        return Status::corrupt("implausible uncompressed length");
    std::vector<snappy::Element> elements;
    CDPU_RETURN_IF_ERROR(
        snappy::decodeElements(data, pos, length.value(), elements));
    Bytes out;
    CDPU_RETURN_IF_ERROR(
        snappy::applyElements(data, elements, length.value(), out));
    return out;
}

/** Fast path and element path must agree verdict-for-verdict and
 *  byte-for-byte on @p stream. */
void
expectPathsAgree(ByteSpan stream)
{
    auto fast = snappy::decompress(stream);
    auto ref = referenceSnappyDecompress(stream);
    ASSERT_EQ(fast.ok(), ref.ok())
        << "fast: " << fast.status().toString()
        << " ref: " << ref.status().toString();
    if (fast.ok()) {
        EXPECT_EQ(fast.value(), ref.value());
    }
}

TEST(SnappyFastPathFuzz, MatchesElementPathAcrossCorpora)
{
    Rng rng(101);
    const std::size_t sizes[] = {0,  1,  2,  7,   8,    9,
                                 63, 64, 65, 100, 4096, 70000};
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : sizes) {
            Bytes data = corpus::generate(cls, size, rng);
            Bytes compressed = snappy::compress(data);
            auto fast = snappy::decompress(compressed);
            ASSERT_TRUE(fast.ok()) << fast.status().toString();
            EXPECT_EQ(fast.value(), data);
            expectPathsAgree(compressed);
        }
    }
}

TEST(SnappyFastPathFuzz, MatchesElementPathOnMixedCorpora)
{
    Rng rng(103);
    for (int trial = 0; trial < 8; ++trial) {
        std::size_t size = 1 + rng.below(300 * kKiB);
        Bytes data = corpus::generateMixed(size, rng, 2 * kKiB);
        Bytes compressed = snappy::compress(data);
        auto fast = snappy::decompress(compressed);
        ASSERT_TRUE(fast.ok()) << fast.status().toString();
        EXPECT_EQ(fast.value(), data);
        expectPathsAgree(compressed);
    }
}

/** Hand-built streams stressing the overlap (offset < 8) replay the
 *  wild-copy fast path must not touch. */
TEST(SnappyFastPathFuzz, OverlapHeavyStreams)
{
    Rng rng(107);
    for (int trial = 0; trial < 200; ++trial) {
        // Seed literal, then a run of copies biased toward tiny
        // offsets and lengths crossing the 8-byte word boundary.
        u32 seed_len = static_cast<u32>(rng.range(1, 12));
        Bytes stream;
        Bytes expected;
        for (u32 i = 0; i < seed_len; ++i)
            expected.push_back(static_cast<u8>(rng.below(256)));
        u64 total = seed_len;
        struct Op
        {
            u32 offset;
            u32 length;
        };
        std::vector<Op> ops;
        for (int copies = 0; copies < 12; ++copies) {
            u32 offset = static_cast<u32>(
                rng.range(1, std::min<u64>(total, 64)));
            u32 length = static_cast<u32>(rng.range(4, 64));
            ops.push_back({offset, length});
            std::size_t from = expected.size() - offset;
            for (u32 i = 0; i < length; ++i)
                expected.push_back(expected[from + i]);
            total += length;
        }
        putVarint(stream, expected.size());
        // Seed literal element.
        stream.push_back(static_cast<u8>((seed_len - 1) << 2));
        stream.insert(stream.end(), expected.begin(),
                      expected.begin() + seed_len);
        for (const Op &op : ops) {
            // copy2 encodes any offset <= 64 and length in [4, 64].
            stream.push_back(static_cast<u8>(
                static_cast<u8>(snappy::ElementType::copy2) |
                ((op.length - 1) << 2)));
            stream.push_back(static_cast<u8>(op.offset & 0xff));
            stream.push_back(static_cast<u8>(op.offset >> 8));
        }
        auto fast = snappy::decompress(stream);
        ASSERT_TRUE(fast.ok()) << fast.status().toString();
        EXPECT_EQ(fast.value(), expected);
        expectPathsAgree(stream);
    }
}

TEST(SnappyFastPathFuzz, TruncatedAndMutatedStreamsAgree)
{
    Rng rng(109);
    Bytes data = corpus::generateMixed(32 * kKiB, rng, 1 * kKiB);
    Bytes compressed = snappy::compress(data);
    for (int trial = 0; trial < 300; ++trial) {
        Bytes cut(compressed.begin(),
                  compressed.begin() + rng.below(compressed.size()));
        EXPECT_FALSE(snappy::decompress(cut).ok());
        EXPECT_FALSE(referenceSnappyDecompress(cut).ok());

        Bytes mutated = compressed;
        mutated[rng.below(mutated.size())] ^=
            static_cast<u8>(1u << rng.below(8));
        expectPathsAgree(mutated);
    }
}

TEST(ZstdLiteFastPathFuzz, RoundTripsAcrossCorpora)
{
    Rng rng(113);
    const std::size_t sizes[] = {0, 1, 9, 100, 4096, 100 * kKiB};
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : sizes) {
            Bytes data = corpus::generate(cls, size, rng);
            auto compressed = zstdlite::compress(data);
            ASSERT_TRUE(compressed.ok());
            auto out = zstdlite::decompress(compressed.value());
            ASSERT_TRUE(out.ok()) << out.status().toString();
            EXPECT_EQ(out.value(), data);
        }
    }
}

TEST(ZstdLiteFastPathFuzz, TruncationNeverCrashes)
{
    Rng rng(127);
    Bytes data = corpus::generateMixed(64 * kKiB, rng, 4 * kKiB);
    auto compressed = zstdlite::compress(data);
    ASSERT_TRUE(compressed.ok());
    for (int trial = 0; trial < 200; ++trial) {
        Bytes cut(
            compressed.value().begin(),
            compressed.value().begin() +
                rng.below(compressed.value().size()));
        EXPECT_FALSE(zstdlite::decompress(cut).ok());
    }
}

TEST(Lz77FastPathFuzz, ParseReconstructIsIdentity)
{
    Rng rng(131);
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : {0u, 1u, 7u, 8u, 9u, 4096u, 70000u}) {
            Bytes data = corpus::generate(cls, size, rng);
            for (bool lazy : {false, true}) {
                lz77::MatchFinderConfig config;
                config.lazyMatching = lazy;
                lz77::MatchFinder finder(config);
                lz77::Parse parse = finder.parse(data);
                EXPECT_EQ(lz77::reconstruct(parse, data), data);
            }
        }
    }
}

TEST(MemFuzz, CountMatchingBytesAgreesWithScalar)
{
    Rng rng(137);
    for (int trial = 0; trial < 2000; ++trial) {
        std::size_t len = 1 + rng.below(96);
        Bytes a(len);
        Bytes b(len);
        for (std::size_t i = 0; i < len; ++i) {
            a[i] = static_cast<u8>(rng.below(4)); // Small alphabet:
            b[i] = static_cast<u8>(rng.below(4)); // frequent agreement.
        }
        std::size_t limit = rng.below(len + 1);
        std::size_t scalar = 0;
        while (scalar < limit && a[scalar] == b[scalar])
            ++scalar;
        EXPECT_EQ(
            mem::countMatchingBytes(a.data(), b.data(), limit), scalar);
    }
}

TEST(MemFuzz, WildAndIncrementalCopyMatchReference)
{
    Rng rng(139);
    for (int trial = 0; trial < 2000; ++trial) {
        // Build a reference buffer byte-wise, then replay the same
        // copy with the fast primitives into a slop-padded buffer.
        std::size_t prefix = 1 + rng.below(64);
        std::size_t offset = 1 + rng.below(prefix);
        std::size_t len = rng.below(128);
        Bytes reference(prefix + len + mem::kWildCopySlop, 0xee);
        for (std::size_t i = 0; i < prefix; ++i)
            reference[i] = static_cast<u8>(rng.below(256));
        Bytes fast = reference;
        for (std::size_t i = 0; i < len; ++i)
            reference[prefix + i] = reference[prefix + i - offset];
        if (offset >= 8)
            mem::wildCopy(fast.data() + prefix,
                          fast.data() + prefix - offset, len);
        else
            mem::incrementalCopy(fast.data() + prefix, offset, len);
        // Bytes inside [prefix, prefix + len) must match exactly; the
        // slop region may differ (wild copies round up to words).
        EXPECT_TRUE(std::equal(reference.begin(),
                               reference.begin() + prefix + len,
                               fast.begin()));
    }
}

/** Byte-stepping reference for both bit reader disciplines. */
u64
referenceExtractBits(ByteSpan data, u64 pos, unsigned nbits)
{
    u64 acc = 0;
    for (unsigned got = 0; got < nbits;) {
        u64 byte = data[(pos + got) >> 3];
        unsigned offset = (pos + got) & 7;
        unsigned take = std::min<unsigned>(8 - offset, nbits - got);
        acc |= ((byte >> offset) & ((1ull << take) - 1)) << got;
        got += take;
    }
    return acc;
}

TEST(BitIoFuzz, ForwardReaderMatchesByteSteppingReference)
{
    Rng rng(149);
    for (int trial = 0; trial < 300; ++trial) {
        // Stream sizes hug the word boundary to cover all three refill
        // paths (word load, tail load, byte-stepping).
        std::size_t nbytes = 1 + rng.below(24);
        Bytes stream(nbytes);
        for (auto &b : stream)
            b = static_cast<u8>(rng.below(256));
        BitReader reader(stream);
        u64 pos = 0;
        const u64 total = nbytes * 8;
        while (pos < total) {
            unsigned nbits = static_cast<unsigned>(
                rng.range(1, std::min<u64>(56, total - pos)));
            u64 expected = referenceExtractBits(stream, pos, nbits);
            EXPECT_EQ(reader.peek(nbits), expected);
            auto got = reader.read(nbits);
            ASSERT_TRUE(got.ok());
            EXPECT_EQ(got.value(), expected);
            pos += nbits;
        }
        EXPECT_FALSE(reader.read(1).ok());
    }
}

TEST(BitIoFuzz, RoundTripThroughWriterInBothDirections)
{
    Rng rng(151);
    for (int trial = 0; trial < 300; ++trial) {
        struct Packet
        {
            u64 value;
            unsigned nbits;
        };
        std::vector<Packet> packets;
        BitWriter writer;
        std::size_t count = 1 + rng.below(64);
        for (std::size_t i = 0; i < count; ++i) {
            unsigned nbits = static_cast<unsigned>(rng.range(1, 56));
            u64 value = rng.next() & ((1ull << nbits) - 1);
            writer.put(value, nbits);
            packets.push_back({value, nbits});
        }
        Bytes stream = writer.finish();

        // Forward: packets come back in write order.
        BitReader forward(stream);
        for (const Packet &p : packets) {
            auto got = forward.read(p.nbits);
            ASSERT_TRUE(got.ok());
            EXPECT_EQ(got.value(), p.value);
        }

        // Backward: packets come back most-recent-first.
        auto backward = BackwardBitReader::open(stream);
        ASSERT_TRUE(backward.ok());
        for (std::size_t i = packets.size(); i-- > 0;) {
            auto got = backward.value().read(packets[i].nbits);
            ASSERT_TRUE(got.ok());
            EXPECT_EQ(got.value(), packets[i].value);
        }
        EXPECT_EQ(backward.value().bitsLeft(), 0u);
    }
}

TEST(EntropyFastPathFuzz, HuffmanRoundTripsOnVariedEntropy)
{
    Rng rng(157);
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : {1u, 9u, 1000u, 32768u}) {
            Bytes data = corpus::generate(cls, size, rng);
            auto table =
                huffman::buildCodeTable(huffman::countFrequencies(data));
            ASSERT_TRUE(table.ok());
            auto decoder = huffman::Decoder::build(table.value());
            ASSERT_TRUE(decoder.ok());
            BitWriter writer;
            huffman::encode(table.value(), data, writer);
            Bytes stream = writer.finish();
            BitReader reader(stream);
            Bytes out;
            ASSERT_TRUE(
                decoder.value().decode(reader, data.size(), out).ok());
            EXPECT_EQ(out, data);
        }
    }
}

TEST(EntropyFastPathFuzz, FseRoundTripsOnVariedSkew)
{
    Rng rng(163);
    for (int trial = 0; trial < 12; ++trial) {
        std::size_t alphabet = 2 + rng.below(32);
        std::size_t count = 1 + rng.below(20000);
        double skew = 0.5 + rng.uniform() * 3.0;
        Bytes symbols(count);
        for (auto &s : symbols)
            s = static_cast<u8>(
                std::min<double>(std::pow(rng.uniform(), skew) *
                                     static_cast<double>(alphabet),
                                 static_cast<double>(alphabet - 1)));
        std::vector<u64> freqs(alphabet, 0);
        for (u8 s : symbols)
            ++freqs[s];
        unsigned log = fse::suggestTableLog(freqs, count);
        auto norm = fse::normalizeCounts(freqs, log);
        ASSERT_TRUE(norm.ok());
        auto enc = fse::buildEncodeTable(norm.value());
        auto dec = fse::buildDecodeTable(norm.value());
        ASSERT_TRUE(enc.ok());
        ASSERT_TRUE(dec.ok());
        BitWriter writer;
        ASSERT_TRUE(fse::encodeAll(enc.value(), symbols, writer).ok());
        Bytes stream = writer.finish();
        auto reader = BackwardBitReader::open(stream);
        ASSERT_TRUE(reader.ok());
        Bytes out;
        ASSERT_TRUE(
            fse::decodeAll(dec.value(), reader.value(), count, out)
                .ok());
        EXPECT_EQ(out, symbols);
    }
}

/** Decodes one symbol per entryAt() lookup: the reference the pair
 *  table's two-symbol steps must reproduce, bytes and verdicts. */
Status
referenceHuffmanDecode(const huffman::Decoder &decoder, BitReader &reader,
                       std::size_t count, Bytes &out)
{
    const std::size_t start = out.size();
    for (std::size_t i = 0; i < count; ++i) {
        const huffman::Decoder::Entry &entry = decoder.entryAt(
            static_cast<u32>(reader.peek(decoder.maxBits())));
        Status step = entry.length == 0
                          ? Status::corrupt("invalid huffman code")
                          : reader.advance(entry.length);
        if (!step.ok()) {
            out.resize(start);
            return step;
        }
        out.push_back(static_cast<u8>(entry.symbol));
    }
    return Status::okStatus();
}

TEST(HuffmanFastPathFuzz, MatchesPerSymbolReferenceIncludingErrorVerdicts)
{
    Rng rng(229);
    for (auto cls : corpus::allDataClasses()) {
        Bytes data = corpus::generate(cls, 20000, rng);
        if (data.empty())
            continue;
        auto table =
            huffman::buildCodeTable(huffman::countFrequencies(data));
        ASSERT_TRUE(table.ok());
        auto decoder = huffman::Decoder::build(table.value());
        ASSERT_TRUE(decoder.ok());
        BitWriter writer;
        huffman::encode(table.value(), data, writer);
        const Bytes stream = writer.finish();

        // Same bytes, verdict class and end cursor; a failed decode
        // rolls its output back to empty on both sides.
        auto expectAgree = [&](ByteSpan bits, std::size_t count,
                               const std::string &what) {
            BitReader got_reader(bits);
            Bytes got;
            const Status got_status =
                decoder.value().decode(got_reader, count, got);
            BitReader want_reader(bits);
            Bytes want;
            const Status want_status = referenceHuffmanDecode(
                decoder.value(), want_reader, count, want);
            ASSERT_EQ(got_status.ok(), want_status.ok()) << what;
            EXPECT_EQ(got_status.code(), want_status.code()) << what;
            EXPECT_EQ(got, want) << what;
            if (want_status.ok()) {
                EXPECT_EQ(got_reader.bitPos(), want_reader.bitPos())
                    << what;
            }
        };

        const std::string name = corpus::dataClassName(cls);
        expectAgree(stream, data.size(), name + " clean");
        // Clean prefixes end the pair loop at every offset of the
        // one-symbol tail.
        for (std::size_t count = 0; count < 40; ++count)
            expectAgree(stream, count, name + " prefix");
        for (int trial = 0; trial < 60; ++trial) {
            Bytes broken = stream;
            if (trial % 2 == 0 && broken.size() > 1) {
                broken.resize(1 + rng.below(broken.size() - 1));
            } else {
                broken[rng.below(broken.size())] ^=
                    static_cast<u8>(1u << rng.below(8));
            }
            expectAgree(broken, data.size(),
                        name + " trial " + std::to_string(trial));
        }
    }
}

// --- Cross-tier byte-identity battery --------------------------------
//
// The SIMD kernel tier's contract (common/kernels.h): the tier picks
// wildCopy's store width and the CRC-32C loop, both compute the same
// function at every tier, so compressed bytes, decoded bytes, and the
// tier-invariant work counters must be identical whichever tier is
// active. Each test below replays the same inputs at the scalar
// reference tier and at the parameterized tier and compares
// everything, the bit-reader refill counters included.

/** Forces the parameterized tier for the test body; restores after. */
class TierFuzz : public ::testing::TestWithParam<kernels::Tier>
{
  protected:
    void
    SetUp() override
    {
        saved_ = kernels::activeTier();
        ASSERT_TRUE(kernels::setActiveTier(GetParam()).ok());
    }

    void TearDown() override { (void)kernels::setActiveTier(saved_); }

  private:
    kernels::Tier saved_ = kernels::Tier::scalar;
};

/** The work counters that must not depend on the active tier. */
void
expectTierInvariantCountersEqual(const mem::KernelStats &tier,
                                 const mem::KernelStats &scalar)
{
    EXPECT_EQ(tier.wildCopyBytes, scalar.wildCopyBytes);
    EXPECT_EQ(tier.snappyFastLiterals, scalar.snappyFastLiterals);
    EXPECT_EQ(tier.snappyCarefulLiterals, scalar.snappyCarefulLiterals);
    EXPECT_EQ(tier.snappyFastCopies, scalar.snappyFastCopies);
    EXPECT_EQ(tier.snappyOverlapCopies, scalar.snappyOverlapCopies);
    EXPECT_EQ(tier.matchWordCompares, scalar.matchWordCompares);
    EXPECT_EQ(tier.bitioFastRefills, scalar.bitioFastRefills);
    EXPECT_EQ(tier.bitioSlowRefills, scalar.bitioSlowRefills);
    EXPECT_EQ(tier.bitioBackwardFastRefills,
              scalar.bitioBackwardFastRefills);
    EXPECT_EQ(tier.bitioBackwardSlowRefills,
              scalar.bitioBackwardSlowRefills);
}

/** Runs @p body at the scalar tier and again at @p tier, returning the
 *  KernelStats delta of each run through the out-params. */
template <typename Body>
void
runAtBothTiers(kernels::Tier tier, Body body,
               mem::KernelStats &scalar_stats_out,
               mem::KernelStats &tier_stats_out)
{
    ASSERT_TRUE(kernels::setActiveTier(kernels::Tier::scalar).ok());
    mem::KernelStats before = mem::kernelStats();
    body();
    scalar_stats_out = mem::kernelStats().diff(before);

    ASSERT_TRUE(kernels::setActiveTier(tier).ok());
    before = mem::kernelStats();
    body();
    tier_stats_out = mem::kernelStats().diff(before);
}

TEST_P(TierFuzz, SnappyByteIdenticalToScalar)
{
    Rng rng(211);
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : {0u, 9u, 100u, 4096u, 70000u}) {
            Bytes data = corpus::generate(cls, size, rng);
            Bytes ref_comp;
            Bytes ref_out;
            Bytes tier_comp;
            Bytes tier_out;
            bool scalar_pass = true;
            mem::KernelStats scalar_stats;
            mem::KernelStats tier_stats;
            runAtBothTiers(
                GetParam(),
                [&] {
                    Bytes comp = snappy::compress(data);
                    auto out = snappy::decompress(comp);
                    ASSERT_TRUE(out.ok()) << out.status().toString();
                    if (scalar_pass) {
                        ref_comp = comp;
                        ref_out = out.value();
                        scalar_pass = false;
                    } else {
                        tier_comp = comp;
                        tier_out = std::move(out).value();
                    }
                },
                scalar_stats, tier_stats);
            EXPECT_EQ(tier_comp, ref_comp);
            EXPECT_EQ(tier_out, ref_out);
            EXPECT_EQ(ref_out, data);
            expectTierInvariantCountersEqual(tier_stats, scalar_stats);
        }
    }
}

TEST_P(TierFuzz, ZstdLiteByteIdenticalToScalar)
{
    Rng rng(223);
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : {1u, 100u, 4096u, 80000u}) {
            Bytes data = corpus::generate(cls, size, rng);
            Bytes ref_comp;
            Bytes ref_out;
            Bytes tier_comp;
            Bytes tier_out;
            bool scalar_pass = true;
            mem::KernelStats scalar_stats;
            mem::KernelStats tier_stats;
            runAtBothTiers(
                GetParam(),
                [&] {
                    auto comp = zstdlite::compress(data);
                    ASSERT_TRUE(comp.ok());
                    auto out = zstdlite::decompress(comp.value());
                    ASSERT_TRUE(out.ok()) << out.status().toString();
                    if (scalar_pass) {
                        ref_comp = comp.value();
                        ref_out = std::move(out).value();
                        scalar_pass = false;
                    } else {
                        tier_comp = comp.value();
                        tier_out = std::move(out).value();
                    }
                },
                scalar_stats, tier_stats);
            EXPECT_EQ(tier_comp, ref_comp);
            EXPECT_EQ(tier_out, ref_out);
            EXPECT_EQ(ref_out, data);
            expectTierInvariantCountersEqual(tier_stats, scalar_stats);
        }
    }
}

/**
 * Decodes @p frame, and a ladder of its truncations, at the scalar
 * tier and at @p tier: the bytes, the truncation verdicts and the
 * tier-invariant work counters must all match.
 */
template <typename Decode>
void
expectDecodeTierInvariant(kernels::Tier tier, ByteSpan frame,
                          const Bytes &payload, Decode decode)
{
    std::vector<Bytes> outs;
    std::vector<std::vector<FailureClass>> verdicts;
    mem::KernelStats scalar_stats;
    mem::KernelStats tier_stats;
    runAtBothTiers(
        tier,
        [&] {
            auto out = decode(frame);
            ASSERT_TRUE(out.ok()) << out.status().toString();
            outs.push_back(std::move(out).value());
            std::vector<FailureClass> cuts;
            const std::size_t step =
                std::max<std::size_t>(frame.size() / 16, 1);
            for (std::size_t cut = 0; cut < frame.size(); cut += step)
                cuts.push_back(failureClass(
                    decode(frame.subspan(0, cut)).status()));
            verdicts.push_back(std::move(cuts));
        },
        scalar_stats, tier_stats);
    ASSERT_EQ(outs.size(), 2u);
    EXPECT_EQ(outs[0], payload);
    EXPECT_EQ(outs[1], outs[0]);
    EXPECT_EQ(verdicts[1], verdicts[0]);
    expectTierInvariantCountersEqual(tier_stats, scalar_stats);
}

TEST_P(TierFuzz, FlateLiteByteIdenticalToScalar)
{
    // Matches replay through mem::wildCopy, whose chunk width is the
    // tier's.
    Rng rng(233);
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : {1u, 100u, 4096u, 80000u}) {
            Bytes data = corpus::generate(cls, size, rng);
            auto comp = flatelite::compress(data);
            ASSERT_TRUE(comp.ok());
            expectDecodeTierInvariant(
                GetParam(), comp.value(), data,
                [](ByteSpan frame) { return flatelite::decompress(frame); });
        }
    }
}

TEST_P(TierFuzz, GipfeliByteIdenticalToScalar)
{
    Rng rng(239);
    for (auto cls : corpus::allDataClasses()) {
        for (std::size_t size : {1u, 100u, 4096u, 80000u}) {
            Bytes data = corpus::generate(cls, size, rng);
            expectDecodeTierInvariant(GetParam(), gipfeli::compress(data),
                                      data, gipfeli::decompress);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailableTiers, TierFuzz,
    ::testing::ValuesIn(kernels::availableTiers()),
    [](const ::testing::TestParamInfo<kernels::Tier> &info) {
        return kernels::tierName(info.param);
    });

// --- Compress fast paths ---------------------------------------------
//
// The software codecs parse through lz77::fastParse unless a caller
// asks for stats; MatchFinder is its oracle.

/** A labelled parse configuration. */
struct ParseSetting
{
    std::string name;
    lz77::MatchFinderConfig config;
};

/** Every parse geometry the four codecs produce: zstdlite's and
 *  flatelite's level tables at their smallest and largest windows
 *  (between them every window bound and none), snappy's and gipfeli's
 *  fixed configurations (as their compressInto builds them). Levels
 *  that share a row appear once. */
std::vector<ParseSetting>
codecParseSettings()
{
    std::vector<ParseSetting> settings;
    auto key = [](const lz77::MatchFinderConfig &c) {
        return std::tuple(c.hashTable.log2Entries, c.hashTable.ways,
                          c.hashTable.hashFunction, c.windowSize,
                          c.minMatchLength, c.maxMatchLength,
                          c.lazyMatching, c.skipAcceleration);
    };
    auto add = [&](std::string name, const lz77::MatchFinderConfig &c) {
        for (const ParseSetting &s : settings) {
            if (key(s.config) == key(c))
                return;
        }
        settings.push_back({std::move(name), c});
    };

    lz77::MatchFinderConfig snappy_config;
    snappy_config.hashTable = snappy::CompressorConfig{}.hashTable;
    snappy_config.windowSize = snappy::kBlockSize;
    add("snappy", snappy_config);

    lz77::MatchFinderConfig gipfeli_config;
    gipfeli_config.windowSize = gipfeli::kWindowSize - 1;
    gipfeli_config.minMatchLength = gipfeli::kMinMatch;
    gipfeli_config.maxMatchLength = gipfeli::kMaxMatch;
    gipfeli_config.hashTable.log2Entries = 14;
    add("gipfeli", gipfeli_config);

    for (unsigned window :
         {zstdlite::kMinWindowLog, zstdlite::kMaxWindowLog}) {
        for (int level = zstdlite::kMinLevel; level <= zstdlite::kMaxLevel;
             ++level) {
            add("zstdlite level " + std::to_string(level) + " window " +
                    std::to_string(window),
                zstdlite::levelParameters(level, window));
        }
    }
    for (unsigned window :
         {flatelite::kMinWindowLog, flatelite::kMaxWindowLog}) {
        for (int level = 1; level <= 9; ++level) {
            add("flatelite level " + std::to_string(level) + " window " +
                    std::to_string(window),
                flatelite::flateLevelParameters(level, window));
        }
    }
    return settings;
}

void
expectSameParse(const lz77::Parse &got, const lz77::Parse &want,
                const std::string &what)
{
    EXPECT_EQ(got.inputSize, want.inputSize) << what;
    EXPECT_EQ(got.literalTailStart, want.literalTailStart) << what;
    ASSERT_EQ(got.sequences.size(), want.sequences.size()) << what;
    for (std::size_t i = 0; i < want.sequences.size(); ++i) {
        ASSERT_EQ(got.sequences[i], want.sequences[i])
            << what << ", sequence " << i;
    }
}

TEST(FastParseBattery, EqualsMatchFinderForEveryCodecGeometry)
{
    const std::vector<ParseSetting> settings = codecParseSettings();
    for (const ParseSetting &setting : settings)
        EXPECT_TRUE(lz77::hasFastParse(setting.config)) << setting.name;

    const battery::TierSweep sweep;
    battery::forEachPayload([&](const battery::Payload &payload) {
        for (std::size_t k = 0; k < settings.size(); ++k) {
            if (!payload.checks(k))
                continue;
            const std::string what = payload.what + ", " + settings[k].name;
            lz77::MatchFinderStats stats;
            mem::KernelStats before = mem::kernelStats();
            const lz77::Parse want =
                lz77::MatchFinder(settings[k].config)
                    .parse(payload.bytes, &stats);
            const u64 want_hashes =
                mem::kernelStats().diff(before).tierHashPositions[0];
            sweep.run([&](kernels::Tier tier) {
                before = mem::kernelStats();
                expectSameParse(
                    lz77::fastParse(payload.bytes, settings[k].config),
                    want, what + " at " + kernels::tierName(tier));
                // Both parsers count the positions they hash: every
                // lookup and every in-match insert, nothing speculative.
                EXPECT_EQ(mem::kernelStats().diff(before).tierHashPositions[0],
                          want_hashes)
                    << what << " at " << kernels::tierName(tier);
            });
        }
    });
}

TEST(FastParseBattery, RetainedTableEqualsFreshMatchFinderInAnyOrder)
{
    // One ParseTable, and one Parse, serve every geometry and payload
    // of the battery in shuffled order, so each parse runs on slots an
    // earlier parse of another geometry left behind; the payloads
    // include 0 and 1 byte and both sides of each hash's width. The
    // table's base starts just below the reset point, so the battery
    // also crosses the reset. Each parse must equal a fresh
    // MatchFinder's.
    const std::vector<ParseSetting> settings = codecParseSettings();
    std::vector<battery::Payload> payloads;
    battery::forEachPayload([&](const battery::Payload &payload) {
        payloads.push_back(payload);
    });
    std::vector<std::pair<std::size_t, std::size_t>> jobs;
    for (std::size_t p = 0; p < payloads.size(); ++p) {
        for (std::size_t k = 0; k < settings.size(); ++k) {
            if (payloads[p].checks(k))
                jobs.emplace_back(p, k);
        }
    }
    Rng rng(8191);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);

    lz77::ParseTable table(lz77::ParseTable::kResetBase - 5000);
    lz77::Parse parse;
    for (const auto &[p, k] : jobs) {
        const std::string what =
            payloads[p].what + ", " + settings[k].name;
        lz77::fastParse(payloads[p].bytes, settings[k].config, table,
                        parse);
        lz77::MatchFinderStats stats;
        expectSameParse(parse,
                        lz77::MatchFinder(settings[k].config)
                            .parse(payloads[p].bytes, &stats),
                        what);
        if (HasFatalFailure())
            return;
    }
}

TEST(FastParseBattery, TableBaseResetsExactlyPastTheResetPoint)
{
    // A parse that ends exactly at the reset point keeps the table; one
    // byte more and the table is zeroed first. Around that boundary, on
    // one table, every parse must equal a fresh MatchFinder's: neither a
    // slot that survived the previous parse nor a zeroed slot may read
    // as a candidate. `first` repeats its first four bytes with a
    // different fifth at byte 15 (before skip acceleration starts), in
    // a set of its own under the 5-byte hash, where only a zero slot
    // read as position 0 would offer a match.
    Bytes first = {'A', 'B', 'C', 'D', '1'};
    for (u32 i = 0; first.size() < 15; ++i)
        first.push_back(static_cast<u8>(i * 37 + 11));
    for (u8 b : {'A', 'B', 'C', 'D', '2'})
        first.push_back(b);
    for (u32 i = 0; i < 200; ++i)
        first.push_back(static_cast<u8>(i * 91 + 5));
    Rng rng(77);
    const Bytes second =
        corpus::generate(corpus::DataClass::textLike, 3000, rng);
    for (const lz77::MatchFinderConfig &config :
         {zstdlite::levelParameters(3, 17),
          flatelite::flateLevelParameters(7, 15)}) {
        lz77::MatchFinderStats stats;
        const lz77::Parse want_first =
            lz77::MatchFinder(config).parse(first, &stats);
        const lz77::Parse want_second =
            lz77::MatchFinder(config).parse(second, &stats);
        for (u64 room : {first.size() - 1, first.size(), first.size() + 1}) {
            const std::string what = std::to_string(room) + " bytes short";
            lz77::ParseTable table(lz77::ParseTable::kResetBase - room);
            lz77::Parse parse;
            for (int round = 0; round < 2; ++round) {
                lz77::fastParse(first, config, table, parse);
                expectSameParse(parse, want_first, what + ", first");
                lz77::fastParse(second, config, table, parse);
                expectSameParse(parse, want_second, what + ", second");
            }
        }
    }
}

TEST(FastParseBattery, DeclinedMultiWayLookaheadEvictsAnExtraWay)
{
    // Two-way lazy parse (flatelite level 5). At 25 "zKEY" matches
    // position 0 for 4 bytes; the lookahead at 26 finds "KEY!" at 5,
    // also 4 bytes, and is declined. The lookahead inserted 26 into
    // the "KEY!" set and the post-match inserts add 26 again, evicting
    // 5. So at 34 "KEY!" sees only 26 (4 bytes), and the lookahead at
    // 35 takes the 19-byte match at 6. A parser that inserted 26 once
    // would find the 20-byte match at 5 from 34 instead.
    const std::string text = std::string("zKEY?") +
                             "KEY!0123456789abcdef" + "zKEY!#%&*" +
                             "KEY!0123456789abcdef" + "()[]<>{}";
    const Bytes input(text.begin(), text.end());
    const lz77::MatchFinderConfig config =
        flatelite::flateLevelParameters(5, flatelite::kMaxWindowLog);
    ASSERT_EQ(config.hashTable.ways, 2u);
    ASSERT_TRUE(config.lazyMatching);

    lz77::MatchFinderStats stats;
    const lz77::Parse want = lz77::MatchFinder(config).parse(input, &stats);
    const std::vector<lz77::Sequence> expected = {
        {.literalLength = 25, .matchLength = 4, .offset = 25},
        {.literalLength = 6, .matchLength = 19, .offset = 29},
    };
    ASSERT_EQ(want.sequences, expected);
    EXPECT_EQ(want.literalTailStart, 54u);
    expectSameParse(lz77::fastParse(input, config), want, "crafted");
}

TEST(FastParseBattery, CountsItsWorkInKernelStats)
{
    Rng rng(5);
    const Bytes data =
        corpus::generate(corpus::DataClass::textLike, 64 * kKiB, rng);
    const lz77::MatchFinderConfig config =
        zstdlite::levelParameters(9, 17);
    const mem::KernelStats before = mem::kernelStats();
    const lz77::Parse parse = lz77::fastParse(data, config);
    const mem::KernelStats delta = mem::kernelStats().diff(before);
    EXPECT_FALSE(parse.sequences.empty());
    // Every scanned position is hashed, and each match costs a compare.
    EXPECT_GE(delta.tierHashPositions[0], data.size() / 8);
    EXPECT_GE(delta.matchWordCompares, parse.sequences.size());
}

/** Untraced compressInto must equal the traced, stats-taking call —
 *  the specialized parse against MatchFinder, through each codec. */
TEST(CompressFastPathBattery, UntracedOutputEqualsTracedOutput)
{
    struct Setting
    {
        std::string name;
        std::function<void(ByteSpan, Bytes &)> fast;
        std::function<void(ByteSpan, Bytes &)> reference;
    };
    std::vector<Setting> settings;
    settings.push_back(
        {"snappy",
         [](ByteSpan in, Bytes &out) { snappy::compressInto(in, out); },
         [](ByteSpan in, Bytes &out) {
             lz77::MatchFinderStats stats;
             snappy::compressInto(in, out, {}, &stats);
         }});
    // One level per parser specialization: zstdlite's 1, 2, 4, 8 and
    // 16 ways, flatelite's 1, 2 (lazy) and 4.
    for (int level : {1, 3, 7, 9, 17}) {
        zstdlite::CompressorConfig config;
        config.level = level;
        settings.push_back(
            {"zstdlite level " + std::to_string(level),
             [config](ByteSpan in, Bytes &out) {
                 ASSERT_TRUE(zstdlite::compressInto(in, out, config).ok());
             },
             [config](ByteSpan in, Bytes &out) {
                 zstdlite::FileTrace trace;
                 lz77::MatchFinderStats stats;
                 ASSERT_TRUE(zstdlite::compressInto(in, out, config,
                                                    &trace, &stats)
                                 .ok());
             }});
    }
    for (int level : {1, 5, 7}) {
        flatelite::CompressorConfig config;
        config.level = level;
        settings.push_back(
            {"flatelite level " + std::to_string(level),
             [config](ByteSpan in, Bytes &out) {
                 ASSERT_TRUE(flatelite::compressInto(in, out, config).ok());
             },
             [config](ByteSpan in, Bytes &out) {
                 flatelite::FileTrace trace;
                 lz77::MatchFinderStats stats;
                 ASSERT_TRUE(flatelite::compressInto(in, out, config,
                                                     &trace, &stats)
                                 .ok());
             }});
    }

    const battery::TierSweep sweep;
    battery::forEachPayload([&](const battery::Payload &payload) {
        for (std::size_t k = 0; k < settings.size(); ++k) {
            if (!payload.checks(k))
                continue;
            Bytes want;
            settings[k].reference(payload.bytes, want);
            sweep.run([&](kernels::Tier tier) {
                Bytes got;
                settings[k].fast(payload.bytes, got);
                EXPECT_TRUE(got == want)
                    << payload.what << ", " << settings[k].name << " at "
                    << kernels::tierName(tier);
            });
        }
    });
}

// --- Concurrent fuzz mode --------------------------------------------
//
// The serve layer reuses codec contexts call after call while other
// threads do the same; any hidden shared mutable state in a codec
// (static scratch, misused thread_local, racy table init) would let
// one thread's stream bleed into another's output. Each thread below
// replays a workload whose results were precomputed sequentially;
// every byte is compared. Failures are tallied in atomics and
// asserted on the main thread.

/** One thread's precomputed workload: payloads and expected frames. */
struct ThreadWorkload
{
    std::vector<Bytes> payloads;
    std::vector<codec::CodecId> codecs;
    std::vector<u64> expectedFrameHashes;
};

ThreadWorkload
buildWorkload(u64 seed, std::size_t calls)
{
    Rng rng(seed);
    auto classes = corpus::allDataClasses();
    const auto &codecs = codec::allCodecs();
    ThreadWorkload workload;
    serve::CodecContext context;
    for (std::size_t i = 0; i < calls; ++i) {
        auto cls = classes[rng.below(classes.size())];
        std::size_t size = 1 + rng.below(24 * kKiB);
        workload.payloads.push_back(corpus::generate(cls, size, rng));
        workload.codecs.push_back(codecs[rng.below(codecs.size())]);

        hcb::ReplayCall call;
        call.codec = workload.codecs.back();
        call.direction = codec::Direction::compress;
        call.payload = ByteSpan(workload.payloads.back().data(),
                                workload.payloads.back().size());
        ByteSpan frame;
        Status status = context.execute(call, frame);
        EXPECT_TRUE(status.ok()) << status.toString();
        workload.expectedFrameHashes.push_back(serve::fnv1a(frame));
    }
    return workload;
}

TEST(ConcurrentFuzz, SharedProcessContextsNeverCrossContaminate)
{
    constexpr unsigned kThreads = 8;
    constexpr std::size_t kCalls = 24;

    // Phase 1 (sequential): per-thread workloads with expected frame
    // hashes, computed through a fresh context.
    std::vector<ThreadWorkload> workloads;
    for (unsigned t = 0; t < kThreads; ++t)
        workloads.push_back(buildWorkload(1000 + t, kCalls));

    // Phase 2 (concurrent): every thread replays its workload through
    // one long-lived context — compress must match the precomputed
    // hash, decompress must return the original payload.
    std::atomic<u64> frame_mismatches{0};
    std::atomic<u64> roundtrip_mismatches{0};
    std::atomic<u64> failures{0};
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const ThreadWorkload &workload = workloads[t];
            serve::CodecContext compress_context;
            serve::CodecContext decompress_context;
            for (int round = 0; round < 3; ++round) {
                for (std::size_t i = 0; i < workload.payloads.size();
                     ++i) {
                    hcb::ReplayCall call;
                    call.codec = workload.codecs[i];
                    call.direction = codec::Direction::compress;
                    call.payload =
                        ByteSpan(workload.payloads[i].data(),
                                 workload.payloads[i].size());
                    ByteSpan frame;
                    if (!compress_context.execute(call, frame).ok()) {
                        ++failures;
                        continue;
                    }
                    if (serve::fnv1a(frame) !=
                        workload.expectedFrameHashes[i])
                        ++frame_mismatches;

                    hcb::ReplayCall decode;
                    decode.codec = workload.codecs[i];
                    decode.direction = codec::Direction::decompress;
                    decode.payload = frame;
                    ByteSpan out;
                    if (!decompress_context.execute(decode, out).ok()) {
                        ++failures;
                        continue;
                    }
                    if (!std::equal(out.begin(), out.end(),
                                    workload.payloads[i].begin(),
                                    workload.payloads[i].end()))
                        ++roundtrip_mismatches;
                }
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0u);
    EXPECT_EQ(frame_mismatches.load(), 0u);
    EXPECT_EQ(roundtrip_mismatches.load(), 0u);
}

TEST(ConcurrentFuzz, MutatedStreamsAcrossThreadsKeepContextsUsable)
{
    // Decode corrupt frames concurrently, then prove the context still
    // produces clean results: an error path that leaves residue in the
    // reused output buffer would corrupt the next call.
    constexpr unsigned kThreads = 8;
    std::atomic<u64> post_error_mismatches{0};
    std::atomic<u64> crashes_expected_ok{0};

    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            Rng rng(7000 + t);
            Bytes data = corpus::generateMixed(24 * kKiB, rng, kKiB);
            Bytes good = snappy::compress(data);
            serve::CodecContext context;
            for (int trial = 0; trial < 40; ++trial) {
                Bytes mutated = good;
                // A handful of bit flips: decode either fails cleanly
                // or succeeds; both verdicts must leave the context
                // intact for the follow-up good call.
                for (int flips = 0; flips < 3; ++flips)
                    mutated[rng.below(mutated.size())] ^=
                        static_cast<u8>(1u << rng.below(8));
                hcb::ReplayCall bad;
                bad.codec = codec::CodecId::snappy;
                bad.direction = codec::Direction::decompress;
                bad.payload = ByteSpan(mutated.data(), mutated.size());
                ByteSpan out;
                (void)context.execute(bad, out);

                hcb::ReplayCall ok_call;
                ok_call.codec = codec::CodecId::snappy;
                ok_call.direction = codec::Direction::decompress;
                ok_call.payload = ByteSpan(good.data(), good.size());
                if (!context.execute(ok_call, out).ok()) {
                    ++crashes_expected_ok;
                    continue;
                }
                if (!std::equal(out.begin(), out.end(), data.begin(),
                                data.end()))
                    ++post_error_mismatches;
            }
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(crashes_expected_ok.load(), 0u);
    EXPECT_EQ(post_error_mismatches.load(), 0u);
}

} // namespace
} // namespace cdpu

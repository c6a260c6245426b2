/**
 * @file
 * Transform-stage battery: the exact-inverse property every
 * preconditioner stage must hold for a pipeline codec to be lossless,
 * asserted over every corpus class and a size ladder spanning empty
 * input to multi-block BWT. The stage header (tag + claimed raw size)
 * is the only metadata a pipeline decoder trusts, so its validators
 * get their own adversarial section: a tampered tag, a lying size, or
 * a truncated body must surface as corruptData before any allocation.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "battery.h"
#include "common/varint.h"
#include "corpus/generators.h"
#include "transform/transform.h"

namespace cdpu::transform
{
namespace
{

/** Empty, single byte, sub-header, page-ish, and past the 64 KiB BWT
 *  block boundary into multi-block territory. */
constexpr std::size_t kSizes[] = {0, 1, 7, 4096, 1 * kMiB};

TEST(TransformStageTest, EveryStageEveryClassEverySizeRoundTrips)
{
    Rng rng(7001);
    for (StageId stage : allStages()) {
        for (corpus::DataClass cls : corpus::allDataClasses()) {
            for (std::size_t size : kSizes) {
                SCOPED_TRACE(testing::Message()
                             << stageName(stage) << " "
                             << corpus::dataClassName(cls) << " "
                             << size);
                Bytes data = corpus::generate(cls, size, rng);
                Bytes encoded;
                ASSERT_TRUE(apply(stage, data, encoded).ok());
                EXPECT_LE(encoded.size(),
                          maxEncodedSize(stage, data.size()));
                const StageExpansion bound = stageExpansion(stage);
                EXPECT_LE(encoded.size(),
                          data.size() * bound.num / bound.den +
                              bound.slop);
                Bytes decoded;
                ASSERT_TRUE(invert(stage, encoded, decoded).ok());
                EXPECT_EQ(decoded, data);
            }
        }
    }
}

TEST(TransformStageTest, StageNamesRoundTripAndStayStable)
{
    EXPECT_EQ(allStages().size(), kNumStages);
    for (StageId stage : allStages()) {
        auto back = stageFromName(stageName(stage));
        ASSERT_TRUE(back.ok()) << stageName(stage);
        EXPECT_EQ(back.value(), stage);
    }
    EXPECT_EQ(stageName(StageId::delta), "delta");
    EXPECT_EQ(stageName(StageId::bwt), "bwt");
    EXPECT_FALSE(stageFromName("no-such-stage").ok());
}

TEST(TransformStageTest, OutputBuffersAreReplacedNotAppended)
{
    Rng rng(7002);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 512, rng);
    for (StageId stage : allStages()) {
        SCOPED_TRACE(stageName(stage));
        Bytes encoded{0xde, 0xad};
        ASSERT_TRUE(apply(stage, data, encoded).ok());
        Bytes decoded{0xbe, 0xef};
        ASSERT_TRUE(invert(stage, encoded, decoded).ok());
        EXPECT_EQ(decoded, data);
    }
}

// --- BWT block framing ------------------------------------------------

/** Exact block boundary, one under, one over, and several blocks: the
 *  primary-index bookkeeping must hold per block, not just globally. */
TEST(TransformBwtTest, BlockBoundarySizesRoundTrip)
{
    Rng rng(7003);
    for (std::size_t size :
         {kBwtBlockBytes - 1, kBwtBlockBytes, kBwtBlockBytes + 1,
          3 * kBwtBlockBytes + 17}) {
        SCOPED_TRACE(size);
        Bytes data = corpus::generate(corpus::DataClass::textLike, size,
                                      rng);
        Bytes encoded;
        ASSERT_TRUE(apply(StageId::bwt, data, encoded).ok());
        Bytes decoded;
        ASSERT_TRUE(invert(StageId::bwt, encoded, decoded).ok());
        EXPECT_EQ(decoded, data);
    }
}

TEST(TransformBwtTest, PeriodicAndConstantInputsRoundTrip)
{
    // Rotation sorting must stay a total order under ties: constant
    // and short-period inputs make every rotation compare equal for
    // long prefixes.
    for (std::size_t size : {std::size_t{2}, std::size_t{255},
                             kBwtBlockBytes, kBwtBlockBytes + 3}) {
        SCOPED_TRACE(size);
        Bytes constant(size, u8{0x41});
        Bytes encoded;
        ASSERT_TRUE(apply(StageId::bwt, constant, encoded).ok());
        Bytes decoded;
        ASSERT_TRUE(invert(StageId::bwt, encoded, decoded).ok());
        EXPECT_EQ(decoded, constant);

        Bytes periodic(size);
        for (std::size_t i = 0; i < size; ++i)
            periodic[i] = static_cast<u8>(i % 3);
        ASSERT_TRUE(apply(StageId::bwt, periodic, encoded).ok());
        ASSERT_TRUE(invert(StageId::bwt, encoded, decoded).ok());
        EXPECT_EQ(decoded, periodic);
    }
}

// --- The fast apply loops against the loops they replaced ------------

/** The linear-search move-to-front loop: the oracle for mtfApply. */
Bytes
referenceMtf(ByteSpan input)
{
    std::array<u8, 256> table;
    std::iota(table.begin(), table.end(), 0);
    Bytes out;
    for (u8 byte : input) {
        std::size_t index = 0;
        while (table[index] != byte)
            ++index;
        out.push_back(static_cast<u8>(index));
        std::copy_backward(table.begin(), table.begin() + index,
                           table.begin() + index + 1);
        table[0] = byte;
    }
    return out;
}

/** The push_back and shift-per-byte loop: the oracle for mtfInvert. */
Bytes
referenceMtfInvert(ByteSpan body)
{
    std::array<u8, 256> table;
    std::iota(table.begin(), table.end(), 0);
    Bytes out;
    for (u8 index : body) {
        u8 byte = table[index];
        out.push_back(byte);
        std::copy_backward(table.begin(), table.begin() + index,
                           table.begin() + index + 1);
        table[0] = byte;
    }
    return out;
}

/** The prefix-doubling rotation sort with two `% n` per element per
 *  round: the oracle for bwtForward, ties and primary index included.
 *  Appends [varint len][varint primary][last column]. */
void
referenceBwtBlock(ByteSpan block, Bytes &out)
{
    const std::size_t n = block.size();
    Bytes last(n);
    u32 primary = 0;
    if (n == 1)
        last[0] = block[0];
    if (n > 1) {
        std::vector<u32> p(n), c(n), pn(n), cn(n);
        std::vector<u32> cnt(256, 0);
        for (std::size_t i = 0; i < n; ++i)
            cnt[block[i]]++;
        for (std::size_t i = 1; i < 256; ++i)
            cnt[i] += cnt[i - 1];
        for (std::size_t i = n; i-- > 0;)
            p[--cnt[block[i]]] = static_cast<u32>(i);
        c[p[0]] = 0;
        u32 classes = 1;
        for (std::size_t i = 1; i < n; ++i) {
            if (block[p[i]] != block[p[i - 1]])
                ++classes;
            c[p[i]] = classes - 1;
        }
        for (std::size_t h = 1; h < n && classes < n; h <<= 1) {
            for (std::size_t i = 0; i < n; ++i) {
                pn[i] = p[i] >= h ? p[i] - static_cast<u32>(h)
                                  : static_cast<u32>(p[i] + n - h);
            }
            cnt.assign(classes, 0);
            for (std::size_t i = 0; i < n; ++i)
                cnt[c[pn[i]]]++;
            for (std::size_t i = 1; i < classes; ++i)
                cnt[i] += cnt[i - 1];
            for (std::size_t i = n; i-- > 0;)
                p[--cnt[c[pn[i]]]] = pn[i];
            cn[p[0]] = 0;
            u32 next_classes = 1;
            for (std::size_t i = 1; i < n; ++i) {
                std::size_t mid_a = (p[i] + h) % n;
                std::size_t mid_b = (p[i - 1] + h) % n;
                if (c[p[i]] != c[p[i - 1]] || c[mid_a] != c[mid_b])
                    ++next_classes;
                cn[p[i]] = next_classes - 1;
            }
            c.swap(cn);
            classes = next_classes;
        }
        for (std::size_t i = 0; i < n; ++i) {
            last[i] = block[(p[i] + n - 1) % n];
            if (p[i] == 0)
                primary = static_cast<u32>(i);
        }
    }
    putVarint(out, n);
    putVarint(out, primary);
    out.insert(out.end(), last.begin(), last.end());
}

/** The stage frame the oracles produce for @p stage over @p input. */
Bytes
referenceFrame(StageId stage, ByteSpan input)
{
    Bytes frame{static_cast<u8>(0xA0 | static_cast<u8>(stage))};
    putVarint(frame, input.size());
    if (stage == StageId::mtf) {
        const Bytes body = referenceMtf(input);
        frame.insert(frame.end(), body.begin(), body.end());
        return frame;
    }
    for (std::size_t pos = 0; pos < input.size(); pos += kBwtBlockBytes) {
        referenceBwtBlock(
            input.subspan(pos, std::min(kBwtBlockBytes, input.size() - pos)),
            frame);
    }
    return frame;
}

void
expectApplyEqualsReference(StageId stage, ByteSpan input,
                           const std::string &what)
{
    const Bytes want = referenceFrame(stage, input);
    const battery::TierSweep sweep;
    sweep.run([&](kernels::Tier tier) {
        Bytes got;
        ASSERT_TRUE(apply(stage, input, got).ok());
        EXPECT_TRUE(got == want) << stageName(stage) << " on " << what
                                 << " at " << kernels::tierName(tier);
    });
}

TEST(TransformFastApplyTest, BwtAndMtfEqualTheReplacedLoops)
{
    const StageId stages[] = {StageId::bwt, StageId::mtf};
    battery::forEachPayload([&](const battery::Payload &payload) {
        for (std::size_t k = 0; k < std::size(stages); ++k) {
            if (payload.checks(k))
                expectApplyEqualsReference(stages[k], payload.bytes,
                                           payload.what);
        }
    });
}

TEST(TransformFastApplyTest, MtfInvertEqualsTheReplacedLoop)
{
    // Any byte string is an index stream: each payload's own bytes
    // reach every index, and its MTF output is the small-index stream
    // the stage really decodes.
    battery::forEachPayload([&](const battery::Payload &payload) {
        Bytes encoded;
        ASSERT_TRUE(apply(StageId::mtf, payload.bytes, encoded).ok());
        const Bytes mtf_output(encoded.end() - static_cast<std::ptrdiff_t>(
                                                   payload.bytes.size()),
                               encoded.end());
        for (const Bytes *indices : {&mtf_output, &payload.bytes}) {
            Bytes frame{static_cast<u8>(0xA0 | static_cast<u8>(StageId::mtf))};
            putVarint(frame, indices->size());
            frame.insert(frame.end(), indices->begin(), indices->end());
            Bytes decoded;
            ASSERT_TRUE(invert(StageId::mtf, frame, decoded).ok());
            EXPECT_TRUE(decoded == referenceMtfInvert(*indices))
                << payload.what;
        }
    });
}

TEST(TransformFastApplyTest, TiedRotationsKeepTheirPrimaryIndex)
{
    // Periodic blocks make whole groups of rotations equal; the stable
    // sorts' tie order decides which row the original lands on.
    for (std::size_t period : {1u, 2u, 3u, 7u, 64u}) {
        for (std::size_t size : {std::size_t{2}, std::size_t{255},
                                 kBwtBlockBytes - 1, kBwtBlockBytes,
                                 kBwtBlockBytes + 3}) {
            Bytes periodic(size);
            for (std::size_t i = 0; i < size; ++i) {
                const std::size_t j = i % period;
                periodic[i] = static_cast<u8>('a' + j * j % 7);
            }
            const std::string what = "period " + std::to_string(period) +
                                     " at " + std::to_string(size) + " B";
            expectApplyEqualsReference(StageId::bwt, periodic, what);
            expectApplyEqualsReference(StageId::mtf, periodic, what);
        }
    }
}

TEST(TransformBwtTest, EmptyInputIsAHeaderOnlyFrame)
{
    Bytes encoded;
    ASSERT_TRUE(apply(StageId::bwt, {}, encoded).ok());
    ASSERT_GE(encoded.size(), 2u); // tag + varint 0, no blocks.
    Bytes decoded{1, 2, 3};
    ASSERT_TRUE(invert(StageId::bwt, encoded, decoded).ok());
    EXPECT_TRUE(decoded.empty());
}

TEST(TransformBwtTest, OutOfRangePrimaryIndexIsCorrupt)
{
    Bytes data(100, u8{0x2a});
    Bytes encoded;
    ASSERT_TRUE(apply(StageId::bwt, data, encoded).ok());
    // Frame: tag, varint rawSize(100)=1 byte, varint blockLen(100),
    // varint primary. Saturate the primary varint's low byte upward
    // until it exceeds blockLen.
    Bytes tampered = encoded;
    tampered[3] = 0x7f; // primary = 127 > blockLen = 100.
    Bytes decoded;
    EXPECT_EQ(invert(StageId::bwt, tampered, decoded).code(),
              StatusCode::corruptData);
}

// --- Stage header validation ------------------------------------------

TEST(TransformHeaderTest, MismatchedTagIsCorrupt)
{
    Rng rng(7004);
    Bytes data = corpus::generate(corpus::DataClass::logLike, 256, rng);
    for (StageId stage : allStages()) {
        SCOPED_TRACE(stageName(stage));
        Bytes encoded;
        ASSERT_TRUE(apply(stage, data, encoded).ok());

        // Inverting with a different stage must reject the tag.
        for (StageId other : allStages()) {
            if (other == stage)
                continue;
            Bytes decoded;
            EXPECT_EQ(invert(other, encoded, decoded).code(),
                      StatusCode::corruptData);
        }

        // Clobbering the tag byte entirely must reject too.
        Bytes tampered = encoded;
        tampered[0] = 0xff;
        Bytes decoded;
        EXPECT_EQ(invert(stage, tampered, decoded).code(),
                  StatusCode::corruptData);
    }
}

TEST(TransformHeaderTest, LyingRawSizeIsCorruptNotAnAllocation)
{
    Rng rng(7005);
    Bytes data = corpus::generate(corpus::DataClass::textLike, 1024,
                                  rng);
    for (StageId stage : allStages()) {
        SCOPED_TRACE(stageName(stage));
        Bytes encoded;
        ASSERT_TRUE(apply(stage, data, encoded).ok());
        // Replace the varint raw size with a 5-byte huge claim. The
        // inverter must reject it against the body's analytic bound
        // instead of reserving gigabytes.
        Bytes tampered;
        tampered.push_back(encoded[0]);
        for (u8 b : {0xff, 0xff, 0xff, 0xff, 0x0f})
            tampered.push_back(b);
        std::size_t varint_end = 1;
        while (varint_end < encoded.size() &&
               (encoded[varint_end] & 0x80))
            ++varint_end;
        ++varint_end;
        tampered.insert(tampered.end(), encoded.begin() + varint_end,
                        encoded.end());
        Bytes decoded;
        EXPECT_EQ(invert(stage, tampered, decoded).code(),
                  StatusCode::corruptData);
    }
}

TEST(TransformHeaderTest, TruncationIsCorrupt)
{
    Rng rng(7006);
    Bytes data = corpus::generate(corpus::DataClass::repetitive, 2048,
                                  rng);
    for (StageId stage : allStages()) {
        SCOPED_TRACE(stageName(stage));
        Bytes encoded;
        ASSERT_TRUE(apply(stage, data, encoded).ok());
        for (std::size_t cut :
             {std::size_t{0}, std::size_t{1}, encoded.size() / 2,
              encoded.size() - 1}) {
            Bytes decoded;
            EXPECT_EQ(invert(stage,
                             ByteSpan(encoded.data(), cut),
                             decoded)
                          .code(),
                      StatusCode::corruptData)
                << "cut " << cut;
        }
    }
}

// --- Stage stats ------------------------------------------------------

TEST(TransformStatsTest, ApplyAndInvertAttributeBytes)
{
    Rng rng(7007);
    Bytes data = corpus::generate(corpus::DataClass::timeSeries,
                                  32 * kKiB, rng);
    const StageStats before = stageStats();
    Bytes encoded;
    ASSERT_TRUE(apply(StageId::delta, data, encoded).ok());
    Bytes decoded;
    ASSERT_TRUE(invert(StageId::delta, encoded, decoded).ok());
    const StageStats delta = stageStats().diff(before);
    const auto idx = static_cast<std::size_t>(StageId::delta);
    EXPECT_EQ(delta.applyBytes[idx], data.size());
    EXPECT_EQ(delta.invertBytes[idx], data.size());
    EXPECT_GT(delta.applyNs[idx], 0u);
    EXPECT_GT(delta.invertNs[idx], 0u);
    // Untouched stages stay untouched.
    const auto rle = static_cast<std::size_t>(StageId::rle);
    EXPECT_EQ(delta.applyBytes[rle], 0u);
}

} // namespace
} // namespace cdpu::transform

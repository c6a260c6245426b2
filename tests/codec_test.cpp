/**
 * @file
 * Codec-core battery: the registry's structural invariants and the
 * session contract from session.h, asserted uniformly over every
 * registered codec — whole-buffer round trips across data classes,
 * scratch-buffer reuse through the *Into entry points, streaming
 * sessions at chunk sizes {1, 7, 4096, whole} with byte-identical
 * output at every granularity, the analytic maxCompressedSize bound
 * on incompressible input, and truncation surfacing as corruptData
 * at finish() instead of a short success.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "codec/registry.h"
#include "codec/session.h"
#include "common/kernels.h"
#include "common/mem.h"
#include "corpus/generators.h"

namespace cdpu::codec
{
namespace
{

/** The chunk granularities every streaming assertion runs at; 0 is
 *  the whole-buffer feed. */
constexpr std::size_t kChunkSizes[] = {1, 7, 4096, 0};

CodecParams
defaultParams(const CodecVTable &vtable)
{
    return vtable.caps.clamp(vtable.caps.defaultLevel,
                             vtable.caps.defaultWindowLog);
}

// --- Registry structure ----------------------------------------------

TEST(CodecRegistryTest, EveryCodecIsRegisteredAndSelfConsistent)
{
    // The base codecs plus the curated pipelines registered at
    // startup; codecFromName can append more later in the process.
    ASSERT_GE(allCodecs().size(), kNumBaseCodecs + 3);
    std::set<std::string> names;
    std::size_t pipelines = 0;
    for (CodecId id : allCodecs()) {
        const CodecVTable &vtable = registry(id);
        EXPECT_EQ(vtable.caps.id, id);
        EXPECT_NE(vtable.compressInto, nullptr);
        EXPECT_NE(vtable.decompressInto, nullptr);
        EXPECT_NE(vtable.maxCompressedSize, nullptr);
        EXPECT_NE(vtable.makeCompressSession, nullptr);
        EXPECT_NE(vtable.makeDecompressSession, nullptr);
        EXPECT_FALSE(vtable.caps.name.empty());
        EXPECT_TRUE(names.insert(vtable.caps.name).second)
            << "duplicate name " << vtable.caps.name;
        if (vtable.caps.isPipeline) {
            ++pipelines;
            EXPECT_FALSE(vtable.caps.stages.empty());
        }
        auto back = codecFromName(codecName(id));
        ASSERT_TRUE(back.ok()) << codecName(id);
        EXPECT_EQ(back.value(), id);
    }
    EXPECT_GE(pipelines, 3u);
    // The four base codecs keep their historical enum slots.
    for (CodecId id : {CodecId::snappy, CodecId::zstdlite,
                       CodecId::flatelite, CodecId::gipfeli}) {
        EXPECT_FALSE(registry(id).caps.isPipeline);
    }
    EXPECT_FALSE(codecFromName("no-such-codec").ok());
    // The error message names every registered codec so CLI users can
    // discover pipelines.
    auto missing = codecFromName("no-such-codec");
    EXPECT_NE(missing.status().toString().find("delta+snappy"),
              std::string::npos)
        << missing.status().toString();
}

TEST(CodecRegistryTest, ClampKeepsParametersInsideCaps)
{
    for (CodecId id : allCodecs()) {
        const CodecCaps &caps = registry(id).caps;
        for (int level : {-1000, 0, 3, 1000}) {
            for (unsigned window_log : {0u, 12u, 99u}) {
                CodecParams params = caps.clamp(level, window_log);
                if (caps.hasLevels) {
                    EXPECT_GE(params.level, caps.minLevel);
                    EXPECT_LE(params.level, caps.maxLevel);
                } else {
                    EXPECT_EQ(params.level, caps.defaultLevel);
                }
                if (caps.hasWindow) {
                    EXPECT_GE(params.windowLog, caps.minWindowLog);
                    EXPECT_LE(params.windowLog, caps.maxWindowLog);
                } else {
                    EXPECT_EQ(params.windowLog, caps.defaultWindowLog);
                }
            }
        }
    }
}

// --- Whole-buffer round trips ----------------------------------------

TEST(CodecRoundTripTest, EveryCodecEveryDataClass)
{
    Rng rng(101);
    for (CodecId id : allCodecs()) {
        const CodecVTable &vtable = registry(id);
        const CodecParams params = defaultParams(vtable);
        for (corpus::DataClass cls : corpus::allDataClasses()) {
            for (std::size_t size : {std::size_t{1}, 4 * kKiB,
                                     std::size_t{100000}}) {
                SCOPED_TRACE(testing::Message()
                             << codecName(id) << " "
                             << corpus::dataClassName(cls) << " "
                             << size);
                Bytes data = corpus::generate(cls, size, rng);
                Bytes compressed;
                ASSERT_TRUE(
                    compressInto(id, data, params, compressed).ok());
                EXPECT_LE(compressed.size(),
                          vtable.maxCompressedSize(data.size()));
                Bytes decoded;
                ASSERT_TRUE(decompressInto(id, compressed, decoded).ok());
                EXPECT_EQ(decoded, data);
            }
        }
    }
}

TEST(CodecRoundTripTest, IntoEntryPointsReuseOneScratchBuffer)
{
    Rng rng(202);
    // One pair of buffers and one codec scratch across every codec and
    // size: the serve layer's allocation-free steady state. Stale
    // capacity or stale contents from the previous codec must never
    // leak through.
    Bytes compressed;
    Bytes decoded;
    Scratch scratch;
    for (std::size_t size : {90000u, 333u, 48000u, 1u}) {
        for (CodecId id : allCodecs()) {
            SCOPED_TRACE(testing::Message()
                         << codecName(id) << " " << size);
            Bytes data = corpus::generateMixed(size, rng, 4 * kKiB);
            const CodecVTable &vtable = registry(id);
            ASSERT_TRUE(vtable
                            .compressInto(data, defaultParams(vtable),
                                          compressed, scratch)
                            .ok());
            ASSERT_TRUE(
                vtable.decompressInto(compressed, decoded, scratch).ok());
            EXPECT_EQ(decoded, data);
        }
    }
}

TEST(CodecRoundTripTest, MaxCompressedSizeBoundsIncompressibleInput)
{
    Rng rng(303);
    for (CodecId id : allCodecs()) {
        const CodecVTable &vtable = registry(id);
        const CodecCaps &caps = vtable.caps;
        for (std::size_t size :
             {std::size_t{1}, std::size_t{100}, 64 * kKiB,
              std::size_t{120 * kKiB + 1}, 256 * kKiB}) {
            SCOPED_TRACE(testing::Message()
                         << codecName(id) << " " << size);
            Bytes data = corpus::generate(
                corpus::DataClass::randomBytes, size, rng);
            Bytes compressed;
            ASSERT_TRUE(
                compressInto(id, data, defaultParams(vtable), compressed)
                    .ok());
            // The vtable's analytic bound and the caps' advertised
            // expansion formula must both hold.
            EXPECT_LE(compressed.size(),
                      vtable.maxCompressedSize(size));
            EXPECT_LE(compressed.size(),
                      size * caps.maxExpansionNum /
                              caps.maxExpansionDen +
                          caps.maxExpansionSlop);
        }
    }
}

// --- Cross-tier determinism ------------------------------------------

/** Forces the parameterized SIMD kernel tier for the test body. */
class CodecTierTest : public ::testing::TestWithParam<kernels::Tier>
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

TEST_P(CodecTierTest, EveryCodecByteIdenticalToScalar)
{
    // The kernel-tier contract at the registry boundary: whichever
    // tier is active, every codec must emit the same compressed bytes,
    // decode to the same plaintext, and do the same tier-invariant
    // work (wild-copy bytes and match compares; refill counts are a
    // decode-loop-shape property and legitimately shrink on the fused
    // Huffman path).
    Rng rng(909);
    for (CodecId id : allCodecs()) {
        const CodecVTable &vtable = registry(id);
        const CodecParams params = defaultParams(vtable);
        for (corpus::DataClass cls : corpus::allDataClasses()) {
            SCOPED_TRACE(testing::Message()
                         << codecName(id) << " "
                         << corpus::dataClassName(cls) << " tier "
                         << kernels::tierName(GetParam()));
            Bytes data = corpus::generate(cls, 60000, rng);

            ASSERT_TRUE(
                kernels::setActiveTier(kernels::Tier::scalar).ok());
            mem::KernelStats before = mem::kernelStats();
            Bytes ref_comp;
            Bytes ref_out;
            ASSERT_TRUE(compressInto(id, data, params, ref_comp).ok());
            ASSERT_TRUE(decompressInto(id, ref_comp, ref_out).ok());
            mem::KernelStats scalar_stats =
                mem::kernelStats().diff(before);

            ASSERT_TRUE(kernels::setActiveTier(GetParam()).ok());
            before = mem::kernelStats();
            Bytes tier_comp;
            Bytes tier_out;
            ASSERT_TRUE(compressInto(id, data, params, tier_comp).ok());
            ASSERT_TRUE(decompressInto(id, tier_comp, tier_out).ok());
            mem::KernelStats tier_stats =
                mem::kernelStats().diff(before);

            EXPECT_EQ(tier_comp, ref_comp);
            EXPECT_EQ(tier_out, ref_out);
            EXPECT_EQ(ref_out, data);
            EXPECT_EQ(tier_stats.wildCopyBytes,
                      scalar_stats.wildCopyBytes);
            EXPECT_EQ(tier_stats.matchWordCompares,
                      scalar_stats.matchWordCompares);
            EXPECT_EQ(tier_stats.snappyFastLiterals,
                      scalar_stats.snappyFastLiterals);
            EXPECT_EQ(tier_stats.snappyFastCopies,
                      scalar_stats.snappyFastCopies);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllAvailableTiers, CodecTierTest,
    ::testing::ValuesIn(kernels::availableTiers()),
    [](const ::testing::TestParamInfo<kernels::Tier> &info) {
        return kernels::tierName(info.param);
    });

// --- Streaming sessions ----------------------------------------------

TEST(CodecSessionTest, CompressionIsChunkGranularityInvariant)
{
    Rng rng(404);
    Bytes data = corpus::generateMixed(100000, rng, 8 * kKiB);
    for (CodecId id : allCodecs()) {
        const CodecVTable &vtable = registry(id);
        const CodecParams params = defaultParams(vtable);
        Bytes reference;
        for (std::size_t chunk : kChunkSizes) {
            SCOPED_TRACE(testing::Message()
                         << codecName(id) << " chunk " << chunk);
            auto session = vtable.makeCompressSession(params);
            Bytes out;
            ASSERT_TRUE(compressAll(*session, data, chunk, out).ok());
            if (reference.empty())
                reference = out;
            else
                EXPECT_EQ(out, reference);
        }
        ASSERT_FALSE(reference.empty());

        // The session stream round-trips through a session decoder at
        // every feed granularity, always to the same bytes.
        for (std::size_t chunk : kChunkSizes) {
            SCOPED_TRACE(testing::Message() << codecName(id)
                                            << " decode chunk "
                                            << chunk);
            auto session = vtable.makeDecompressSession();
            Bytes decoded;
            ASSERT_TRUE(
                decompressAll(*session, reference, chunk, decoded)
                    .ok());
            EXPECT_EQ(decoded, data);
        }

        // When the session stream shares the whole-buffer container,
        // the two entry points must be interchangeable both ways.
        if (vtable.caps.streamingSharesBufferFormat) {
            Bytes decoded;
            ASSERT_TRUE(decompressInto(id, reference, decoded).ok());
            EXPECT_EQ(decoded, data);

            Bytes whole;
            ASSERT_TRUE(compressInto(id, data, params, whole).ok());
            auto session = vtable.makeDecompressSession();
            Bytes streamed;
            ASSERT_TRUE(
                decompressAll(*session, whole, 4096, streamed).ok());
            EXPECT_EQ(streamed, data);
        }
    }
}

TEST(CodecSessionTest, EmptyStreamRoundTrips)
{
    for (CodecId id : allCodecs()) {
        SCOPED_TRACE(codecName(id));
        const CodecVTable &vtable = registry(id);
        auto compress =
            vtable.makeCompressSession(defaultParams(vtable));
        Bytes frame;
        ASSERT_TRUE(compressAll(*compress, {}, 0, frame).ok());
        auto decompress = vtable.makeDecompressSession();
        Bytes decoded;
        ASSERT_TRUE(decompressAll(*decompress, frame, 1, decoded).ok());
        EXPECT_TRUE(decoded.empty());
    }
}

TEST(CodecSessionTest, FeedAfterFinishIsInvalid)
{
    Rng rng(505);
    Bytes data = corpus::generateMixed(4 * kKiB, rng);
    for (CodecId id : allCodecs()) {
        SCOPED_TRACE(codecName(id));
        const CodecVTable &vtable = registry(id);
        auto compress =
            vtable.makeCompressSession(defaultParams(vtable));
        ASSERT_TRUE(compress->feed(data).ok());
        ASSERT_TRUE(compress->finish().ok());
        Bytes frame;
        compress->drain(frame);
        EXPECT_EQ(compress->feed(data).code(),
                  StatusCode::invalidArgument);

        auto decompress = vtable.makeDecompressSession();
        ASSERT_TRUE(decompress->feed(frame).ok());
        ASSERT_TRUE(decompress->finish().ok());
        EXPECT_EQ(decompress->feed(frame).code(),
                  StatusCode::invalidArgument);
    }
}

TEST(CodecSessionTest, TruncationIsCorruptionNeverShortSuccess)
{
    Rng rng(606);
    Bytes data = corpus::generateMixed(100000, rng, 8 * kKiB);
    for (CodecId id : allCodecs()) {
        const CodecVTable &vtable = registry(id);
        auto compress =
            vtable.makeCompressSession(defaultParams(vtable));
        Bytes frame;
        ASSERT_TRUE(compressAll(*compress, data, 0, frame).ok());
        ASSERT_GT(frame.size(), 2u);

        // Dropping the last byte cuts a unit mid-body for every
        // codec's container: decode must fail — by finish() at the
        // latest — and fail as corruption.
        for (std::size_t cut : {frame.size() - 1, frame.size() / 2,
                                std::size_t{2}}) {
            SCOPED_TRACE(testing::Message()
                         << codecName(id) << " cut " << cut);
            ByteSpan truncated(frame.data(), cut);
            auto session = vtable.makeDecompressSession();
            Bytes decoded;
            Status status =
                decompressAll(*session, truncated, 4096, decoded);
            // A cut that lands exactly on a unit boundary can be a
            // legal prefix for self-delimiting containers without an
            // end marker; it must never reconstruct the full input.
            if (status.ok())
                EXPECT_LT(decoded.size(), data.size());
            else
                EXPECT_EQ(status.code(), StatusCode::corruptData);
        }

        // The last-byte cut specifically must never succeed.
        auto session = vtable.makeDecompressSession();
        Bytes decoded;
        EXPECT_EQ(decompressAll(*session,
                                ByteSpan(frame.data(),
                                         frame.size() - 1),
                                0, decoded)
                      .code(),
                  StatusCode::corruptData);
    }
}

TEST(CodecSessionTest, StreamingErrorClassMatchesWholeBufferDecode)
{
    // A corrupt frame fed to a streaming decoder — at any chunk
    // granularity — must land in the same failure class as the
    // whole-buffer entry point, and the error must stay sticky.
    // Regression (zstdlite): block-boundary corruption once surfaced
    // as invalidArgument from the chunked path while decompressInto
    // reported corruptData.
    Rng rng(808);
    Bytes data = corpus::generateMixed(64 * kKiB, rng);
    for (CodecId id : allCodecs()) {
        const CodecVTable &vtable = registry(id);
        if (!vtable.caps.streamingSharesBufferFormat)
            continue; // snappy sessions speak the framing container
        auto compress =
            vtable.makeCompressSession(defaultParams(vtable));
        Bytes frame;
        ASSERT_TRUE(compressAll(*compress, data, 0, frame).ok());
        ASSERT_GT(frame.size(), 8u);

        // Corrupt a spread of positions: magic, header, block
        // interior, tail.
        for (std::size_t where : {std::size_t{0}, std::size_t{5},
                                  frame.size() / 2, frame.size() - 2}) {
            Bytes mutated = frame;
            mutated[where] ^= 0x20;
            Bytes whole_out;
            Status whole = decompressInto(
                id, ByteSpan(mutated.data(), mutated.size()), whole_out);

            for (std::size_t chunk : {std::size_t{1}, std::size_t{7},
                                      std::size_t{0}}) {
                SCOPED_TRACE(testing::Message()
                             << codecName(id) << " byte " << where
                             << " chunk " << chunk);
                auto session = vtable.makeDecompressSession();
                Bytes decoded;
                Status streamed =
                    decompressAll(*session, mutated, chunk, decoded);
                EXPECT_EQ(failureClass(streamed), failureClass(whole))
                    << streamed.toString() << " vs "
                    << whole.toString();
                if (whole.ok() && streamed.ok()) {
                    EXPECT_EQ(decoded, whole_out);
                }
                if (!streamed.ok()) {
                    // Sticky: finishing again reports the same class.
                    EXPECT_EQ(failureClass(session->finish()),
                              failureClass(streamed));
                }
            }
        }
    }
}

TEST(CodecSessionTest, CorruptionSticksAcrossSubsequentCalls)
{
    Rng rng(707);
    Bytes data = corpus::generateMixed(32 * kKiB, rng);
    for (CodecId id : allCodecs()) {
        SCOPED_TRACE(codecName(id));
        const CodecVTable &vtable = registry(id);
        auto compress =
            vtable.makeCompressSession(defaultParams(vtable));
        Bytes frame;
        ASSERT_TRUE(compressAll(*compress, data, 0, frame).ok());

        auto session = vtable.makeDecompressSession();
        Bytes decoded;
        Status status = decompressAll(
            *session, ByteSpan(frame.data(), frame.size() - 3), 0,
            decoded);
        ASSERT_FALSE(status.ok());
        // The session stays failed: more input cannot resurrect it.
        EXPECT_FALSE(
            session->feed(ByteSpan(frame.data() + frame.size() - 3, 3))
                .ok());
    }
}

} // namespace
} // namespace cdpu::codec

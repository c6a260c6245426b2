/**
 * @file
 * Unit battery for the SIMD kernel tier (common/kernels.h): tier
 * naming/selection mechanics, and — the load-bearing part — bit-exact
 * equivalence of the two tier-selected kernels (wildCopy's store width
 * and the CRC-32C loop) against the scalar reference across sizes,
 * alignments, and overlap distances. The codec-level
 * cross-tier batteries (fastpath_fuzz_test, codec_test) build on the
 * guarantees pinned here.
 */

#include <gtest/gtest.h>

#include "common/crc32c.h"
#include "common/kernels.h"
#include "common/mem.h"
#include "common/rng.h"

namespace cdpu
{
namespace
{

/** Restores the entry tier when a test scope ends, pass or fail. */
class TierGuard
{
  public:
    TierGuard() : saved_(kernels::activeTier()) {}
    ~TierGuard() { (void)kernels::setActiveTier(saved_); }

  private:
    kernels::Tier saved_;
};

TEST(KernelTierTest, NamesRoundTrip)
{
    for (kernels::Tier tier :
         {kernels::Tier::scalar, kernels::Tier::sse42,
          kernels::Tier::avx2, kernels::Tier::neon}) {
        auto parsed = kernels::tierFromName(kernels::tierName(tier));
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(parsed.value(), tier);
    }
    EXPECT_FALSE(kernels::tierFromName("avx512").ok());
    EXPECT_FALSE(kernels::tierFromName("").ok());
    EXPECT_FALSE(kernels::tierFromName("SSE42").ok());
}

TEST(KernelTierTest, AvailableTiersStartWithScalarAndIncludeDetected)
{
    std::vector<kernels::Tier> tiers = kernels::availableTiers();
    ASSERT_FALSE(tiers.empty());
    EXPECT_EQ(tiers.front(), kernels::Tier::scalar);
    bool has_detected = false;
    for (kernels::Tier tier : tiers)
        has_detected = has_detected || tier == kernels::detectedTier();
    EXPECT_TRUE(has_detected);
}

TEST(KernelTierTest, SetActiveTierRejectsUnavailable)
{
    TierGuard guard;
    std::vector<kernels::Tier> tiers = kernels::availableTiers();
    for (kernels::Tier tier :
         {kernels::Tier::scalar, kernels::Tier::sse42,
          kernels::Tier::avx2, kernels::Tier::neon}) {
        bool available = false;
        for (kernels::Tier t : tiers)
            available = available || t == tier;
        Status set = kernels::setActiveTier(tier);
        EXPECT_EQ(set.ok(), available) << kernels::tierName(tier);
        if (available) {
            EXPECT_EQ(kernels::activeTier(), tier);
        }
    }
}

TEST(KernelTierTest, ApplyTierOverrideParsesAndSelects)
{
    TierGuard guard;
    ASSERT_TRUE(kernels::applyTierOverride("scalar").ok());
    EXPECT_EQ(kernels::activeTier(), kernels::Tier::scalar);
    EXPECT_FALSE(kernels::applyTierOverride("warp9").ok());
    // A failed override must not disturb the active tier.
    EXPECT_EQ(kernels::activeTier(), kernels::Tier::scalar);
}

TEST(KernelTierTest, StoreWidthsBoundedBySlop)
{
    for (kernels::Tier tier : kernels::availableTiers())
        EXPECT_LE(kernels::storeWidth(tier), mem::kWildCopySlop);
    EXPECT_EQ(kernels::storeWidth(kernels::Tier::scalar), 8u);
}

TEST(KernelWildCopyTest, MatchesScalarOnDisjointBuffers)
{
    TierGuard guard;
    Rng rng(1234);
    for (std::size_t n :
         {std::size_t{1}, std::size_t{7}, std::size_t{8},
          std::size_t{9}, std::size_t{15}, std::size_t{16},
          std::size_t{31}, std::size_t{33}, std::size_t{100},
          std::size_t{257}, std::size_t{4096}}) {
        Bytes src(n + mem::kWildCopySlop);
        for (auto &b : src)
            b = static_cast<u8>(rng.next());
        ASSERT_TRUE(
            kernels::setActiveTier(kernels::Tier::scalar).ok());
        Bytes expect(n + mem::kWildCopySlop, 0);
        mem::wildCopy(expect.data(), src.data(), n);
        for (kernels::Tier tier : kernels::availableTiers()) {
            ASSERT_TRUE(kernels::setActiveTier(tier).ok());
            Bytes got(n + mem::kWildCopySlop, 0);
            mem::wildCopy(got.data(), src.data(), n);
            // Only the nominal range is contract; slop may differ.
            for (std::size_t i = 0; i < n; ++i)
                ASSERT_EQ(got[i], expect[i])
                    << kernels::tierName(tier) << " n=" << n
                    << " i=" << i;
        }
    }
}

TEST(KernelWildCopyTest, MatchesScalarOnOverlappingReplay)
{
    // LZ match replay: dst = src + offset inside one buffer. Every
    // offset >= 8 must reproduce the scalar byte-by-byte replay
    // pattern exactly, at every tier — this is the contract that lets
    // snappy/zstdlite call one tier-agnostic wildCopy.
    TierGuard guard;
    Rng rng(99);
    for (std::size_t offset = 8; offset <= 70; ++offset) {
        const std::size_t n = 333;
        Bytes seed(offset);
        for (auto &b : seed)
            b = static_cast<u8>(rng.next());
        auto replay = [&](kernels::Tier tier, Bytes &out) {
            ASSERT_TRUE(kernels::setActiveTier(tier).ok());
            out.assign(offset + n + mem::kWildCopySlop, 0);
            std::copy(seed.begin(), seed.end(), out.begin());
            mem::wildCopy(out.data() + offset, out.data(), n);
        };
        Bytes expect;
        replay(kernels::Tier::scalar, expect);
        for (kernels::Tier tier : kernels::availableTiers()) {
            Bytes got;
            replay(tier, got);
            for (std::size_t i = 0; i < offset + n; ++i)
                ASSERT_EQ(got[i], expect[i])
                    << kernels::tierName(tier)
                    << " offset=" << offset << " i=" << i;
        }
    }
}

TEST(KernelCrc32cTest, KnownVectorAndCrossTierIdentity)
{
    TierGuard guard;
    // RFC 3720 check value: crc32c("123456789") == 0xe3069283.
    const u8 check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
    Rng rng(7);
    Bytes blob(3001);
    for (auto &b : blob)
        b = static_cast<u8>(rng.next());
    for (kernels::Tier tier : kernels::availableTiers()) {
        ASSERT_TRUE(kernels::setActiveTier(tier).ok());
        EXPECT_EQ(crc32c(ByteSpan(check, sizeof(check))), 0xe3069283u)
            << kernels::tierName(tier);
        EXPECT_EQ(crc32c(ByteSpan(blob.data(), 0)), 0u)
            << kernels::tierName(tier);
    }
    ASSERT_TRUE(kernels::setActiveTier(kernels::Tier::scalar).ok());
    // Every prefix length exercises the 8/4/1-byte tail split of the
    // hardware path; incremental updates must chain identically too.
    for (std::size_t len : {std::size_t{1}, std::size_t{3},
                            std::size_t{8}, std::size_t{13},
                            std::size_t{64}, std::size_t{3001}}) {
        ByteSpan span(blob.data(), len);
        u32 expect = crc32c(span);
        u32 expect_split = crc32cUpdate(
            crc32c(ByteSpan(blob.data(), len / 2)),
            ByteSpan(blob.data() + len / 2, len - len / 2));
        for (kernels::Tier tier : kernels::availableTiers()) {
            ASSERT_TRUE(kernels::setActiveTier(tier).ok());
            EXPECT_EQ(crc32c(span), expect)
                << kernels::tierName(tier) << " len=" << len;
            EXPECT_EQ(crc32cUpdate(
                          crc32c(ByteSpan(blob.data(), len / 2)),
                          ByteSpan(blob.data() + len / 2,
                                   len - len / 2)),
                      expect_split)
                << kernels::tierName(tier) << " len=" << len;
        }
        ASSERT_TRUE(
            kernels::setActiveTier(kernels::Tier::scalar).ok());
    }
}

TEST(KernelStatsTest, TierAttributionFollowsActiveTier)
{
    TierGuard guard;
    Bytes src(64 + mem::kWildCopySlop, 0x5a);
    Bytes dst(64 + mem::kWildCopySlop, 0);
    for (kernels::Tier tier : kernels::availableTiers()) {
        ASSERT_TRUE(kernels::setActiveTier(tier).ok());
        const unsigned idx = kernels::activeTierIndex();
        EXPECT_EQ(idx, static_cast<unsigned>(tier));
        mem::kernelStats().reset();
        mem::wildCopy(dst.data(), src.data(), 64);
        crc32c(ByteSpan(src.data(), 32));
        EXPECT_EQ(mem::kernelStats().tierWildCopyBytes[idx], 64u)
            << kernels::tierName(tier);
        EXPECT_EQ(mem::kernelStats().tierCrc32cBytes[idx], 32u)
            << kernels::tierName(tier);
        // The tier-invariant total sees the same work.
        EXPECT_EQ(mem::kernelStats().wildCopyBytes, 64u);
    }
    mem::kernelStats().reset();
}

} // namespace
} // namespace cdpu

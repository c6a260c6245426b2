/**
 * @file
 * What the fast-path-equals-reference batteries share: the SIMD tier
 * sweep, the compress-side payload grid, and the digest that pins
 * outputs. decode_battery.h builds
 * the fused-decoder battery on it; fastpath_fuzz_test (the specialized
 * LZ77 parse and the codecs' untraced compress) and transform_test
 * (BWT and MTF) run their compress-side checks over forEachPayload.
 */

#ifndef CDPU_TESTS_BATTERY_H_
#define CDPU_TESTS_BATTERY_H_

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/kernels.h"
#include "common/rng.h"
#include "corpus/generators.h"

namespace cdpu::battery
{

/** FNV-1a over the little-endian bytes of each value fed in: the
 *  digest the pinned-output tests compare. */
struct Fnv1a
{
    u64 state = 0xcbf29ce484222325ull;

    void
    add(u64 value)
    {
        for (int i = 0; i < 8; ++i) {
            state ^= (value >> (8 * i)) & 0xff;
            state *= 0x100000001b3ull;
        }
    }
};

/** The host's tiers, for checking one frame at each in turn. Restores
 *  the active tier on destruction. */
class TierSweep
{
  public:
    TierSweep() : saved_(kernels::activeTier()) {}
    ~TierSweep() { (void)kernels::setActiveTier(saved_); }

    /** Calls @p body(tier) with each available tier active. */
    template <typename Body>
    void
    run(Body body) const
    {
        for (kernels::Tier tier : tiers_) {
            EXPECT_TRUE(kernels::setActiveTier(tier).ok());
            body(tier);
        }
    }

  private:
    kernels::Tier saved_;
    std::vector<kernels::Tier> tiers_ = kernels::availableTiers();
};

/** Compress-side payload sizes: both sides of the 4- and 8-byte hash
 *  loads, a page, both sides of the 64 KiB snappy fragment, BWT block
 *  and flatelite block, and a multi-block megabyte. */
inline constexpr std::size_t kCompressSizes[] = {
    0, 1, 4, 5, 8, 9, 100, 4096, 64 * kKiB - 1, 64 * kKiB + 1, kMiB};

/** One battery input: a corpus payload and the class it came from. */
struct Payload
{
    Bytes bytes;
    std::string what; ///< Class and size, for failure messages.
    std::size_t classIndex = 0;

    /** Whether setting @p k (of a caller's list) is checked on this
     *  payload: every setting on payloads below 64 KiB; on the larger
     *  ones of class c only settings k with k % classes == c, so each
     *  setting still sees every large size, in one class. */
    bool
    checks(std::size_t k) const
    {
        return bytes.size() < 64 * kKiB - 1 ||
               k % corpus::allDataClasses().size() == classIndex;
    }
};

/** Calls @p body(payload) for every corpus class at every
 *  kCompressSizes entry, from a fixed seed. */
template <typename Body>
void
forEachPayload(Body body)
{
    Rng rng(4099);
    const auto classes = corpus::allDataClasses();
    for (std::size_t c = 0; c < classes.size(); ++c) {
        for (std::size_t size : kCompressSizes) {
            body(Payload{corpus::generate(classes[c], size, rng),
                         corpus::dataClassName(classes[c]) + " at " +
                             std::to_string(size) + " B",
                         c});
        }
    }
}

} // namespace cdpu::battery

#endif // CDPU_TESTS_BATTERY_H_

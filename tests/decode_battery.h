/**
 * @file
 * The fused-decoder battery, shared by fused_decode_test (the zstdlite
 * and flatelite decode loops against the test-local materializing
 * decoders) and gipfeli_test (the fused decoder against the test-local
 * per-bit reference).
 *
 * A fused decoder must agree with its reference in bytes and in
 * FailureClass on clean frames and on the harden injector's
 * truncated and mutated frames, at every SIMD tier the host runs
 * (battery.h's TierSweep).
 */

#ifndef CDPU_TESTS_DECODE_BATTERY_H_
#define CDPU_TESTS_DECODE_BATTERY_H_

#include <gtest/gtest.h>

#include <functional>

#include "battery.h"
#include "common/error.h"
#include "harden/injector.h"

namespace cdpu::battery
{

using DecodeFn = std::function<Result<Bytes>(ByteSpan)>;

/** Payload sizes every corpus class is checked at. */
inline constexpr std::size_t kPayloadSizes[] = {0,     1,          100,
                                                4096,  80 * kKiB,  kMiB};

/** Injector mutations checked per codec, at each tier. */
inline constexpr u64 kMutations = 10000;

using CompressFn = std::function<Bytes(ByteSpan)>;

/** Clean frames: every class at every size, compressed by each of
 *  @p compressors (one per level and window setting), must decode back
 *  to the payload on the reference and, at every tier, on the fused
 *  path. The 1 MiB payloads take one compressor per class, in turn,
 *  so each setting still sees multi-block frames. */
inline void
expectCleanFramesAgree(const std::vector<CompressFn> &compressors,
                       const DecodeFn &fused, const DecodeFn &reference)
{
    const TierSweep sweep;
    Rng rng(4099);
    const auto classes = corpus::allDataClasses();
    for (std::size_t c = 0; c < classes.size(); ++c) {
        for (std::size_t size : kPayloadSizes) {
          const Bytes payload = corpus::generate(classes[c], size, rng);
          for (std::size_t k = 0; k < compressors.size(); ++k) {
            if (size == kMiB && k != c % compressors.size())
                continue;
            const Bytes frame = compressors[k](payload);
            const std::string what = corpus::dataClassName(classes[c]) +
                                     " at " + std::to_string(size) +
                                     " B, setting " + std::to_string(k);
            Result<Bytes> want = reference(frame);
            ASSERT_TRUE(want.ok()) << what << ": "
                                   << want.status().toString();
            EXPECT_TRUE(want.value() == payload) << what;
            sweep.run([&](kernels::Tier tier) {
                Result<Bytes> got = fused(frame);
                ASSERT_TRUE(got.ok()) << what << " at "
                                      << kernels::tierName(tier) << ": "
                                      << got.status().toString();
                EXPECT_TRUE(got.value() == payload)
                    << what << " at " << kernels::tierName(tier);
            });
          }
        }
    }
}

/** kMutations injector mutations of frames drawn from @p pool (each
 *  class cycled over the pool, splice donors drawn from it too). The
 *  fused path must match the reference's FailureClass, and its bytes
 *  when both succeed, at every tier. Stops after ten disagreements. */
inline void
expectMutationsAgree(codec::CodecId id, const std::vector<Bytes> &pool,
                     const DecodeFn &fused, const DecodeFn &reference)
{
    const TierSweep sweep;
    const auto &classes = harden::allMutationClasses();
    int failures = 0;
    u64 survivors = 0;
    u64 rejects = 0;
    for (u64 seed = 0; seed < kMutations && failures < 10; ++seed) {
        const harden::MutationSpec spec{id, classes[seed % classes.size()],
                                        seed};
        const Bytes &frame = pool[(seed / classes.size()) % pool.size()];
        const Bytes &donor = pool[(seed * 7 + 3) % pool.size()];
        const Bytes mutated = harden::CorruptionInjector::mutate(
            frame, spec, harden::FrameKind::buffer, donor);
        const Result<Bytes> want = reference(mutated);
        ++(want.ok() ? survivors : rejects);
        sweep.run([&](kernels::Tier tier) {
            const Result<Bytes> got = fused(mutated);
            const bool same_class = failureClass(got.status()) ==
                                    failureClass(want.status());
            if (same_class && (!got.ok() || got.value() == want.value()))
                return;
            ++failures;
            ADD_FAILURE() << harden::describeSpec(spec) << " at "
                          << kernels::tierName(tier) << ": fused "
                          << got.status().toString() << ", reference "
                          << want.status().toString()
                          << (same_class ? " (bytes differ)" : "");
        });
    }
    // Both verdicts must occur, or the battery compares nothing.
    EXPECT_GT(survivors, 0u);
    EXPECT_GT(rejects, kMutations / 2);
}

} // namespace cdpu::battery

#endif // CDPU_TESTS_DECODE_BATTERY_H_

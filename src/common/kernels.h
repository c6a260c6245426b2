/**
 * @file
 * Runtime-selected SIMD kernel tier.
 *
 * A tier chooses exactly two things: the store width mem::wildCopy
 * rounds a copy up to (8, 16 or 32 bytes), and the CRC-32C loop (the
 * SSE4.2 crc32 instruction, or a byte table). Every other path runs
 * the same code at every tier. One Tier is selected at startup from
 * CPUID feature detection, overridable with the CDPU_KERNEL_TIER
 * environment variable or programmatically via setActiveTier (tests,
 * the --kernel-tier bench flag).
 *
 * Tier invariance is a hard contract: both tier-selected kernels
 * compute the same function at every tier — byte-identical copies
 * inside the nominal range, bit-identical CRCs — so compressed output,
 * decoded output, and every codec-level work counter are independent
 * of the tier that produced them. Only the per-tier attribution
 * counters (mem::KernelStats tier arrays, exported as
 * kernel.<name>.<tier>) reveal which tier did the moving. The decode
 * batteries pin this: they replay the same streams under every
 * available tier and compare bytes.
 *
 * The selection lives in plain globals, constant-initialized to the
 * scalar tier (safe before any dynamic initializer runs) and upgraded
 * once at static-init time; switching tiers afterwards (tests, benches)
 * is not thread-safe and must happen while no codec calls are in
 * flight.
 */

#ifndef CDPU_COMMON_KERNELS_H_
#define CDPU_COMMON_KERNELS_H_

#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace cdpu::kernels
{

/** Kernel implementation tiers, ordered by vector width. */
enum class Tier : unsigned
{
    scalar = 0, ///< 8-byte stores, byte-table CRC32C.
    sse42 = 1,  ///< 16-byte stores + hardware CRC32C (x86 SSE4.2).
    avx2 = 2,   ///< 32-byte stores + hardware CRC32C (x86 AVX2).
    neon = 3,   ///< 16-byte stores (AArch64; guarded at compile time).
};

inline constexpr unsigned kNumTiers = 4;

/** Stable lowercase tier name ("scalar", "sse42", "avx2", "neon"). */
const char *tierName(Tier tier);

/** Parses a tierName() string; invalidArgument on anything else. */
Result<Tier> tierFromName(const std::string &name);

/** Widest store mem::wildCopy may round a length up to at @p tier
 *  (bytes). kWildCopySlop in mem.h must cover the widest round-up. */
unsigned storeWidth(Tier tier);

/** Best tier the host CPU supports (compile target + CPUID). */
Tier detectedTier();

/** Every tier runnable on this host: scalar first, then each
 *  supported SIMD tier in ascending width order. */
std::vector<Tier> availableTiers();

/** The tier currently selected. */
Tier activeTier();

/** activeTier() as an array index into the KernelStats tier arrays.
 *  Kept branch-free and inline for the hot-path attribution adds. */
unsigned activeTierIndex();

/**
 * Selects @p tier's store width and CRC loop. invalidArgument if the
 * host cannot run it. NOT thread-safe: call at startup or between
 * single-threaded test phases, never with codec calls in flight.
 */
Status setActiveTier(Tier tier);

/** setActiveTier(tierFromName(name)) — the CLI/env entry point. */
Status applyTierOverride(const std::string &name);

/** One-line host feature summary for bench telemetry honesty, e.g.
 *  "x86-64 sse4.2=1 avx2=1 detected=avx2". */
std::string cpuFeatureSummary();

namespace detail
{
extern unsigned activeTierIdx;
/** storeWidth(activeTier()), mirrored here so mem::wildCopy can inline
 *  its chunk loop without an indirect call (the per-copy call overhead
 *  would otherwise swamp the vector win on the short copies that
 *  dominate LZ decode). 16/32-byte chunks need no special ISA — plain
 *  std::memcpy blocks compile to unaligned vector moves. */
extern unsigned activeChunkWidth;
/** The active tier's CRC-32C update over the RAW (pre-inverted)
 *  reflected state; crc32cUpdate() owns the ~crc conditioning. */
extern u32 (*activeCrc32cUpdate)(u32 crc, const u8 *p, std::size_t n);
} // namespace detail

inline unsigned
activeTierIndex()
{
    return detail::activeTierIdx;
}

} // namespace cdpu::kernels

#endif // CDPU_COMMON_KERNELS_H_

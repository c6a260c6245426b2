/**
 * @file
 * Runtime-dispatched SIMD kernel tier behind the codec hot paths.
 *
 * The scalar kernels in common/mem.h are the portable ceiling; the next
 * constant factor is vector width. This layer selects one Tier at
 * startup from CPUID feature detection (overridable with the
 * CDPU_KERNEL_TIER environment variable, or programmatically via
 * setActiveTier for tests and the --kernel-tier bench flag) and routes
 * the width-sensitive kernels through a per-tier dispatch table so call
 * sites stay tier-agnostic.
 *
 * Tier invariance is a hard contract: every kernel computes the exact
 * same function at every tier — byte-identical copies inside the
 * nominal range, bit-identical hashes and CRCs — so compressed output,
 * decoded output, and every codec-level work counter are independent
 * of the tier that produced them. Only the per-tier attribution
 * counters (mem::KernelStats tier arrays, exported as
 * kernel.<name>.<tier>) reveal which tier did the moving. The fuzz
 * batteries pin this: they replay the same streams under every
 * available tier and compare bytes.
 *
 * Dispatch is one global pointer to a const ops table. It is
 * constant-initialized to the scalar table (safe before any dynamic
 * initializer runs) and upgraded once at static-init time; switching
 * tiers afterwards (tests, benches) is not thread-safe and must happen
 * while no codec calls are in flight.
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
    scalar = 0, ///< Portable word-wide kernels (8-byte chunks).
    sse42 = 1,  ///< 16-byte lanes + hardware CRC32C (x86 SSE4.2).
    avx2 = 2,   ///< 32-byte lanes, 8-wide hashing (x86 AVX2).
    neon = 3,   ///< 16-byte lanes (AArch64; guarded at compile time).
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

/** The tier the dispatch table currently routes to. */
Tier activeTier();

/** activeTier() as an array index into the KernelStats tier arrays.
 *  Kept branch-free and inline for the hot-path attribution adds. */
unsigned activeTierIndex();

/**
 * Repoints the dispatch table at @p tier. invalidArgument if the host
 * cannot run it. NOT thread-safe: call at startup or between
 * single-threaded test phases, never with codec calls in flight.
 */
Status setActiveTier(Tier tier);

/** setActiveTier(tierFromName(name)) — the CLI/env entry point. */
Status applyTierOverride(const std::string &name);

/** One-line host feature summary for bench telemetry honesty, e.g.
 *  "x86-64 sse4.2=1 avx2=1 detected=avx2". */
std::string cpuFeatureSummary();

/**
 * Per-tier kernel entry points. All pointers are always valid; a tier
 * that has no specialized implementation for a kernel aliases the next
 * lower tier's (ultimately the scalar) implementation.
 */
struct KernelOps
{
    /**
     * CRC-32C update over the RAW (pre-inverted) reflected state —
     * callers own the ~crc conditioning at both ends. Identical
     * function at every tier; SSE4.2 uses the crc32 instruction.
     */
    u32 (*crc32cUpdate)(u32 crc, const u8 *p, std::size_t n);

    /**
     * out[i] = (loadU32(p + i) * mul) >> shift for i in [0, count):
     * the multiplicative match-finder hash over consecutive positions.
     * May read up to 15 bytes past p + count + 3; callers guard.
     * @pre 1 <= shift <= 31.
     */
    void (*hashMul32Run)(const u8 *p, std::size_t count, u32 mul,
                         unsigned shift, u32 *out);

    /**
     * Same contract for the xor-shift hash: x = loadU32(p + i);
     * x ^= x >> 15; x *= mul; x ^= x >> 12; out[i] = x >> shift.
     */
    void (*hashXorShiftRun)(const u8 *p, std::size_t count, u32 mul,
                            unsigned shift, u32 *out);
};

namespace detail
{
extern const KernelOps *activeOps;
extern unsigned activeTierIdx;
/** storeWidth(activeTier()), mirrored here so mem::wildCopy can inline
 *  its chunk loop without an indirect call (the per-copy call overhead
 *  would otherwise swamp the vector win on the short copies that
 *  dominate LZ decode). 16/32-byte chunks need no special ISA — plain
 *  std::memcpy blocks compile to unaligned vector moves. */
extern unsigned activeChunkWidth;
} // namespace detail

/** The active tier's dispatch table. */
inline const KernelOps &
ops()
{
    return *detail::activeOps;
}

inline unsigned
activeTierIndex()
{
    return detail::activeTierIdx;
}

} // namespace cdpu::kernels

#endif // CDPU_COMMON_KERNELS_H_

/**
 * @file
 * Fast-memory primitives shared by the software codec hot paths.
 *
 * Every decoder/encoder kernel in this repo used to move bytes one at a
 * time; the levers that close the gap to production codecs (snappy,
 * zstd, lz4) are the same everywhere: unaligned word loads/stores,
 * "wild" copies that round up to 8-byte chunks into a slop margin, and
 * ctz-based match-length counting. They live here so the codec layers
 * (snappy, lz77, huffman, fse, zstdlite) share one audited
 * implementation.
 *
 * None of these primitives touch memory outside what their contracts
 * state; callers are responsible for providing the slop margins that
 * wildCopy requires. The hardware-model code (src/cdpu) deliberately
 * does NOT use this layer — it replays element streams at the
 * granularity the PUs process them (see DESIGN.md, "Software fast-path
 * kernels vs hardware-faithful modeling").
 */

#ifndef CDPU_COMMON_MEM_H_
#define CDPU_COMMON_MEM_H_

#include <bit>
#include <cassert>
#include <cstring>

#include "common/kernels.h"
#include "common/types.h"

namespace cdpu::mem
{

/** Unaligned little-endian 16-bit load. */
inline u16
loadU16(const u8 *p)
{
    u16 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Unaligned little-endian 32-bit load. */
inline u32
loadU32(const u8 *p)
{
    u32 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Unaligned little-endian 64-bit load. */
inline u64
loadU64(const u8 *p)
{
    u64 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

/** Unaligned 64-bit store. */
inline void
storeU64(u8 *p, u64 v)
{
    std::memcpy(p, &v, sizeof(v));
}

/**
 * Slop margin (bytes) a destination buffer must provide past the
 * nominal end for wildCopy targets. wildCopy rounds the copied length
 * up to a multiple of the active tier's store width
 * (kernels::storeWidth, at most 32 for AVX2), so a copy ending at the
 * nominal end may write up to 31 bytes beyond it — and the source must
 * be readable over the same rounded range. 32 covers every tier; the
 * margin is tier-independent so buffer reservations never depend on
 * which tier happens to be active.
 */
inline constexpr std::size_t kWildCopySlop = 32;

static_assert(kWildCopySlop >= 32,
              "slop must cover the widest kernel tier's store round-up");

/**
 * Per-thread fast-path accounting, exported into the observability
 * CounterRegistry by obs::exportKernelStats(). Raw u64 fields (not
 * obs::Counter handles) so common/ stays free of an obs dependency and
 * hot loops pay exactly one add per event.
 */
struct KernelStats
{
    u64 wildCopyBytes = 0;          ///< Bytes moved through wildCopy().
    u64 snappyFastLiterals = 0;     ///< Word-store literal fast-path hits.
    u64 snappyCarefulLiterals = 0;  ///< Bounds-exact literal copies.
    u64 snappyFastCopies = 0;       ///< Wild-copy match replays.
    u64 snappyOverlapCopies = 0;    ///< Overlap-safe (offset < 8) replays.
    u64 bitioFastRefills = 0;       ///< Word-load bit refills (forward).
    u64 bitioSlowRefills = 0;       ///< Byte-step refills (tiny streams).
    u64 bitioBackwardFastRefills = 0; ///< Word-load refills (backward).
    u64 bitioBackwardSlowRefills = 0; ///< Byte-step refills (backward).
    u64 matchWordCompares = 0;      ///< 8-byte probes in match counting.

    /** Per-tier attribution, indexed by kernels::activeTierIndex().
     *  The totals above stay tier-invariant (they count work the codec
     *  asked for); these arrays record which tier executed it, proving
     *  in exported counters that a vector path actually ran. Hashed
     *  positions and Huffman symbols are always counted at index 0:
     *  the same scalar code does that work at every tier. */
    u64 tierWildCopyBytes[kernels::kNumTiers] = {};
    u64 tierCrc32cBytes[kernels::kNumTiers] = {};
    u64 tierHashPositions[kernels::kNumTiers] = {};
    u64 tierHuffSymbols[kernels::kNumTiers] = {};

    void reset() { *this = KernelStats{}; }

    /** Accumulates @p other into this instance, field-wise. The serve
     *  workers fold their thread's stats into a shared total this way
     *  when they finish (under the caller's lock). */
    void
    merge(const KernelStats &other)
    {
        wildCopyBytes += other.wildCopyBytes;
        snappyFastLiterals += other.snappyFastLiterals;
        snappyCarefulLiterals += other.snappyCarefulLiterals;
        snappyFastCopies += other.snappyFastCopies;
        snappyOverlapCopies += other.snappyOverlapCopies;
        bitioFastRefills += other.bitioFastRefills;
        bitioSlowRefills += other.bitioSlowRefills;
        bitioBackwardFastRefills += other.bitioBackwardFastRefills;
        bitioBackwardSlowRefills += other.bitioBackwardSlowRefills;
        matchWordCompares += other.matchWordCompares;
        for (unsigned t = 0; t < kernels::kNumTiers; ++t) {
            tierWildCopyBytes[t] += other.tierWildCopyBytes[t];
            tierCrc32cBytes[t] += other.tierCrc32cBytes[t];
            tierHashPositions[t] += other.tierHashPositions[t];
            tierHuffSymbols[t] += other.tierHuffSymbols[t];
        }
    }

    /** This instance minus @p before, field-wise (for windowing a
     *  thread's stats around a batch of work). */
    KernelStats
    diff(const KernelStats &before) const
    {
        KernelStats out;
        out.wildCopyBytes = wildCopyBytes - before.wildCopyBytes;
        out.snappyFastLiterals =
            snappyFastLiterals - before.snappyFastLiterals;
        out.snappyCarefulLiterals =
            snappyCarefulLiterals - before.snappyCarefulLiterals;
        out.snappyFastCopies =
            snappyFastCopies - before.snappyFastCopies;
        out.snappyOverlapCopies =
            snappyOverlapCopies - before.snappyOverlapCopies;
        out.bitioFastRefills =
            bitioFastRefills - before.bitioFastRefills;
        out.bitioSlowRefills =
            bitioSlowRefills - before.bitioSlowRefills;
        out.bitioBackwardFastRefills =
            bitioBackwardFastRefills - before.bitioBackwardFastRefills;
        out.bitioBackwardSlowRefills =
            bitioBackwardSlowRefills - before.bitioBackwardSlowRefills;
        out.matchWordCompares =
            matchWordCompares - before.matchWordCompares;
        for (unsigned t = 0; t < kernels::kNumTiers; ++t) {
            out.tierWildCopyBytes[t] =
                tierWildCopyBytes[t] - before.tierWildCopyBytes[t];
            out.tierCrc32cBytes[t] =
                tierCrc32cBytes[t] - before.tierCrc32cBytes[t];
            out.tierHashPositions[t] =
                tierHashPositions[t] - before.tierHashPositions[t];
            out.tierHuffSymbols[t] =
                tierHuffSymbols[t] - before.tierHuffSymbols[t];
        }
        return out;
    }
};

/**
 * The calling thread's stats instance. Thread-local so concurrent
 * codec calls never race on the accounting: each thread accumulates
 * privately and an aggregator (the serve engine, a bench main) merges
 * the per-thread copies explicitly at a quiescent point. Single-thread
 * callers see the old process-wide behavior unchanged.
 */
inline KernelStats &
kernelStats()
{
    thread_local KernelStats stats;
    return stats;
}

/**
 * Copies @p n bytes from @p src to @p dst in chunks of up to the
 * active kernel tier's store width.
 *
 * May read up to kWildCopySlop - 1 bytes past src + n and write up to
 * kWildCopySlop - 1 bytes past dst + n. Regions must not overlap
 * unless dst >= src + 8; the tiers clamp their chunk width to the
 * forward distance, so an LZ match replay produces the same bytes in
 * [dst, dst + n) at every tier (only slop bytes may differ, and every
 * call site trims slop).
 */
inline void
wildCopy(u8 *dst, const u8 *src, std::size_t n)
{
    KernelStats &stats = kernelStats();
    stats.wildCopyBytes += n;
    stats.tierWildCopyBytes[kernels::activeTierIndex()] += n;
    // Inline chunk loops keyed on the active tier's store width rather
    // than an indirect call: most copies are a handful of bytes, where
    // call overhead would eat the vector win.
    // The fixed-size memcpy blocks compile to unaligned vector moves at
    // the baseline ISA. Chunk width is clamped to the forward overlap
    // distance (src > dst wraps to a huge value), which makes every
    // width W <= dist produce the scalar byte-by-byte LZ replay
    // semantics inside [dst, dst + n).
    const std::size_t dist = static_cast<std::size_t>(
        reinterpret_cast<std::uintptr_t>(dst) -
        reinterpret_cast<std::uintptr_t>(src));
    const unsigned width = kernels::detail::activeChunkWidth;
    if (width >= 32 && dist >= 32) {
        for (std::size_t i = 0; i < n; i += 32)
            std::memcpy(dst + i, src + i, 32);
        return;
    }
    if (width >= 16 && dist >= 16) {
        for (std::size_t i = 0; i < n; i += 16)
            std::memcpy(dst + i, src + i, 16);
        return;
    }
    for (std::size_t i = 0; i < n; i += 8)
        storeU64(dst + i, loadU64(src + i));
}

/**
 * wildCopy with the slop contract spelled out: @p capacity_end is one
 * past the destination buffer's last writable byte. Debug builds
 * assert the buffer really provides kWildCopySlop bytes of slack past
 * dst + n — the contract the AVX2 tier's 32-byte stores depend on.
 */
inline void
wildCopy(u8 *dst, const u8 *src, std::size_t n, const u8 *capacity_end)
{
    assert(dst + n + kWildCopySlop <= capacity_end &&
           "wildCopy destination lacks the kWildCopySlop slack");
    (void)capacity_end;
    wildCopy(dst, src, n);
}

/**
 * Overlap-safe incremental copy: replays @p n bytes from
 * dst - offset into dst for small offsets (1 <= offset < 8), where a
 * word-wide copy would read bytes not yet written. Writes exactly
 * [dst, dst + n); no slop needed.
 */
inline void
incrementalCopy(u8 *dst, std::size_t offset, std::size_t n)
{
    const u8 *src = dst - offset;
    if (offset == 1) {
        std::memset(dst, src[0], n);
        return;
    }
    for (std::size_t i = 0; i < n; ++i)
        dst[i] = src[i];
}

/**
 * Number of leading bytes at which @p a and @p b agree, capped at
 * @p limit. Reads only [a, a + limit) and [b, b + limit). Compares 8
 * bytes per probe and resolves the first mismatch with a trailing-zero
 * count on little-endian hosts; byte-steps the tail (and everything,
 * on big-endian hosts). Adds the 8-byte probes made to @p words.
 */
inline std::size_t
countMatchingBytes(const u8 *a, const u8 *b, std::size_t limit, u64 &words)
{
    std::size_t n = 0;
    if constexpr (std::endian::native == std::endian::little) {
        while (n + 8 <= limit) {
            ++words;
            u64 diff = loadU64(a + n) ^ loadU64(b + n);
            if (diff != 0)
                return n + (static_cast<unsigned>(std::countr_zero(diff))
                            >> 3);
            n += 8;
        }
    }
    while (n < limit && a[n] == b[n])
        ++n;
    return n;
}

/** countMatchingBytes, with the probes added to the calling thread's
 *  KernelStats::matchWordCompares. */
inline std::size_t
countMatchingBytes(const u8 *a, const u8 *b, std::size_t limit)
{
    u64 words = 0;
    const std::size_t n = countMatchingBytes(a, b, limit, words);
    kernelStats().matchWordCompares += words;
    return n;
}

} // namespace cdpu::mem

#endif // CDPU_COMMON_MEM_H_

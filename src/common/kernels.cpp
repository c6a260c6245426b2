/**
 * @file
 * Tier selection and the CRC-32C loops for common/kernels.h.
 *
 * The SSE4.2 loop carries a per-function target attribute, so this
 * translation unit builds with the project's baseline flags and the
 * crc32 instruction only ever *executes* after CPUID says the host has
 * it. It implements exactly the byte-table recurrence of the scalar
 * loop (the same reflected CRC-32C polynomial), which is what makes
 * the cross-tier identity batteries meaningful rather than merely
 * hopeful.
 */

#include "common/kernels.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define CDPU_KERNELS_X86 1
#endif

#if defined(__aarch64__)
#define CDPU_KERNELS_NEON 1
#endif

namespace cdpu::kernels
{

namespace
{

// Local unaligned helpers: this TU stays independent of mem.h (which
// includes kernels.h) so the header layering has no cycle.
inline u32
load32(const u8 *p)
{
    u32 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

inline u64
load64(const u8 *p)
{
    u64 v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

constexpr u32 kCrc32cPoly = 0x82f63b78u;

struct Crc32cTable
{
    u32 byteCrc[256];
};

constexpr Crc32cTable
makeCrc32cTable()
{
    Crc32cTable table{};
    for (u32 i = 0; i < 256; ++i) {
        u32 crc = i;
        for (int bit = 0; bit < 8; ++bit)
            crc = (crc >> 1) ^ ((crc & 1) ? kCrc32cPoly : 0);
        table.byteCrc[i] = crc;
    }
    return table;
}

constexpr Crc32cTable kCrc32cTable = makeCrc32cTable();

u32
crc32cUpdateScalar(u32 crc, const u8 *p, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        crc = (crc >> 8) ^ kCrc32cTable.byteCrc[(crc ^ p[i]) & 0xff];
    return crc;
}

#if CDPU_KERNELS_X86

__attribute__((target("sse4.2"))) u32
crc32cUpdateSse42(u32 crc, const u8 *p, std::size_t n)
{
    u64 wide = crc;
    while (n >= 8) {
        wide = _mm_crc32_u64(wide, load64(p));
        p += 8;
        n -= 8;
    }
    u32 narrow = static_cast<u32>(wide);
    if (n >= 4) {
        narrow = _mm_crc32_u32(narrow, load32(p));
        p += 4;
        n -= 4;
    }
    while (n > 0) {
        narrow = _mm_crc32_u8(narrow, *p);
        ++p;
        --n;
    }
    return narrow;
}

#endif // CDPU_KERNELS_X86

/** Whether the host (and this build's architecture) can run @p tier. */
bool
runnable(Tier tier)
{
#if CDPU_KERNELS_X86
    if (tier == Tier::sse42)
        return __builtin_cpu_supports("sse4.2");
    if (tier == Tier::avx2)
        return __builtin_cpu_supports("avx2");
#elif CDPU_KERNELS_NEON
    if (tier == Tier::neon)
        return true;
#endif
    return tier == Tier::scalar;
}

} // namespace

namespace detail
{
// Constant-initialized to scalar: any dynamic initializer in another
// TU that runs codec work before our startup initializer below still
// runs safely.
unsigned activeTierIdx = 0;
unsigned activeChunkWidth = 8;
u32 (*activeCrc32cUpdate)(u32, const u8 *, std::size_t) =
    crc32cUpdateScalar;
} // namespace detail

const char *
tierName(Tier tier)
{
    switch (tier) {
      case Tier::scalar: return "scalar";
      case Tier::sse42: return "sse42";
      case Tier::avx2: return "avx2";
      case Tier::neon: return "neon";
    }
    return "unknown";
}

Result<Tier>
tierFromName(const std::string &name)
{
    for (Tier tier : {Tier::scalar, Tier::sse42, Tier::avx2,
                      Tier::neon}) {
        if (name == tierName(tier))
            return tier;
    }
    return Status::invalid("unknown kernel tier '" + name +
                           "' (expected scalar, sse42, avx2, or neon)");
}

unsigned
storeWidth(Tier tier)
{
    switch (tier) {
      case Tier::scalar: return 8;
      case Tier::sse42: return 16;
      case Tier::avx2: return 32;
      case Tier::neon: return 16;
    }
    return 8;
}

Tier
detectedTier()
{
#if CDPU_KERNELS_X86
    if (__builtin_cpu_supports("avx2"))
        return Tier::avx2;
    if (__builtin_cpu_supports("sse4.2"))
        return Tier::sse42;
#elif CDPU_KERNELS_NEON
    return Tier::neon;
#endif
    return Tier::scalar;
}

std::vector<Tier>
availableTiers()
{
    std::vector<Tier> tiers = {Tier::scalar};
    for (Tier tier : {Tier::sse42, Tier::avx2, Tier::neon}) {
        if (runnable(tier))
            tiers.push_back(tier);
    }
    return tiers;
}

Tier
activeTier()
{
    return static_cast<Tier>(detail::activeTierIdx);
}

Status
setActiveTier(Tier tier)
{
    if (!runnable(tier)) {
        return Status::invalid(
            std::string("kernel tier '") + tierName(tier) +
            "' is not available on this host (detected: " +
            tierName(detectedTier()) + ")");
    }
    detail::activeTierIdx = static_cast<unsigned>(tier);
    detail::activeChunkWidth = storeWidth(tier);
    detail::activeCrc32cUpdate = crc32cUpdateScalar;
#if CDPU_KERNELS_X86
    if (tier == Tier::sse42 || tier == Tier::avx2)
        detail::activeCrc32cUpdate = crc32cUpdateSse42;
#endif
    return Status::okStatus();
}

Status
applyTierOverride(const std::string &name)
{
    Result<Tier> parsed = tierFromName(name);
    if (!parsed.ok())
        return parsed.status();
    return setActiveTier(parsed.value());
}

std::string
cpuFeatureSummary()
{
    std::string summary;
#if CDPU_KERNELS_X86
    summary += "x86-64";
    summary += " sse4.2=";
    summary += __builtin_cpu_supports("sse4.2") ? "1" : "0";
    summary += " avx2=";
    summary += __builtin_cpu_supports("avx2") ? "1" : "0";
#elif CDPU_KERNELS_NEON
    summary += "aarch64 neon=1";
#else
    summary += "generic";
#endif
    summary += " detected=";
    summary += tierName(detectedTier());
    return summary;
}

namespace
{

/** Startup selection: best detected tier, unless CDPU_KERNEL_TIER
 *  names an available one. An unusable override is reported once on
 *  stderr and ignored — a forced-scalar CI leg must not turn into a
 *  silent native run, and vice versa a typo must not crash tools. */
[[maybe_unused]] const bool kStartupTierSelected = [] {
    Tier tier = detectedTier();
    const char *env = std::getenv("CDPU_KERNEL_TIER");
    if (env != nullptr && env[0] != '\0') {
        Result<Tier> parsed = tierFromName(env);
        if (parsed.ok() && runnable(parsed.value())) {
            tier = parsed.value();
        } else {
            std::fprintf(stderr,
                         "CDPU_KERNEL_TIER=%s ignored: %s\n", env,
                         parsed.ok() ? "tier not available on this host"
                                     : parsed.status().message().c_str());
        }
    }
    (void)setActiveTier(tier);
    return true;
}();

} // namespace

} // namespace cdpu::kernels

/**
 * @file
 * Tier implementations and runtime dispatch for common/kernels.h.
 *
 * Every SIMD function here carries a per-function target attribute, so
 * this translation unit builds with the project's baseline flags and
 * the vector paths are only ever *executed* after CPUID says the host
 * has them. The scalar implementations are the reference semantics;
 * each vector variant is a literal restatement of the same function at
 * a wider lane count (exact 32-bit multiplies, the same reflected
 * CRC-32C polynomial, the same forward chunked-copy order), which is
 * what makes the cross-tier byte-identity batteries meaningful rather
 * than merely hopeful.
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

// ---------------------------------------------------------------------------
// Scalar tier: the reference semantics (stats attribution lives at
// the dispatch sites).
// ---------------------------------------------------------------------------

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

void
hashMul32RunScalar(const u8 *p, std::size_t count, u32 mul,
                   unsigned shift, u32 *out)
{
    for (std::size_t i = 0; i < count; ++i)
        out[i] = (load32(p + i) * mul) >> shift;
}

void
hashXorShiftRunScalar(const u8 *p, std::size_t count, u32 mul,
                      unsigned shift, u32 *out)
{
    for (std::size_t i = 0; i < count; ++i) {
        u32 x = load32(p + i);
        x ^= x >> 15;
        x *= mul;
        x ^= x >> 12;
        out[i] = x >> shift;
    }
}

constexpr KernelOps kScalarOps = {
    crc32cUpdateScalar,
    hashMul32RunScalar,
    hashXorShiftRunScalar,
};

#if CDPU_KERNELS_X86

// ---------------------------------------------------------------------------
// SSE4.2 tier: hardware CRC32C, 4-wide hashing.
// ---------------------------------------------------------------------------

/** Shuffle mask turning 16 input bytes into four overlapping 4-byte
 *  windows at consecutive positions: lanes (p+0..3, p+1..4, p+2..5,
 *  p+3..6). The same mask serves both 128-bit lanes of the AVX2
 *  variant, whose second load starts 4 positions later. */
#define CDPU_HASH_WINDOW_BYTES                                               \
    0, 1, 2, 3, 1, 2, 3, 4, 2, 3, 4, 5, 3, 4, 5, 6

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

__attribute__((target("sse4.2"))) void
hashMul32RunSse42(const u8 *p, std::size_t count, u32 mul,
                  unsigned shift, u32 *out)
{
    const __m128i window = _mm_setr_epi8(CDPU_HASH_WINDOW_BYTES);
    const __m128i factor = _mm_set1_epi32(static_cast<int>(mul));
    const __m128i shift_count =
        _mm_cvtsi32_si128(static_cast<int>(shift));
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + i));
        __m128i lanes = _mm_shuffle_epi8(bytes, window);
        __m128i hashed = _mm_srl_epi32(
            _mm_mullo_epi32(lanes, factor), shift_count);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i), hashed);
    }
    for (; i < count; ++i)
        out[i] = (load32(p + i) * mul) >> shift;
}

__attribute__((target("sse4.2"))) void
hashXorShiftRunSse42(const u8 *p, std::size_t count, u32 mul,
                     unsigned shift, u32 *out)
{
    const __m128i window = _mm_setr_epi8(CDPU_HASH_WINDOW_BYTES);
    const __m128i factor = _mm_set1_epi32(static_cast<int>(mul));
    const __m128i shift_count =
        _mm_cvtsi32_si128(static_cast<int>(shift));
    std::size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + i));
        __m128i x = _mm_shuffle_epi8(bytes, window);
        x = _mm_xor_si128(x, _mm_srli_epi32(x, 15));
        x = _mm_mullo_epi32(x, factor);
        x = _mm_xor_si128(x, _mm_srli_epi32(x, 12));
        _mm_storeu_si128(reinterpret_cast<__m128i *>(out + i),
                         _mm_srl_epi32(x, shift_count));
    }
    for (; i < count; ++i) {
        u32 x = load32(p + i);
        x ^= x >> 15;
        x *= mul;
        x ^= x >> 12;
        out[i] = x >> shift;
    }
}

const KernelOps kSse42Ops = {
    crc32cUpdateSse42,
    hashMul32RunSse42,
    hashXorShiftRunSse42,
};

// ---------------------------------------------------------------------------
// AVX2 tier: 8-wide hashing; CRC stays on the SSE4.2 crc32
// instruction (no wider scalar CRC unit exists).
// ---------------------------------------------------------------------------

__attribute__((target("avx2"))) void
hashMul32RunAvx2(const u8 *p, std::size_t count, u32 mul,
                 unsigned shift, u32 *out)
{
    const __m256i window = _mm256_setr_epi8(
        CDPU_HASH_WINDOW_BYTES, CDPU_HASH_WINDOW_BYTES);
    const __m256i factor = _mm256_set1_epi32(static_cast<int>(mul));
    const __m128i shift_count =
        _mm_cvtsi32_si128(static_cast<int>(shift));
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        // Two 16-byte loads 4 positions apart; the per-lane shuffle
        // then yields windows i..i+3 (low lane) and i+4..i+7 (high).
        __m128i lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + i));
        __m128i hi = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + i + 4));
        __m256i bytes = _mm256_set_m128i(hi, lo);
        __m256i lanes = _mm256_shuffle_epi8(bytes, window);
        __m256i hashed = _mm256_srl_epi32(
            _mm256_mullo_epi32(lanes, factor), shift_count);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            hashed);
    }
    for (; i < count; ++i)
        out[i] = (load32(p + i) * mul) >> shift;
}

__attribute__((target("avx2"))) void
hashXorShiftRunAvx2(const u8 *p, std::size_t count, u32 mul,
                    unsigned shift, u32 *out)
{
    const __m256i window = _mm256_setr_epi8(
        CDPU_HASH_WINDOW_BYTES, CDPU_HASH_WINDOW_BYTES);
    const __m256i factor = _mm256_set1_epi32(static_cast<int>(mul));
    const __m128i shift_count =
        _mm_cvtsi32_si128(static_cast<int>(shift));
    std::size_t i = 0;
    for (; i + 8 <= count; i += 8) {
        __m128i lo =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(p + i));
        __m128i hi = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(p + i + 4));
        __m256i x = _mm256_shuffle_epi8(_mm256_set_m128i(hi, lo),
                                        window);
        x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 15));
        x = _mm256_mullo_epi32(x, factor);
        x = _mm256_xor_si256(x, _mm256_srli_epi32(x, 12));
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(out + i),
                            _mm256_srl_epi32(x, shift_count));
    }
    for (; i < count; ++i) {
        u32 x = load32(p + i);
        x ^= x >> 15;
        x *= mul;
        x ^= x >> 12;
        out[i] = x >> shift;
    }
}

const KernelOps kAvx2Ops = {
    crc32cUpdateSse42,
    hashMul32RunAvx2,
    hashXorShiftRunAvx2,
};

#endif // CDPU_KERNELS_X86

#if CDPU_KERNELS_NEON

// ---------------------------------------------------------------------------
// NEON tier (AArch64 baseline): CRC and hashing stay scalar until a
// measured port justifies them; the tier's 16-byte store width is
// mem::wildCopy's business.
// ---------------------------------------------------------------------------

const KernelOps kNeonOps = {
    crc32cUpdateScalar,
    hashMul32RunScalar,
    hashXorShiftRunScalar,
};

#endif // CDPU_KERNELS_NEON

/** The ops table for @p tier, or nullptr when the host (or this
 *  build's architecture) cannot run it. */
const KernelOps *
opsForTier(Tier tier)
{
    switch (tier) {
      case Tier::scalar:
        return &kScalarOps;
      case Tier::sse42:
#if CDPU_KERNELS_X86
        if (__builtin_cpu_supports("sse4.2"))
            return &kSse42Ops;
#endif
        return nullptr;
      case Tier::avx2:
#if CDPU_KERNELS_X86
        if (__builtin_cpu_supports("avx2"))
            return &kAvx2Ops;
#endif
        return nullptr;
      case Tier::neon:
#if CDPU_KERNELS_NEON
        return &kNeonOps;
#else
        return nullptr;
#endif
    }
    return nullptr;
}

} // namespace

namespace detail
{
// Constant-initialized to scalar: any dynamic initializer in another
// TU that runs codec work before our startup initializer below still
// dispatches safely.
const KernelOps *activeOps = &kScalarOps;
unsigned activeTierIdx = 0;
unsigned activeChunkWidth = 8;
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
        if (opsForTier(tier) != nullptr)
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
    const KernelOps *ops = opsForTier(tier);
    if (ops == nullptr) {
        return Status::invalid(
            std::string("kernel tier '") + tierName(tier) +
            "' is not available on this host (detected: " +
            tierName(detectedTier()) + ")");
    }
    detail::activeOps = ops;
    detail::activeTierIdx = static_cast<unsigned>(tier);
    detail::activeChunkWidth = storeWidth(tier);
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
        if (parsed.ok() && opsForTier(parsed.value()) != nullptr) {
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

/**
 * @file
 * Heap allocations per steady-state call on a warm serve::CodecContext,
 * counted by a replacement global operator new.
 *
 * snappy and gipfeli decompress allocate nothing once the context's
 * output buffer has grown, and that is asserted. The other codec and
 * direction pairs still build their tables and buffers per call, so
 * their counts are printed rather than asserted: the baseline that a
 * zero-allocation gate on codec scratch owned by the context will
 * tighten.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "codec/registry.h"
#include "corpus/generators.h"
#include "serve/codec_context.h"

namespace
{

std::atomic<unsigned long long> g_allocations{0};

} // namespace

// Every form without an alignment argument is replaced, so a runtime
// that supplies its own operators (AddressSanitizer does) never pairs
// one of its news with one of these deletes.
void *
operator new(std::size_t bytes, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(bytes != 0 ? bytes : 1);
}

void *
operator new(std::size_t bytes)
{
    if (void *p = operator new(bytes, std::nothrow))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t bytes)
{
    return operator new(bytes);
}

void *
operator new[](std::size_t bytes, const std::nothrow_t &) noexcept
{
    return operator new(bytes, std::nothrow);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    std::free(p);
}

namespace cdpu::serve
{
namespace
{

constexpr int kCalls = 8;

/**
 * Mean `operator new` calls over kCalls repeats of one call on a
 * context that already ran it once, on textLike input of @p bytes.
 * Decompress calls check their output against the input.
 */
double
allocationsPerCall(codec::CodecId id, codec::Direction direction,
                   std::size_t bytes)
{
    Rng rng(bytes + static_cast<u64>(id));
    const Bytes body =
        corpus::generate(corpus::DataClass::textLike, bytes, rng);
    Bytes payload = body;
    const codec::CodecVTable &vtable = codec::registry(id);
    if (direction == codec::Direction::decompress) {
        payload.clear();
        const Status status = vtable.compressInto(
            body,
            vtable.caps.clamp(vtable.caps.defaultLevel,
                              vtable.caps.defaultWindowLog),
            payload);
        EXPECT_TRUE(status.ok()) << status.toString();
    }
    hcb::ReplayCall call;
    call.codec = id;
    call.direction = direction;
    call.payload = payload;
    call.level = vtable.caps.defaultLevel;
    call.windowLog = vtable.caps.defaultWindowLog;

    CodecContext context;
    ByteSpan output;
    const Status warm = context.execute(call, output);
    EXPECT_TRUE(warm.ok()) << warm.toString();
    const unsigned long long before = g_allocations.load();
    for (int i = 0; i < kCalls; ++i) {
        const Status status = context.execute(call, output);
        EXPECT_TRUE(status.ok()) << status.toString();
    }
    const unsigned long long after = g_allocations.load();
    if (direction == codec::Direction::decompress) {
        EXPECT_TRUE(std::equal(output.begin(), output.end(), body.begin(),
                               body.end()));
    }
    return static_cast<double>(after - before) / kCalls;
}

TEST(AllocTest, SnappyAndGipfeliDecompressAllocateNothingWhenWarm)
{
    for (codec::CodecId id :
         {codec::CodecId::snappy, codec::CodecId::gipfeli}) {
        for (std::size_t bytes : {1 * kKiB, 64 * kKiB}) {
            EXPECT_EQ(allocationsPerCall(id, codec::Direction::decompress,
                                         bytes),
                      0.0)
                << codec::codecName(id) << " decompress " << bytes
                << " B";
        }
    }
}

TEST(AllocTest, ReportsPerCallCountsOfEveryBaseCodec)
{
    for (codec::CodecId id :
         {codec::CodecId::snappy, codec::CodecId::zstdlite,
          codec::CodecId::flatelite, codec::CodecId::gipfeli}) {
        for (codec::Direction direction :
             {codec::Direction::compress, codec::Direction::decompress}) {
            for (std::size_t bytes : {1 * kKiB, 64 * kKiB}) {
                const double per_call =
                    allocationsPerCall(id, direction, bytes);
                std::printf("alloc_test: %s %s %zu B: %.1f allocations "
                            "per call\n",
                            codec::codecName(id).c_str(),
                            direction == codec::Direction::compress
                                ? "compress"
                                : "decompress",
                            bytes, per_call);
            }
        }
    }
}

} // namespace
} // namespace cdpu::serve

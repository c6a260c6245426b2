/**
 * @file
 * Heap allocations per steady-state call on a warm serve::CodecContext,
 * counted by a replacement global operator new.
 *
 * Once a context's output buffer and codec::Scratch have grown, a
 * whole-buffer call to any base codec, in either direction, allocates
 * nothing; that is asserted at each codec's default level. Pipeline
 * codecs reuse the scratch but their transform stages may still
 * allocate, and zstdlite levels whose match table is past
 * lz77::ParseTable::kMaxRetainedBytes build that table per call, so
 * those counts are printed rather than asserted.
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
 * context that already ran it once, on textLike input of @p bytes at
 * @p level. Decompress calls check their output against the input.
 */
double
allocationsPerCall(codec::CodecId id, codec::Direction direction,
                   std::size_t bytes, int level)
{
    Rng rng(bytes + static_cast<u64>(id));
    const Bytes body =
        corpus::generate(corpus::DataClass::textLike, bytes, rng);
    Bytes payload = body;
    const codec::CodecVTable &vtable = codec::registry(id);
    if (direction == codec::Direction::decompress) {
        payload.clear();
        const Status status = codec::compressInto(
            id, body, vtable.caps.clamp(level, vtable.caps.defaultWindowLog),
            payload);
        EXPECT_TRUE(status.ok()) << status.toString();
    }
    hcb::ReplayCall call;
    call.codec = id;
    call.direction = direction;
    call.payload = payload;
    call.level = level;
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

const char *
directionLabel(codec::Direction direction)
{
    return direction == codec::Direction::compress ? "compress"
                                                   : "decompress";
}

TEST(AllocTest, EveryBaseCodecAllocatesNothingWhenWarm)
{
    for (codec::CodecId id :
         {codec::CodecId::snappy, codec::CodecId::zstdlite,
          codec::CodecId::flatelite, codec::CodecId::gipfeli}) {
        for (codec::Direction direction :
             {codec::Direction::compress, codec::Direction::decompress}) {
            for (std::size_t bytes : {1 * kKiB, 64 * kKiB}) {
                EXPECT_EQ(allocationsPerCall(
                              id, direction, bytes,
                              codec::registry(id).caps.defaultLevel),
                          0.0)
                    << codec::codecName(id) << " "
                    << directionLabel(direction) << " " << bytes << " B";
            }
        }
    }
}

TEST(AllocTest, ReportsPerCallCountsOfPipelinesAndLargeTableLevels)
{
    struct Row
    {
        codec::CodecId id;
        int level;
    };
    std::vector<Row> rows;
    for (codec::CodecId id : codec::allCodecs()) {
        if (codec::registry(id).caps.isPipeline)
            rows.push_back({id, codec::registry(id).caps.defaultLevel});
    }
    // Level 9's 2^17 x 8-way table is past the retained size.
    rows.push_back({codec::CodecId::zstdlite, 9});
    for (const Row &row : rows) {
        for (codec::Direction direction :
             {codec::Direction::compress, codec::Direction::decompress}) {
            for (std::size_t bytes : {1 * kKiB, 64 * kKiB}) {
                const double per_call =
                    allocationsPerCall(row.id, direction, bytes, row.level);
                std::printf("alloc_test: %s level %d %s %zu B: %.1f "
                            "allocations per call\n",
                            codec::codecName(row.id).c_str(), row.level,
                            directionLabel(direction), bytes, per_call);
            }
        }
    }
}

} // namespace
} // namespace cdpu::serve

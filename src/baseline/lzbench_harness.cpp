#include "baseline/lzbench_harness.h"

#include <algorithm>
#include <chrono>

#include "codec/registry.h"

namespace cdpu::baseline
{

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

Result<LzBenchResult>
runLzBench(codec::CodecId codec, Direction direction, int level,
           ByteSpan data, unsigned iterations)
{
    if (iterations == 0)
        return Status::invalid("iterations must be positive");

    const codec::CodecVTable &vtable = codec::registry(codec);
    const codec::CodecParams params =
        vtable.caps.clamp(level, vtable.caps.defaultWindowLog);

    LzBenchResult result;
    result.codec = codec;
    result.direction = direction;
    result.level = params.level;
    result.uncompressedBytes = data.size();
    result.iterations = iterations;

    // Produce the compressed form once (also the decompress input).
    // One scratch for every call, as a serving context keeps one.
    codec::Scratch scratch;
    Bytes compressed;
    CDPU_RETURN_IF_ERROR(
        vtable.compressInto(data, params, compressed, scratch));
    result.compressedBytes = compressed.size();

    auto verify = [&](const Bytes &roundtrip) -> Status {
        if (roundtrip.size() != data.size() ||
            !std::equal(roundtrip.begin(), roundtrip.end(),
                        data.begin())) {
            return Status::internal("lzbench round-trip mismatch");
        }
        return Status::okStatus();
    };

    Bytes out;
    auto start = Clock::now();
    for (unsigned i = 0; i < iterations; ++i) {
        if (direction == Direction::compress) {
            CDPU_RETURN_IF_ERROR(
                vtable.compressInto(data, params, out, scratch));
            result.compressedBytes = out.size();
        } else {
            CDPU_RETURN_IF_ERROR(
                vtable.decompressInto(compressed, out, scratch));
            CDPU_RETURN_IF_ERROR(verify(out));
        }
    }
    result.hostSeconds = secondsSince(start);
    return result;
}

} // namespace cdpu::baseline

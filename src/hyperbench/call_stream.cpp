#include "hyperbench/call_stream.h"

#include "codec/registry.h"

namespace cdpu::hcb
{

u64
CallStream::append(codec::CodecId codec, Direction direction,
                   Bytes payload, int level, unsigned window_log,
                   bool streaming, std::size_t chunk_bytes)
{
    arena_.push_back(std::move(payload));
    const Bytes &stored = arena_.back();
    ReplayCall call;
    call.id = static_cast<u64>(calls_.size());
    call.codec = codec;
    call.direction = direction;
    call.payload = ByteSpan(stored.data(), stored.size());
    call.level = level;
    call.windowLog = window_log;
    call.streaming = streaming;
    call.chunkBytes = chunk_bytes;
    payloadBytes_ += stored.size();
    calls_.push_back(call);
    return call.id;
}

Status
appendSuite(CallStream &stream, const Suite &suite)
{
    codec::Scratch scratch;
    for (const BenchmarkFile &file : suite.files) {
        const codec::CodecVTable &vtable = codec::registry(file.codec);
        const codec::CodecParams params =
            vtable.caps.clamp(file.level, file.windowLog);
        if (file.direction == Direction::compress) {
            stream.append(file.codec, Direction::compress, file.data,
                          params.level, params.windowLog);
            continue;
        }
        // Decompression calls consume previously-compressed traffic:
        // pre-compress the file body with its sampled parameters.
        Bytes frame;
        CDPU_RETURN_IF_ERROR(
            vtable.compressInto(file.data, params, frame, scratch));
        stream.append(file.codec, Direction::decompress,
                      std::move(frame), params.level, params.windowLog);
    }
    return Status::okStatus();
}

} // namespace cdpu::hcb

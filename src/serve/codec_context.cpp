#include "serve/codec_context.h"

#include <algorithm>

#include "codec/registry.h"
#include "obs/span.h"

namespace cdpu::serve
{

Status
CodecContext::execute(const hcb::ReplayCall &call, ByteSpan &output)
{
    Status status = executeInto(call);
    if (std::max(call.payload.size(), out_.size()) > kMaxRetainedCallBytes)
        scratch_.releaseBuffers();
    if (!status.ok()) {
        // A failed call must not poison the reused scratch: streaming
        // drains accumulate partial output before the error surfaces,
        // and a stale lastOutputSize() would misreport the failure.
        // clear() keeps the capacity, so reuse stays allocation-free.
        out_.clear();
        return status;
    }
    output = ByteSpan(out_.data(), out_.size());
    return status;
}

Status
CodecContext::executeInto(const hcb::ReplayCall &call)
{
    const codec::CodecVTable &vtable = codec::registry(call.codec);
    const codec::CodecParams params =
        vtable.caps.clamp(call.level, call.windowLog);
    const bool compressing =
        call.direction == codec::Direction::compress;

    if (call.streaming) {
        // Session path: output accumulates across feeds, so clear the
        // reused buffer up front (the *Into entry points do their own
        // clearing).
        out_.clear();
        if (compressing) {
            auto session = vtable.makeCompressSession(params);
            return codec::compressAll(*session, call.payload,
                                      call.chunkBytes, out_);
        }
        auto session = vtable.makeDecompressSession();
        return codec::decompressAll(*session, call.payload,
                                    call.chunkBytes, out_);
    }
    // One-shot path: the codec runs as a single opaque step, so mark
    // the dispatch boundary for whatever span is tracing this call
    // (one null-pointer test when nothing listens).
    obs::annotatePhase("ctx.oneshot", call.payload.size());
    if (compressing)
        return vtable.compressInto(call.payload, params, out_, scratch_);
    return vtable.decompressInto(call.payload, out_, scratch_);
}

} // namespace cdpu::serve

#include "callset.h"

#include <algorithm>

#include "codec/registry.h"
#include "codec/session.h"
#include "corpus/generators.h"
#include "fleet/fleet_model.h"
#include "serve/codec_context.h"
#include "serve/engine.h"

namespace perfbench
{

using namespace cdpu;

u64
CallSet::rawBytes(std::size_t i) const
{
    const hcb::ReplayCall &call = stream.calls()[i];
    return call.direction == codec::Direction::compress
               ? call.payload.size()
               : expected[i].size();
}

u64
CallSet::totalRawBytes() const
{
    u64 total = 0;
    for (std::size_t i = 0; i < size(); ++i)
        total += rawBytes(i);
    return total;
}

double
CallSet::compressionRatio() const
{
    u64 raw = 0, packed = 0;
    for (std::size_t i = 0; i < size(); ++i) {
        if (stream.calls()[i].direction != codec::Direction::compress)
            continue;
        raw += stream.calls()[i].payload.size();
        packed += expected[i].size();
    }
    return packed ? static_cast<double>(raw) / static_cast<double>(packed)
                  : 1.0;
}

std::vector<Bytes>
CallSet::rawPieces(std::size_t cap) const
{
    std::vector<Bytes> pieces;
    std::size_t total = 0;
    for (std::size_t i = 0; i < size() && total < cap; ++i) {
        const hcb::ReplayCall &call = stream.calls()[i];
        ByteSpan raw = call.direction == codec::Direction::compress
                           ? call.payload
                           : ByteSpan(expected[i].data(), expected[i].size());
        const std::size_t take = std::min(raw.size(), cap - total);
        pieces.emplace_back(raw.begin(), raw.begin() + take);
        total += take;
    }
    return pieces;
}

namespace
{

/** Fills expected/hashes by executing every call through one local
 *  serve::CodecContext, the path the daemon's workers run. */
Status
computeReferences(CallSet &set)
{
    serve::CodecContext context;
    set.expected.clear();
    set.hashes.clear();
    for (const hcb::ReplayCall &call : set.stream.calls()) {
        ByteSpan output;
        Status status = context.execute(call, output);
        if (!status.ok())
            return status;
        set.expected.emplace_back(output.begin(), output.end());
        set.hashes.push_back(serve::fnv1a(output));
    }
    return Status::okStatus();
}

/** loadgen's stand-in for each fleet codec. */
codec::CodecId
standIn(fleet::FleetCodec algorithm)
{
    switch (algorithm) {
      case fleet::FleetCodec::snappy: return codec::CodecId::snappy;
      case fleet::FleetCodec::zstd: return codec::CodecId::zstdlite;
      case fleet::FleetCodec::flate: return codec::CodecId::flatelite;
      case fleet::FleetCodec::brotli: return codec::CodecId::zstdlite;
      case fleet::FleetCodec::gipfeli: return codec::CodecId::gipfeli;
      case fleet::FleetCodec::lzo: return codec::CodecId::snappy;
    }
    return codec::CodecId::snappy;
}

} // namespace

Result<CallSet>
buildFleetMix(u64 seed, std::size_t calls, std::size_t cap_bytes)
{
    fleet::FleetModel model;
    Rng rng(seed);
    const auto classes = corpus::allDataClasses();
    CallSet set;
    for (std::size_t i = 0; i < calls; ++i) {
        const fleet::Channel channel = model.sampleChannel(rng);
        const codec::CodecId id = standIn(channel.algorithm);
        const bool zstd_like = channel.algorithm == fleet::FleetCodec::zstd ||
                               channel.algorithm == fleet::FleetCodec::brotli;
        const int level = zstd_like ? model.sampleZstdLevel(rng)
                                    : static_cast<int>(rng.range(1, 9));
        const auto window_log = static_cast<unsigned>(rng.range(10, 20));
        const std::size_t size = std::max<std::size_t>(
            1, model.sampleCallSize(channel, rng, cap_bytes));
        Bytes body = corpus::generate(classes[i % classes.size()], size, rng);
        if (channel.direction == fleet::Direction::decompress) {
            const codec::CodecParams params =
                codec::registry(id).caps.clamp(level, window_log);
            Bytes frame;
            Status framed = codec::compressInto(
                id, ByteSpan(body.data(), body.size()), params, frame);
            if (!framed.ok())
                return framed;
            set.stream.append(id, codec::Direction::decompress,
                              std::move(frame), level, window_log);
        } else {
            set.stream.append(id, codec::Direction::compress,
                              std::move(body), level, window_log);
        }
    }
    Status refs = computeReferences(set);
    if (!refs.ok())
        return refs;
    return set;
}

Result<CallSet>
buildBulkMix(u64 seed, std::size_t scale_div)
{
    // Sizes of the eight calls each codec gets, largest 1 MiB.
    static const std::size_t kLadder[] = {64, 128, 256, 512, 1024, 768,
                                          384, 192};
    const auto codecs = codec::allCodecs();
    const auto classes = corpus::allDataClasses();
    Rng rng(seed);
    CallSet set;
    for (std::size_t slot = 0; slot < std::size(kLadder); ++slot) {
        for (std::size_t c = 0; c < codecs.size(); ++c) {
            const std::size_t n = c * std::size(kLadder) + slot;
            const codec::CodecId id = codecs[c];
            const bool decompress = slot % 2 == 1;
            const bool streaming = slot / 2 % 4 == 1; // slots 2 and 3
            const int level = static_cast<int>(1 + n % 9);
            const auto window_log = static_cast<unsigned>(10 + n % 11);
            const std::size_t chunk = streaming ? std::size_t{512} << (n % 7)
                                                : 0;
            Bytes body = corpus::generate(classes[n % classes.size()],
                                          kLadder[slot] * kKiB / scale_div,
                                          rng);
            if (!decompress) {
                set.stream.append(id, codec::Direction::compress,
                                  std::move(body), level, window_log,
                                  streaming, chunk);
                continue;
            }
            const codec::CodecParams params =
                codec::registry(id).caps.clamp(level, window_log);
            Bytes frame;
            if (streaming) {
                auto session = codec::makeCompressSession(id, params);
                CDPU_RETURN_IF_ERROR(codec::compressAll(
                    *session, ByteSpan(body.data(), body.size()), 0, frame));
            } else {
                CDPU_RETURN_IF_ERROR(codec::compressInto(
                    id, ByteSpan(body.data(), body.size()), params, frame));
            }
            set.stream.append(id, codec::Direction::decompress,
                              std::move(frame), level, window_log, streaming,
                              chunk);
        }
    }
    serve::ReplayReport reference =
        serve::replaySequential(set.stream, /*record_outputs=*/true);
    if (reference.failed != 0 || reference.executed != set.size())
        return Status::internal("replaySequential failed a call");
    for (serve::CallOutcome &outcome : reference.outcomes) {
        set.hashes.push_back(outcome.outputHash);
        set.expected.push_back(std::move(outcome.output));
    }
    return set;
}

} // namespace perfbench

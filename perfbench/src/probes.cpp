#include "probes.h"

#include <algorithm>

#include "codec/registry.h"
#include "obs/counters.h"
#include "serve/codec_context.h"
#include "serve/queue.h"
#include "serve/wire.h"
#include "transform/transform.h"

namespace perfbench
{

using namespace cdpu;

namespace
{

constexpr int kPasses = 5;
/** Uncompressed bytes the codec and transform probes work through. */
constexpr std::size_t kCodecProbeBytes = 2 * kMiB;
constexpr std::size_t kTransformProbeBytes = 1 * kMiB;
constexpr std::size_t kWireProbeFrames = 512;

} // namespace

double
medianNsPerUnit(const Tracer &tracer, const char *name)
{
    std::vector<double> per_unit;
    for (const Span &span : tracer.spans(name))
        if (span.arg > 0)
            per_unit.push_back(static_cast<double>(span.endNs - span.startNs) /
                               static_cast<double>(span.arg));
    return median(per_unit);
}

void
probeWire(const CallSet &calls, Tracer &tracer, MetricSet &out)
{
    TraceLane *lane = tracer.lane();
    std::vector<serve::WireRequest> requests;
    std::vector<serve::WireResponse> responses;
    for (std::size_t i = 0;
         i < calls.size() && requests.size() < kWireProbeFrames; ++i) {
        const hcb::ReplayCall &call = calls.stream.calls()[i];
        if (call.streaming)
            continue;
        serve::WireRequest request;
        request.requestId = i + 1;
        request.codecSpec = codec::codecName(call.codec);
        request.direction = call.direction;
        request.level = call.level;
        request.windowLog = call.windowLog;
        request.payload.assign(call.payload.begin(), call.payload.end());
        requests.push_back(std::move(request));
        serve::WireResponse response;
        response.requestId = i + 1;
        response.serviceNs = 1;
        response.payload = calls.expected[i];
        responses.push_back(std::move(response));
    }
    const u64 frames = requests.size();
    const serve::WireLimits limits;
    std::vector<Bytes> request_frames(frames), response_frames(frames);
    for (int pass = 0; pass < kPasses; ++pass) {
        {
            ScopedSpan span(lane, "wire.encode_request", pass, frames);
            for (u64 i = 0; i < frames; ++i)
                request_frames[i] = serve::encodeRequest(requests[i]);
        }
        {
            ScopedSpan span(lane, "wire.parse_request", pass, frames);
            for (const Bytes &frame : request_frames)
                (void)serve::parseRequest(ByteSpan(frame.data(), frame.size()),
                                          limits);
        }
        {
            ScopedSpan span(lane, "wire.encode_response", pass, frames);
            for (u64 i = 0; i < frames; ++i)
                response_frames[i] = serve::encodeResponse(responses[i]);
        }
        {
            ScopedSpan span(lane, "wire.parse_response", pass, frames);
            for (const Bytes &frame : response_frames)
                (void)serve::parseResponse(
                    ByteSpan(frame.data(), frame.size()), limits);
        }
    }
    for (const char *name : {"wire.parse_request", "wire.encode_response",
                             "wire.encode_request", "wire.parse_response"})
        out.add(std::string(name) + "_ns", medianNsPerUnit(tracer, name),
                "ns");
}

void
probeQueue(Tracer &tracer, MetricSet &out)
{
    TraceLane *lane = tracer.lane();
    constexpr u64 kPairs = 100'000;
    serve::ShardedWorkQueue<u64> queue(2, 64,
                                       serve::BackpressurePolicy::block);
    u64 item = 0;
    for (int pass = 0; pass < kPasses; ++pass) {
        ScopedSpan span(lane, "queue.push_pop", pass, kPairs);
        for (u64 i = 0; i < kPairs; ++i) {
            queue.push(0, i);
            queue.pop(0, item);
        }
    }
    out.add("queue.push_pop_ns", medianNsPerUnit(tracer, "queue.push_pop"),
            "ns");
}

void
probeObs(const CallSet &calls, Tracer &tracer, MetricSet &out)
{
    TraceLane *lane = tracer.lane();
    std::vector<std::string> codec_names;
    for (const hcb::ReplayCall &call : calls.stream.calls())
        codec_names.push_back(codec::codecName(call.codec));
    constexpr u64 kOps = 100'000;
    obs::CounterRegistry registry;
    obs::Histogram &histogram = registry.histogram("serve.latency_ns");
    for (int pass = 0; pass < kPasses; ++pass) {
        {
            ScopedSpan span(lane, "obs.counter_by_name", pass, kOps);
            for (u64 i = 0; i < kOps; ++i)
                registry
                    .counter("serve.calls." +
                             codec_names[i % codec_names.size()])
                    .increment();
        }
        {
            ScopedSpan span(lane, "obs.histogram_record", pass, kOps);
            for (u64 i = 0; i < kOps; ++i)
                histogram.record(i * 2654435761u % 1'000'000);
        }
    }
    out.add("obs.counter_by_name_ns",
            medianNsPerUnit(tracer, "obs.counter_by_name"), "ns");
    out.add("obs.histogram_record_ns",
            medianNsPerUnit(tracer, "obs.histogram_record"), "ns");
}

void
probeCodecs(const CallSet &calls, Tracer &tracer, MetricSet &out)
{
    struct Names
    {
        codec::CodecId id;
        const char *compress;
        const char *decompress;
    };
    static const Names kCodecs[] = {
        {codec::CodecId::snappy, "codec.snappy.compress",
         "codec.snappy.decompress"},
        {codec::CodecId::zstdlite, "codec.zstdlite.compress",
         "codec.zstdlite.decompress"},
        {codec::CodecId::flatelite, "codec.flatelite.compress",
         "codec.flatelite.decompress"},
        {codec::CodecId::gipfeli, "codec.gipfeli.compress",
         "codec.gipfeli.decompress"},
    };
    TraceLane *lane = tracer.lane();
    const std::vector<Bytes> pieces = calls.rawPieces(kCodecProbeBytes);
    serve::CodecContext context;
    Bytes frame;
    for (const Names &names : kCodecs) {
        for (std::size_t i = 0; i < pieces.size(); ++i) {
            hcb::ReplayCall call;
            call.id = i;
            call.codec = names.id;
            call.payload = ByteSpan(pieces[i].data(), pieces[i].size());
            ByteSpan output;
            {
                ScopedSpan span(lane, names.compress, i, pieces[i].size());
                (void)context.execute(call, output);
            }
            frame.assign(output.begin(), output.end());
            call.direction = codec::Direction::decompress;
            call.payload = ByteSpan(frame.data(), frame.size());
            ScopedSpan span(lane, names.decompress, i, pieces[i].size());
            (void)context.execute(call, output);
        }
        out.add(std::string(names.compress) + ".ns_per_byte",
                medianNsPerUnit(tracer, names.compress), "ns/B");
        out.add(std::string(names.decompress) + ".ns_per_byte",
                medianNsPerUnit(tracer, names.decompress), "ns/B");
    }
}

void
probeTransforms(const CallSet &calls, Tracer &tracer, MetricSet &out)
{
    struct Names
    {
        transform::StageId stage;
        const char *apply;
        const char *invert;
    };
    static const Names kStages[] = {
        {transform::StageId::delta, "transform.delta.apply",
         "transform.delta.invert"},
        {transform::StageId::bwt, "transform.bwt.apply",
         "transform.bwt.invert"},
        {transform::StageId::mtf, "transform.mtf.apply",
         "transform.mtf.invert"},
        {transform::StageId::shred, "transform.shred.apply",
         "transform.shred.invert"},
    };
    TraceLane *lane = tracer.lane();
    const std::vector<Bytes> pieces = calls.rawPieces(kTransformProbeBytes);
    Bytes encoded, decoded;
    for (const Names &names : kStages) {
        for (std::size_t i = 0; i < pieces.size(); ++i) {
            const ByteSpan piece(pieces[i].data(), pieces[i].size());
            {
                ScopedSpan span(lane, names.apply, i, piece.size());
                (void)transform::apply(names.stage, piece, encoded);
            }
            ScopedSpan span(lane, names.invert, i, piece.size());
            (void)transform::invert(names.stage,
                                    ByteSpan(encoded.data(), encoded.size()),
                                    decoded);
        }
        out.add(std::string(names.apply) + ".ns_per_byte",
                medianNsPerUnit(tracer, names.apply), "ns/B");
        out.add(std::string(names.invert) + ".ns_per_byte",
                medianNsPerUnit(tracer, names.invert), "ns/B");
    }
}

} // namespace perfbench

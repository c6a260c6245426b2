#include "serve/call_recorder.h"

#include <chrono>
#include <unordered_map>

#include "codec/obs_bridge.h"
#include "obs/kernel_stats.h"
#include "obs/slo.h"

namespace cdpu::serve
{

namespace
{

using Clock = std::chrono::steady_clock;

/** Intervals the engine's metrics sampler keeps. */
constexpr std::size_t kMetricsCapacity = 256;

const char *
directionLabel(codec::Direction direction)
{
    return direction == codec::Direction::compress ? "compress"
                                                   : "decompress";
}

/** Adds @p delta to @p name through @p slot, resolving the handle on
 *  first use; a null name records nothing. */
void
add(obs::CounterRegistry &registry, obs::Counter *&slot, const char *name,
    u64 delta)
{
    if (!name)
        return;
    if (!slot)
        slot = &registry.counter(name);
    slot->add(delta);
}

void
sample(obs::CounterRegistry &registry, obs::Histogram *&slot,
       const char *name, u64 value)
{
    if (!name)
        return;
    if (!slot)
        slot = &registry.histogram(name);
    slot->record(value);
}

/** @p table's slot @p index, growing the table to fit. */
template <typename T>
T *&
slotAt(std::vector<T *> &table, std::size_t index)
{
    if (index >= table.size())
        table.resize(index + 1, nullptr);
    return table[index];
}

std::string
tenantName(const char *family, u64 tenant)
{
    return std::string(family) + ".t" + std::to_string(tenant);
}

} // namespace

struct CallRecorder::Shard
{
    // Work side, under work_'s shard lock.
    obs::Counter *calls = nullptr;
    obs::Counter *succeeded = nullptr;
    obs::Counter *failed = nullptr;
    obs::Counter *bytesIn = nullptr;
    obs::Counter *bytesOut = nullptr;
    obs::Histogram *sizesIn = nullptr;
    obs::Histogram *sizesOut = nullptr;
    obs::Counter *directions[2] = {};
    std::vector<obs::Counter *> codecs; ///< By CodecId.
    struct Tenant
    {
        obs::Counter *calls = nullptr;
        obs::Counter *bytesIn = nullptr;
    };
    std::unordered_map<u64, Tenant> tenants;
    mem::KernelStats kernel;

    // Runtime side, under runtime_'s shard lock.
    obs::Histogram *latency = nullptr;
    /** By (codec * 2 + direction) * kBuckets + size class; grows with
     *  the registry, which a wire request can extend mid-run. */
    std::vector<obs::Histogram *> cells;
    std::vector<obs::Counter *> events;
    std::unordered_map<u64, std::vector<obs::Counter *>> tenantEvents;
};

CallRecorder::CallRecorder(const CallNames &names, unsigned shards,
                           obs::Telemetry *telemetry,
                           std::vector<const char *> events)
    : names_(names), telemetry_(telemetry), events_(std::move(events)),
      spansBefore_(telemetry ? telemetry->spans().sampledCount() : 0),
      work_(shards), runtime_(shards)
{
    for (unsigned i = 0; i < work_.shardCount(); ++i)
        shards_.push_back(std::make_unique<Shard>());
    // Metrics are clocked on recorded calls, not wall time, so the
    // sample count is a pure function of the calls: whichever writer
    // crosses a multiple of metricsEveryCalls takes the sample.
    if (telemetry && telemetry->config().metricsEveryCalls != 0)
        sampler_ = std::make_unique<obs::MetricsSampler>(
            std::vector<const obs::ShardedCounterRegistry *>{&work_,
                                                             &runtime_},
            kMetricsCapacity);
}

CallRecorder::~CallRecorder() = default;

CallResult
CallRecorder::run(Worker &worker, const hcb::ReplayCall &call)
{
    // Sampling keys on the call id, so the sampled set is the same at
    // any worker count; an unsampled call builds no span labels.
    obs::ActiveSpan span;
    std::optional<obs::SpanPhaseScope> phases;
    if (telemetry_ && telemetry_->spans().shouldSample(call.id)) {
        span = telemetry_->spans().begin(
            call.id, codec::codecName(call.codec).c_str(),
            directionLabel(call.direction), worker.index);
        phases.emplace(span);
    }

    CallResult result;
    const mem::KernelStats before = mem::kernelStats();
    const auto started = Clock::now();
    // A codec failure must become a status, never an unwound worker:
    // registry codecs report through Status, so this is the last line
    // of defence.
    try {
        result.status = worker.context.execute(call, result.output);
    } catch (const std::exception &e) {
        result.status =
            Status::internal(std::string("codec threw: ") + e.what());
    } catch (...) {
        result.status = Status::internal("codec threw a non-exception");
    }
    result.serviceNs = static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now() - started)
            .count());
    result.kernel = mem::kernelStats().diff(before);
    return result;
}

void
CallRecorder::record(unsigned shard, const hcb::ReplayCall &call,
                     const CallResult &result, u64 latency_ns,
                     std::optional<u64> tenant)
{
    Shard &s = *shards_[shard % shards_.size()];
    const bool ok = result.status.ok();
    const u64 bytes_in = call.payload.size();
    const u64 bytes_out = ok ? result.output.size() : 0;
    const auto codec_index = static_cast<std::size_t>(call.codec);
    const unsigned direction =
        call.direction == codec::Direction::compress ? 0 : 1;

    work_.withShard(shard, [&](obs::CounterRegistry &registry) {
        add(registry, s.calls, names_.calls, 1);
        if (names_.calls) {
            obs::Counter *&per_codec = slotAt(s.codecs, codec_index);
            if (!per_codec)
                per_codec = &registry.counter(
                    std::string(names_.calls) + "." +
                    codec::codecName(call.codec));
            per_codec->increment();
        }
        if (names_.directions) {
            obs::Counter *&per_direction = s.directions[direction];
            if (!per_direction)
                per_direction = &registry.counter(
                    std::string(names_.directions) + "." +
                    directionLabel(call.direction));
            per_direction->increment();
        }
        add(registry, s.bytesIn, names_.bytesIn, bytes_in);
        sample(registry, s.sizesIn, names_.sizesIn, bytes_in);
        if (ok) {
            add(registry, s.succeeded, names_.succeeded, 1);
            add(registry, s.bytesOut, names_.bytesOut, bytes_out);
            sample(registry, s.sizesOut, names_.sizesOut, bytes_out);
        } else {
            add(registry, s.failed, names_.failed, 1);
        }
        if (tenant && names_.tenantCalls) {
            Shard::Tenant &slot = s.tenants[*tenant];
            if (!slot.calls) {
                slot.calls =
                    &registry.counter(tenantName(names_.tenantCalls, *tenant));
                slot.bytesIn = &registry.counter(
                    tenantName(names_.tenantBytesIn, *tenant));
            }
            slot.calls->increment();
            slot.bytesIn->add(bytes_in);
        }
        s.kernel.merge(result.kernel);
    });

    if (names_.latency) {
        runtime_.withShard(shard, [&](obs::CounterRegistry &registry) {
            sample(registry, s.latency, names_.latency, latency_ns);
            const unsigned size_class = obs::Histogram::bucketOf(bytes_in);
            obs::Histogram *&cell = slotAt(
                s.cells, (codec_index * 2 + direction) *
                                 obs::HistogramSnapshot::kBuckets +
                             size_class);
            if (!cell)
                cell = &registry.histogram(obs::dimensionedLatencyName(
                    codec::codecName(call.codec),
                    directionLabel(call.direction), size_class));
            cell->record(latency_ns);
        });
    }

    if (telemetry_) {
        if (telemetry_->flightEnabled()) {
            obs::FlightEvent event;
            event.id = call.id;
            event.timestampNs = obs::SpanRecorder::nowNs();
            event.kind = codec::flightKind(call.codec);
            event.direction = codec::flightDirection(call.direction);
            event.outcome = codec::flightOutcome(result.status);
            event.bytesIn = bytes_in;
            event.bytesOut = bytes_out;
            telemetry_->flight().ring(shard).record(event);
        }
        if (!ok)
            telemetry_->noteFault(
                "call " + std::to_string(call.id) + " (" +
                    codec::codecName(call.codec) + " " +
                    directionLabel(call.direction) +
                    "): " + result.status.message(),
                obs::SpanRecorder::nowNs());
    }
    // Outside the shard locks: sampling snapshots every shard.
    if (sampler_ &&
        (recorded_.fetch_add(1, std::memory_order_relaxed) + 1) %
                telemetry_->config().metricsEveryCalls ==
            0)
        sampler_->sample(obs::SpanRecorder::nowNs());
}

void
CallRecorder::countEvent(unsigned shard, unsigned event, u64 delta,
                         std::optional<u64> tenant)
{
    Shard &s = *shards_[shard % shards_.size()];
    runtime_.withShard(shard, [&](obs::CounterRegistry &registry) {
        add(registry, slotAt(s.events, event), events_[event], delta);
        if (tenant) {
            obs::Counter *&attributed =
                slotAt(s.tenantEvents[*tenant], event);
            if (!attributed)
                attributed = &registry.counter(
                    tenantName(events_[event], *tenant));
            attributed->add(delta);
        }
    });
}

obs::CounterSnapshot
CallRecorder::work() const
{
    obs::CounterSnapshot snapshot = work_.mergedSnapshot();
    obs::CounterRegistry kernel_registry;
    obs::exportKernelStats(kernel_registry, kernel());
    snapshot.merge(kernel_registry.snapshot());
    return snapshot;
}

obs::CounterSnapshot
CallRecorder::runtime() const
{
    return runtime_.mergedSnapshot();
}

mem::KernelStats
CallRecorder::kernel() const
{
    mem::KernelStats total;
    for (unsigned i = 0; i < shards_.size(); ++i)
        work_.withShard(i, [&](const obs::CounterRegistry &) {
            total.merge(shards_[i]->kernel);
        });
    return total;
}

u64
CallRecorder::spansSampled() const
{
    return telemetry_ ? telemetry_->spans().sampledCount() - spansBefore_
                      : 0;
}

u64
CallRecorder::metricsSamples() const
{
    return sampler_ ? sampler_->sampleCount() : 0;
}

obs::JsonValue
CallRecorder::metricsSeries() const
{
    return sampler_ ? sampler_->toJson() : obs::JsonValue();
}

} // namespace cdpu::serve

/**
 * @file
 * Fleet-replay engine.
 *
 * Replays a CallStream — the unit of serving work in the paper's fleet
 * analysis (Section 3: independent (de)compression calls, not files) —
 * over the engine's own worker pool (serve/executor.h), one call per
 * task. Each call runs and is accounted through a CallRecorder
 * (serve/call_recorder.h), the same one the no-thread reference uses.
 *
 * Determinism contract: with the block backpressure policy, the
 * *work* a replay performs is a pure function of the stream — every
 * call executes exactly once, so ReplayReport::work (call/byte
 * counters, size histograms, kernel.* fast-path totals) and the
 * per-call outcomes (sizes, hashes) are identical for any worker
 * count, including the no-thread replaySequential() reference. What
 * the scheduler decided — latencies, steals, drops — lands in
 * ReplayReport::runtime and is NOT comparable across runs. The
 * differential tests pin the first contract; the bench reports the
 * second.
 */

#ifndef CDPU_SERVE_ENGINE_H_
#define CDPU_SERVE_ENGINE_H_

#include "serve/call_recorder.h"

namespace cdpu::serve
{

struct EngineConfig
{
    unsigned workers = 1;
    /** Calls a worker's shard holds before the producer feels
     *  backpressure. */
    std::size_t shardCapacity = 8;
    BackpressurePolicy policy = BackpressurePolicy::block;
    /** Keep each call's output bytes (differential tests); costly for
     *  large streams, so benches leave it off and compare hashes. */
    bool recordOutputs = false;
    /**
     * Optional telemetry hub (not owned; must outlive the run). Null
     * is the compiled-in-but-idle configuration: no spans, no flight
     * events, no metrics samples, no per-call cost. With a hub:
     * per-call spans sampled on call id (deterministic across worker
     * counts), flight events into the worker's ring, metrics samples
     * every config.metricsEveryCalls completed calls, and a fault dump
     * on the first failed call. The dimensioned latency cells are
     * recorded with or without a hub.
     */
    obs::Telemetry *telemetry = nullptr;
};

/** Per-call result slot; index in ReplayReport::outcomes == call id. */
struct CallOutcome
{
    bool executed = false; ///< False when dropped by backpressure.
    bool ok = false;
    std::size_t outputBytes = 0;
    u64 outputHash = 0; ///< FNV-1a of the output bytes.
    Bytes output;       ///< Populated only with recordOutputs.
};

struct ReplayReport
{
    std::vector<CallOutcome> outcomes;

    /** Deterministic accounting: serve.calls[.codec|.direction],
     *  serve.bytes.{in,out}, serve.failures, call-size histograms,
     *  and the merged kernel.* fast-path totals. Equal across worker
     *  counts under the block policy. */
    obs::CounterSnapshot work;

    /** Scheduling-dependent accounting: serve.latency_ns (+
     *  dimensioned cells), serve.steals (calls a worker took off
     *  another's shard), serve.drops. */
    obs::CounterSnapshot runtime;

    /** Merged per-call fast-path stats (also exported into work). */
    mem::KernelStats kernel;

    /** Time-series metrics document ({"metrics_series": ...}); JSON
     *  null unless the run's telemetry hub enabled metrics sampling. */
    obs::JsonValue metricsSeries;
    /** Metrics samples taken during this run (deterministic in the
     *  stream: floor(executed calls / metricsEveryCalls)). */
    u64 metricsSamples = 0;
    /** Spans this run sampled (deterministic in the stream under
     *  key-based sampling, independent of worker count). */
    u64 spansSampled = 0;

    double elapsedSeconds = 0.0;
    u64 executed = 0;
    u64 dropped = 0;
    u64 failed = 0;

    /** All accessors read 0 / empty for streams that executed no
     *  calls: CounterSnapshot::at and histogramAt treat never-touched
     *  entries as zero instead of throwing. */
    u64 bytesIn() const { return work.at("serve.bytes.in"); }
    u64 bytesOut() const { return work.at("serve.bytes.out"); }
    const obs::HistogramSnapshot &
    latency() const
    {
        return runtime.histogramAt("serve.latency_ns");
    }
};

class ReplayEngine
{
  public:
    /** Starts the engine's worker pool; it lives until destruction, so
     *  repeated run()s pay no thread start-up. */
    explicit ReplayEngine(const EngineConfig &config);

    /** Replays @p stream to completion and returns the report. The
     *  stream must stay unmodified for the duration. */
    ReplayReport run(const hcb::CallStream &stream);

  private:
    EngineConfig config_;
    std::unique_ptr<Executor> executor_;
};

/**
 * No-thread, no-queue reference replay: one codec context, calls in
 * stream order. The differential oracle the engine is compared to.
 */
ReplayReport replaySequential(const hcb::CallStream &stream,
                              bool record_outputs = false,
                              obs::Telemetry *telemetry = nullptr);

/** FNV-1a 64-bit hash (outcome fingerprints). */
u64 fnv1a(ByteSpan data);

} // namespace cdpu::serve

#endif // CDPU_SERVE_ENGINE_H_

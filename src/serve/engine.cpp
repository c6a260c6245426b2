#include "serve/engine.h"

#include <chrono>

namespace cdpu::serve
{

u64
fnv1a(ByteSpan data)
{
    u64 hash = 0xcbf29ce484222325ull;
    for (u8 byte : data) {
        hash ^= byte;
        hash *= 0x100000001b3ull;
    }
    return hash;
}

namespace
{

using Clock = std::chrono::steady_clock;

/** Runs one call and fills its outcome slot: the per-call body the
 *  pool's workers and replaySequential share. */
void
replayCall(CallRecorder &recorder, Worker &worker,
           const hcb::ReplayCall &call, bool record_output,
           CallOutcome &outcome)
{
    const CallResult result = recorder.run(worker, call);
    outcome.executed = true;
    outcome.ok = result.status.ok();
    if (outcome.ok) {
        outcome.outputBytes = result.output.size();
        outcome.outputHash = fnv1a(result.output);
        if (record_output)
            outcome.output.assign(result.output.begin(),
                                  result.output.end());
    }
    recorder.record(worker.index, call, result, result.serviceNs);
}

/** Fills @p report's accounting once every call has run. */
void
finishReport(ReplayReport &report, const CallRecorder &recorder,
             Clock::time_point started)
{
    report.elapsedSeconds =
        std::chrono::duration<double>(Clock::now() - started).count();
    report.work = recorder.work();
    report.runtime = recorder.runtime();
    report.kernel = recorder.kernel();
    report.spansSampled = recorder.spansSampled();
    report.metricsSamples = recorder.metricsSamples();
    report.metricsSeries = recorder.metricsSeries();
    for (const CallOutcome &outcome : report.outcomes) {
        if (!outcome.executed)
            continue;
        ++report.executed;
        if (!outcome.ok)
            ++report.failed;
    }
    report.dropped = report.outcomes.size() - report.executed;
}

} // namespace

ReplayEngine::ReplayEngine(const EngineConfig &config)
    : config_(config),
      executor_(std::make_unique<Executor>(
          ExecutorConfig{.workers = config.workers,
                         .shardCapacity = config.shardCapacity,
                         .policy = config.policy}))
{
}

ReplayReport
ReplayEngine::run(const hcb::CallStream &stream)
{
    ReplayReport report;
    report.outcomes.resize(stream.size());
    CallRecorder recorder(kServeCallNames, executor_->workers(),
                          config_.telemetry, {"serve.steals"});

    // One task per call, round-robin across the workers' shards so
    // every worker has a home stream of work; stealing levels the
    // imbalance. Under the drop policy a refused call never runs and
    // counts as dropped.
    const std::vector<hcb::ReplayCall> &calls = stream.calls();
    const auto started = Clock::now();
    executor_->runAll(calls.size(), [&](Worker &worker, std::size_t i) {
        recorder.countEvent(worker.index, 0, worker.stolen ? 1 : 0);
        replayCall(recorder, worker, calls[i], config_.recordOutputs,
                   report.outcomes[i]);
    });
    finishReport(report, recorder, started);
    report.runtime.counters["serve.drops"] = report.dropped;
    return report;
}

ReplayReport
replaySequential(const hcb::CallStream &stream, bool record_outputs,
                 obs::Telemetry *telemetry)
{
    ReplayReport report;
    report.outcomes.resize(stream.size());
    CallRecorder recorder(kServeCallNames, 1, telemetry);
    Worker worker;
    const auto started = Clock::now();
    for (const hcb::ReplayCall &call : stream.calls())
        replayCall(recorder, worker, call, record_outputs,
                   report.outcomes[call.id]);
    finishReport(report, recorder, started);
    return report;
}

} // namespace cdpu::serve

/**
 * @file
 * The serving layer's one per-call recorder.
 *
 * Every codec call a front end executes — a replayed stream call, a
 * daemon request, a container block — is run and accounted by a
 * CallRecorder: on a pool worker (serve/executor.h), or on the
 * caller's thread for the no-thread references (replaySequential,
 * container::decodeSequential), which is what makes the differential
 * contract structural. One recorder is one front-end run's ledger: a
 * replay, a daemon's lifetime, one container decode.
 *
 * Accounting follows the engine's split. *Work* (call and byte
 * counters, size histograms, merged kernel.* fast-path totals) is a
 * pure function of the calls; *runtime* (latency, scheduling and
 * admission events) depends on the schedule. Both registries have one
 * shard per writer thread, and each shard keeps the handles it has
 * handed out — per codec, per direction, per tenant, per dimensioned
 * latency cell, per event — so after a handle's first use the per-call
 * path builds no strings and looks up no names: an uncontended shard
 * lock and pointer adds.
 */

#ifndef CDPU_SERVE_CALL_RECORDER_H_
#define CDPU_SERVE_CALL_RECORDER_H_

#include <atomic>
#include <memory>
#include <optional>

#include "common/mem.h"
#include "obs/counters.h"
#include "obs/telemetry.h"
#include "serve/executor.h"

namespace cdpu::serve
{

/** The names a front end publishes its calls under; a null name is
 *  not recorded. */
struct CallNames
{
    const char *calls;      ///< Executed calls; "<calls>.<codec>" too.
    const char *directions; ///< "<directions>.compress|.decompress".
    const char *succeeded;
    const char *failed;
    const char *bytesIn;
    const char *bytesOut; ///< Output bytes of calls that succeeded.
    const char *sizesIn;  ///< Histogram of input sizes.
    const char *sizesOut; ///< Histogram of successful output sizes.
    const char *tenantCalls;   ///< "<tenantCalls>.t<id>".
    const char *tenantBytesIn; ///< "<tenantBytesIn>.t<id>".
    /** Runtime latency histogram, plus the dimensioned
     *  serve.latency_ns.by.* cells (obs/slo.h) unless the hub turns
     *  them off. */
    const char *latency;
};

/** The replay engine's and the daemon's serve.* names. */
inline constexpr CallNames kServeCallNames = {
    "serve.calls",          "serve.calls",         nullptr,
    "serve.failures",       "serve.bytes.in",      "serve.bytes.out",
    "serve.call_bytes_in",  "serve.call_bytes_out", "serve.tenant.calls",
    "serve.tenant.bytes_in", "serve.latency_ns"};

/** The container decoder's container.* names: one call per block. */
inline constexpr CallNames kContainerCallNames = {
    "container.blocks",          nullptr,
    "container.blocks.ok",       "container.blocks.failed",
    "container.bytes.in",        "container.bytes.out",
    nullptr,                     "container.block_regen_bytes",
    nullptr,                     nullptr,
    nullptr};

/** One executed call, before it is accounted. */
struct CallResult
{
    Status status = Status::okStatus();
    ByteSpan output;         ///< Valid until the worker's next call.
    u64 serviceNs = 0;       ///< Codec time alone.
    mem::KernelStats kernel; ///< Fast-path work the call did.
};

class CallRecorder
{
  public:
    /**
     * @param shards    One per writer: pool worker i records into
     *                  shard i; further shards serve other threads
     *                  (the daemon's readers share the last one).
     * @param telemetry Optional hub (not owned): spans sampled on the
     *                  call id, flight events into ring(shard), a fault
     *                  dump on the first failure, and a metrics sample
     *                  every metricsEveryCalls recorded calls.
     * @param events    Runtime event names, counted by index through
     *                  countEvent().
     */
    CallRecorder(const CallNames &names, unsigned shards,
                 obs::Telemetry *telemetry = nullptr,
                 std::vector<const char *> events = {});
    ~CallRecorder();

    CallRecorder(const CallRecorder &) = delete;
    CallRecorder &operator=(const CallRecorder &) = delete;

    /** Runs @p call on @p worker's codec context, inside a span when
     *  the call id is sampled, and times it. A throwing codec becomes
     *  an internal-error status. Records nothing, so the front end can
     *  still veto the result before record(). */
    CallResult run(Worker &worker, const hcb::ReplayCall &call);

    /** Accounts one finished call into shard @p shard: work counters
     *  (attributed to @p tenant when given), kernel totals, latency
     *  and its dimensioned cell, a flight event, a fault note when the
     *  call failed, and the metrics trigger. */
    void record(unsigned shard, const hcb::ReplayCall &call,
                const CallResult &result, u64 latency_ns,
                std::optional<u64> tenant = std::nullopt);

    /** Adds @p delta to runtime event @p event in shard @p shard, and
     *  to "<event>.t<tenant>" when @p tenant is given. */
    void countEvent(unsigned shard, unsigned event, u64 delta = 1,
                    std::optional<u64> tenant = std::nullopt);

    /** Merged work counters with the kernel totals folded in under
     *  kernel.*. Safe while recording, like every accessor below. */
    obs::CounterSnapshot work() const;
    obs::CounterSnapshot runtime() const;
    mem::KernelStats kernel() const;

    u64 spansSampled() const;
    u64 metricsSamples() const;
    /** {"metrics_series": ...}, or JSON null without metrics. */
    obs::JsonValue metricsSeries() const;

  private:
    struct Shard;

    const CallNames names_;
    obs::Telemetry *const telemetry_;
    const std::vector<const char *> events_;
    const u64 spansBefore_;

    obs::ShardedCounterRegistry work_;
    obs::ShardedCounterRegistry runtime_;
    /** Handle caches: the work-side fields under work_'s shard lock,
     *  the runtime-side fields under runtime_'s. */
    std::vector<std::unique_ptr<Shard>> shards_;

    std::unique_ptr<obs::MetricsSampler> sampler_;
    std::atomic<u64> recorded_{0};
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_CALL_RECORDER_H_

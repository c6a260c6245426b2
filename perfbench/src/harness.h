/**
 * @file
 * Measurement harness shared by every perfbench workload: exact order
 * statistics from raw samples, the metric record and its one-line JSON
 * form, host facts (effective-parallelism probe, CPU time, peak RSS,
 * SIMD tier), and an in-memory span tracer with a Chrome-trace writer.
 *
 * Nothing here reaches into the system under test: workloads time the
 * public calls they make and hand the samples to this layer.
 */

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <deque>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.h"

namespace perfbench
{

using cdpu::u64;
using Clock = std::chrono::steady_clock;

/** Monotonic nanoseconds (steady_clock epoch). */
u64 nowNs();

/** Seconds since @p start. */
double secondsSince(Clock::time_point start);

// --- Order statistics -----------------------------------------------------

/**
 * Exact quantile of @p sorted (ascending) at @p q in [0, 1], linearly
 * interpolated between the two neighbouring order statistics (the
 * "type 7" definition numpy and R use by default). Monotone in q and
 * always inside [front, back]. 0 for an empty vector.
 */
double quantileSorted(const std::vector<double> &sorted, double q);

/** Median of @p values (copied and sorted). */
double median(std::vector<double> values);

/**
 * Highest of p50, p90, p99, p99.9, p99.99 that still has at least ten
 * samples strictly beyond it among @p n samples; 0 when not even the
 * median qualifies (n < 20).
 */
double highestSupportedQuantile(std::size_t n);

/** Latency-style summary of raw samples. */
struct Summary
{
    std::size_t n = 0;
    double p50 = 0;
    double p99 = 0;
    double max = 0;
    double tailQ = 0;    ///< highestSupportedQuantile(n).
    double tailValue = 0; ///< Quantile at tailQ.

    /** p50 <= p99 <= max, and the tail inside [p50, max]. */
    bool consistent() const;
};

Summary summarize(std::vector<double> samples);

// --- Metrics ---------------------------------------------------------------

/** Metric names: a letter or digit, then letters, digits, '_', '.',
 *  '-'; at most 64 characters. */
bool validMetricName(std::string_view name);

/** Units: 1-16 of letters, digits, '_', '/', '%', '.', '-'. */
bool validUnit(std::string_view unit);

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Ordered metric list; add() rejects bad names, units and duplicates
 *  by throwing std::invalid_argument (a benchmark bug, not a result). */
class MetricSet
{
  public:
    void add(const std::string &name, double value,
             const std::string &unit);
    const std::vector<Metric> &items() const { return items_; }
    const Metric *find(std::string_view name) const;

  private:
    std::vector<Metric> items_;
};

/** The benchmark's final stdout line:
 *  {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
 *  with every value printed round-trip exact. */
std::string resultLine(bool correct, u64 attempted, u64 failed,
                       const MetricSet &metrics);

// --- Host facts ------------------------------------------------------------

/** User + system CPU seconds of the whole process. */
double processCpuSeconds();

/** Peak resident set size of the process, MiB. */
double peakRssMiB();

/** Threads of the process right now (/proc/self/task entries). */
unsigned processThreads();

/** A calibrated spin on 1 thread and on @p threads threads at once. */
struct ParallelismProbe
{
    unsigned threads = 1;
    double oneThreadSeconds = 0;
    double allThreadsSeconds = 0;
    /** threads * one / all: how many threads' worth of spin the host
     *  delivered concurrently (ideal = threads). */
    double effective = 0;
};

/** Runs the probe (median of three repetitions of each shape). */
ParallelismProbe probeParallelism(unsigned threads);

/** Whether @p probe shows the host delivering the threads it asked
 *  for (at least 80% of each). */
bool hostDelivered(const ParallelismProbe &probe);

/** Static host description: nproc, SIMD tiers and CPU features. */
struct HostFacts
{
    unsigned nproc = 0;
    std::string detectedTier;
    std::string activeTier;
    std::string cpuFeatures;
};

HostFacts hostFacts();

// --- Tracing ---------------------------------------------------------------

/** One timed interval around a call into a layer. */
struct Span
{
    const char *name = ""; ///< Static string: "<layer>.<operation>".
    u64 id = 0;            ///< Call id shared by one call's spans.
    u64 startNs = 0;
    u64 endNs = 0;
    u64 arg = 0; ///< Bytes or a count the span covers (or serviceNs).
    double us() const { return static_cast<double>(endNs - startNs) / 1e3; }
};

/** Spans recorded by one thread; appended without locking. */
struct TraceLane
{
    unsigned tid = 0;
    std::vector<Span> spans;
};

/**
 * In-memory tracer: each recording thread takes its own lane, so the
 * hot path is a vector append. Lanes are read only after the recording
 * threads have been joined.
 */
class Tracer
{
  public:
    /** A fresh lane for the calling thread (stable address). */
    TraceLane *lane();

    /** Every span named @p name, across lanes. */
    std::vector<Span> spans(std::string_view name) const;

    std::size_t spanCount() const;

    /** Writes the spans as Chrome trace_event JSON ("X" events, one
     *  track per lane, call id in args). Returns false on I/O error. */
    bool writeChromeTrace(const std::string &path) const;

  private:
    mutable std::mutex mutex_;
    std::deque<TraceLane> lanes_;
};

/** RAII span; a null lane (untraced run) records nothing. */
class ScopedSpan
{
  public:
    ScopedSpan(TraceLane *lane, const char *name, u64 id, u64 arg = 0)
        : lane_(lane)
    {
        if (lane_) {
            span_.name = name;
            span_.id = id;
            span_.arg = arg;
            span_.startNs = nowNs();
        }
    }
    ~ScopedSpan()
    {
        if (lane_) {
            span_.endNs = nowNs();
            lane_->spans.push_back(span_);
        }
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    TraceLane *lane_;
    Span span_;
};

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H_

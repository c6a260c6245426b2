/**
 * @file
 * Hierarchical performance-counter registry.
 *
 * The paper's methodology is measurement end to end — fleet profiling
 * (Figures 1-6) and cycle-exact PU evaluation (Figures 11-15) — so the
 * simulation and hardware models publish their accounting through one
 * shared facility instead of ad-hoc struct fields. Names are
 * dot-separated paths ("mem.l2.hits", "pu.stream_in_cycles"); the
 * registry hands out stable Counter&/Histogram& handles so hot paths
 * pay one lookup at setup and a single add per event afterwards.
 *
 * Snapshots are plain value types: diff() isolates one call or phase,
 * merge() aggregates across PUs or suite files, and toJson() feeds the
 * bench telemetry records (BENCH_*.json) and trace exports.
 */

#ifndef CDPU_OBS_COUNTERS_H_
#define CDPU_OBS_COUNTERS_H_

#include <array>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.h"

namespace cdpu::obs
{

/** One monotonically increasing counter. */
class Counter
{
  public:
    void add(u64 delta) { value_ += delta; }
    void increment() { ++value_; }
    /** Overwrites the value; for exporting externally-kept totals. */
    void set(u64 value) { value_ = value; }
    u64 value() const { return value_; }
    void reset() { value_ = 0; }

  private:
    u64 value_ = 0;
};

/** Immutable copy of a Histogram's state; supports percentile math. */
struct HistogramSnapshot
{
    /** Bucket 0 holds the value 0; bucket i>0 holds [2^(i-1), 2^i). */
    static constexpr unsigned kBuckets = 65;

    u64 count = 0;
    u64 sum = 0;
    u64 min = 0;
    u64 max = 0;
    std::array<u64, kBuckets> buckets{};

    double
    mean() const
    {
        return count ? static_cast<double>(sum) / count : 0.0;
    }

    /**
     * Value at quantile @p q in [0, 1], linearly interpolated inside
     * the containing power-of-two bucket and clamped to [min, max].
     */
    double percentile(double q) const;

    /** This snapshot minus @p before (bucket-wise; min/max kept). */
    HistogramSnapshot diff(const HistogramSnapshot &before) const;

    /** Accumulates @p other into this snapshot. */
    void merge(const HistogramSnapshot &other);

    JsonValue toJson() const;

    /**
     * Checks the invariants every published histogram holds: bucket
     * counts sum to count, and p50 <= p90 <= p99 <= p999, each inside
     * [min, max]. Checks this snapshot as toJson() publishes it.
     */
    Status validate() const;

    /** validate() for a published histogram: an object with toJson()'s
     *  keys, as bench records and telemetry documents carry it. */
    static Status validate(const JsonValue &published);
};

/** Log2-bucketed value histogram (latencies, sizes, occupancies). */
class Histogram
{
  public:
    void
    record(u64 value)
    {
        ++state_.buckets[bucketOf(value)];
        ++state_.count;
        state_.sum += value;
        if (state_.count == 1 || value < state_.min)
            state_.min = value;
        if (value > state_.max)
            state_.max = value;
    }

    const HistogramSnapshot &snapshot() const { return state_; }
    void reset() { state_ = HistogramSnapshot{}; }

    static unsigned bucketOf(u64 value);

  private:
    HistogramSnapshot state_;
};

/** Point-in-time copy of every counter and histogram in a registry. */
struct CounterSnapshot
{
    std::map<std::string, u64> counters;
    std::map<std::string, HistogramSnapshot> histograms;

    /** Counter value by name; 0 when the counter is absent. */
    u64 at(const std::string &name) const;
    bool has(const std::string &name) const;

    /**
     * Histogram snapshot by name; an empty (count == 0) snapshot when
     * absent. The histogram mirror of at(): a never-touched stream
     * reads as zero instead of throwing out of the underlying map.
     */
    const HistogramSnapshot &histogramAt(const std::string &name) const;

    /**
     * This snapshot minus @p before, entry-wise (entries absent from
     * @p before pass through; counters saturate at 0). The usual idiom
     * for per-call accounting: snapshot, run, snapshot, diff.
     */
    CounterSnapshot diff(const CounterSnapshot &before) const;

    /** Accumulates @p other into this snapshot, entry-wise. */
    void merge(const CounterSnapshot &other);

    /** {"counters": {...}, "histograms": {...}}. */
    JsonValue toJson() const;
    std::string toJsonString(int indent = 0) const;
};

/**
 * Owner of named counters and histograms. Handles returned by
 * counter()/histogram() stay valid for the registry's lifetime.
 *
 * NOT thread-safe: a registry (and the Counter/Histogram handles it
 * hands out) must be confined to one thread at a time. Concurrent
 * writers go through ShardedCounterRegistry below, which gives every
 * writer thread its own shard and merges on snapshot.
 */
class CounterRegistry
{
  public:
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);

    CounterSnapshot snapshot() const;

    /** Zeroes every counter and histogram (names stay registered). */
    void reset();

  private:
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/**
 * Concurrency-safe counter front: N independent CounterRegistry
 * shards, each guarded by its own mutex. The intended discipline is
 * one writer thread per shard (worker i updates shard i), so a
 * shard's lock is uncontended on the hot path and exists only to make
 * mergedSnapshot() safe while writers are still running. Counting at
 * per-call granularity (a handful of adds under one lock) keeps the
 * locking cost negligible next to a codec invocation.
 */
class ShardedCounterRegistry
{
  public:
    explicit ShardedCounterRegistry(unsigned shards = 1);

    unsigned shardCount() const
    {
        return static_cast<unsigned>(shards_.size());
    }

    /** Runs @p fn(CounterRegistry &) under shard @p i's lock. */
    template <typename Fn>
    void
    withShard(unsigned i, Fn &&fn)
    {
        Shard &shard = *shards_[i % shards_.size()];
        std::lock_guard<std::mutex> lock(shard.mutex);
        fn(shard.registry);
    }

    /** Read-only withShard(), for state kept beside the shard. */
    template <typename Fn>
    void
    withShard(unsigned i, Fn &&fn) const
    {
        const Shard &shard = *shards_[i % shards_.size()];
        std::lock_guard<std::mutex> lock(shard.mutex);
        fn(shard.registry);
    }

    /**
     * Merge of every shard's snapshot (counters summed, histograms
     * accumulated). Safe to call while writer threads are active; each
     * shard is locked in turn, so the result is a consistent per-shard
     * (not globally atomic) view.
     */
    CounterSnapshot mergedSnapshot() const;

    /** Zeroes every shard (names stay registered). */
    void reset();

  private:
    struct Shard
    {
        mutable std::mutex mutex;
        CounterRegistry registry;
    };

    std::vector<std::unique_ptr<Shard>> shards_;
};

} // namespace cdpu::obs

#endif // CDPU_OBS_COUNTERS_H_

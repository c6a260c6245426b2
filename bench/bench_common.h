/**
 * @file
 * Shared helpers for the bench binaries.
 *
 * Every bench binary accepts `--json <path>` and, when given, writes a
 * stable machine-readable record via BenchReport next to its human
 * output. The record is the repo's perf trajectory format
 * (BENCH_*.json): benchmark id, config, metrics, and the counter
 * snapshot of the measured PU.
 *
 * The second half is bench_scaling's sweep harness: the worker ladder,
 * interleaved rounds summarized as median/min/IQR, the host
 * parallelism probe, and the speedup headline keyed on that probe.
 */

#ifndef CDPU_BENCH_BENCH_COMMON_H_
#define CDPU_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "codec/registry.h"
#include "common/cli.h"
#include "common/table.h"
#include "hyperbench/suite_generator.h"
#include "obs/counters.h"
#include "obs/json.h"

namespace cdpu::bench
{

/** Capability metadata for one codec as a JSON object, so telemetry
 *  records are self-describing about what the codec under test can do
 *  (levels, window range, expansion bound, streaming support). */
inline obs::JsonValue
codecCapsJson(codec::CodecId id)
{
    const codec::CodecCaps &caps = codec::registry(id).caps;
    obs::JsonValue json = obs::JsonValue::object();
    json.set("name", caps.name);
    json.set("display_name", caps.displayName);
    json.set("has_levels", caps.hasLevels);
    if (caps.hasLevels) {
        json.set("min_level", caps.minLevel);
        json.set("max_level", caps.maxLevel);
    }
    json.set("default_level", caps.defaultLevel);
    json.set("has_window", caps.hasWindow);
    if (caps.hasWindow) {
        json.set("min_window_log", u64{caps.minWindowLog});
        json.set("max_window_log", u64{caps.maxWindowLog});
    }
    json.set("default_window_log", u64{caps.defaultWindowLog});
    json.set("max_expansion_num", u64{caps.maxExpansionNum});
    json.set("max_expansion_den", u64{caps.maxExpansionDen});
    json.set("max_expansion_slop", u64{caps.maxExpansionSlop});
    json.set("incremental_compress", caps.incrementalCompress);
    json.set("incremental_decompress", caps.incrementalDecompress);
    json.set("streaming_shares_buffer_format",
             caps.streamingSharesBufferFormat);
    json.set("is_pipeline", caps.isPipeline);
    if (caps.isPipeline) {
        json.set("terminal", codec::codecName(codec::toCodecId(
                                 caps.terminal)));
        obs::JsonValue stages = obs::JsonValue::array();
        for (transform::StageId stage : caps.stages)
            stages.push(obs::JsonValue(transform::stageName(stage)));
        json.set("stages", std::move(stages));
    }
    return json;
}

/**
 * ISO-8601 UTC wall-clock stamp. Honesty field for committed bench
 * records: steady-clock durations say how long a run took, but only
 * wall-clock endpoints say *when* it ran — a record regenerated months
 * after the code changed is a stale claim, and the timestamps make
 * that checkable.
 */
inline std::string
wallClockUtc()
{
    const std::time_t now = std::chrono::system_clock::to_time_t(
        std::chrono::system_clock::now());
    std::tm parts{};
    gmtime_r(&now, &parts);
    char buffer[32];
    std::strftime(buffer, sizeof buffer, "%Y-%m-%dT%H:%M:%SZ", &parts);
    return buffer;
}

/** Prints the standard bench banner. */
inline void
banner(const std::string &title, const std::string &paper_reference)
{
    std::printf("=======================================================\n");
    std::printf("%s\n", title.c_str());
    std::printf("Reproduces: %s\n", paper_reference.c_str());
    std::printf("=======================================================\n");
}

/** Standard suite configuration, overridable via --files / --cap. */
inline hcb::SuiteConfig
suiteConfigFromArgs(int argc, const char *const *argv)
{
    CliArgs args;
    hcb::SuiteConfig config;
    if (args.parse(argc, argv, {"files", "cap", "seed", "json"})) {
        config.filesPerSuite =
            static_cast<std::size_t>(args.getInt("files", 48));
        config.maxFileBytes = static_cast<std::size_t>(
            args.getInt("cap", static_cast<i64>(2 * kMiB)));
        config.seed = static_cast<u64>(args.getInt("seed", 2023));
    }
    return config;
}

/**
 * Machine-readable telemetry record for one bench run.
 *
 * Scans argv itself for `--json <path>` / `--json=<path>` so binaries
 * that do not otherwise parse flags still emit telemetry. write() is a
 * no-op when the flag is absent, so mains call it unconditionally.
 */
class BenchReport
{
  public:
    BenchReport(std::string benchmark_id, int argc,
                const char *const *argv)
        : id_(std::move(benchmark_id))
    {
        for (int i = 1; i < argc; ++i) {
            std::string arg = argv[i];
            if (arg.rfind("--json=", 0) == 0)
                path_ = arg.substr(7);
            else if (arg == "--json" && i + 1 < argc)
                path_ = argv[++i];
        }
    }

    bool enabled() const { return !path_.empty(); }
    const std::string &path() const { return path_; }

    /** Records a configuration input (suite size, placement, ...). */
    void
    config(const std::string &key, obs::JsonValue value)
    {
        config_.set(key, std::move(value));
    }

    /** Records a measured output (throughput, speedup, cycles, ...). */
    void
    metric(const std::string &key, obs::JsonValue value)
    {
        metrics_.set(key, std::move(value));
    }

    /** Accumulates a PU counter snapshot into the record. */
    void
    counters(const obs::CounterSnapshot &snapshot)
    {
        counters_.merge(snapshot);
    }

    /** Writes the record to --json's path (no-op without the flag). */
    Status
    write() const
    {
        if (!enabled())
            return Status::okStatus();
        obs::JsonValue record = obs::JsonValue::object();
        record.set("benchmark", id_);
        record.set("schema_version", u64{1});
        record.set("config", config_);
        record.set("metrics", metrics_);
        obs::JsonValue snapshot_json = counters_.toJson();
        record.set("counters", snapshot_json.at("counters"));
        record.set("histograms", snapshot_json.at("histograms"));
        std::ofstream out(path_, std::ios::binary);
        if (!out)
            return Status::io("cannot open report file: " + path_);
        out << record.dump(1) << '\n';
        if (!out)
            return Status::io("short write to report file: " + path_);
        std::printf("\n[telemetry] wrote %s\n", path_.c_str());
        return Status::okStatus();
    }

  private:
    std::string id_;
    std::string path_;
    obs::JsonValue config_ = obs::JsonValue::object();
    obs::JsonValue metrics_ = obs::JsonValue::object();
    obs::CounterSnapshot counters_;
};

// --- Worker-count sweeps (bench_scaling) ---------------------------------

/** Rounds per sweep point. A round runs every point once, so slow drift
 *  of a shared host spreads over all points instead of biasing one. */
inline constexpr int kScalingRounds = 5;

/** The 1, 2, 4, ... worker ladder, ending at @p max_workers. */
inline std::vector<unsigned>
workerLadder(unsigned max_workers)
{
    max_workers = std::max(1u, max_workers);
    std::vector<unsigned> ladder;
    for (unsigned workers = 1; workers < max_workers; workers *= 2)
        ladder.push_back(workers);
    ladder.push_back(max_workers);
    return ladder;
}

/** Median, minimum and interquartile range of one point's rounds. */
struct Spread
{
    double median = 0.0;
    double min = 0.0;
    double iqr = 0.0;
};

/** Quartiles are linearly interpolated between order statistics. */
inline Spread
spreadOf(std::vector<double> samples)
{
    Spread spread;
    if (samples.empty())
        return spread;
    std::sort(samples.begin(), samples.end());
    auto quantile = [&](double q) {
        const double rank = q * static_cast<double>(samples.size() - 1);
        const auto lo = static_cast<std::size_t>(rank);
        const std::size_t hi = std::min(lo + 1, samples.size() - 1);
        return samples[lo] +
               (samples[hi] - samples[lo]) *
                   (rank - static_cast<double>(lo));
    };
    spread.median = quantile(0.5);
    spread.min = samples.front();
    spread.iqr = quantile(0.75) - quantile(0.25);
    return spread;
}

/**
 * Threads' worth of work the host runs at once, measured rather than
 * read from nproc: a calibrated ~100 ms integer spin on one thread and
 * on @p threads threads together, threads * t(1) / t(threads), median
 * of three (the same method as perfbench's probe). A shared or
 * throttled host reads below its nproc.
 */
inline double
probeParallelism(unsigned threads)
{
    threads = std::max(1u, threads);
    auto spin = [](u64 iterations) {
        const auto start = std::chrono::steady_clock::now();
        u64 x = 0x9e3779b97f4a7c15ull;
        for (u64 i = 0; i < iterations; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        volatile u64 sink = x;
        (void)sink;
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    u64 iterations = u64{1} << 18;
    double seconds = spin(iterations);
    while (seconds < 0.01) {
        iterations *= 2;
        seconds = spin(iterations);
    }
    iterations = static_cast<u64>(static_cast<double>(iterations) * 0.1 /
                                  seconds);
    std::vector<double> one, all;
    for (int rep = 0; rep < 3; ++rep) {
        one.push_back(spin(iterations));
        const auto start = std::chrono::steady_clock::now();
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < threads; ++t)
            pool.emplace_back([&] { spin(iterations); });
        for (std::thread &thread : pool)
            thread.join();
        all.push_back(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
    }
    return threads * spreadOf(one).median / spreadOf(all).median;
}

/** A point asked for more parallelism than the probe saw delivered
 *  (under 80% of one thread per worker): its scaling is time-slicing. */
inline bool
coreBound(unsigned workers, double parallelism)
{
    return parallelism < 0.8 * workers;
}

/** One sweep point: per-round throughput, the latency histogram merged
 *  over its rounds (empty when the mode has none), and mode fields
 *  copied into its record (a field set every round keeps the last). */
struct SweepPoint
{
    std::string label;
    unsigned workers = 1;
    std::vector<double> mbPerSec;
    obs::HistogramSnapshot latency;
    obs::JsonValue fields = obs::JsonValue::object();
};

/**
 * The speedup headline of one sweep. Both throughput endpoints are
 * always reported: mb_per_sec_1w, the best 1-worker median, and
 * mb_per_sec_best, the best median of any point. speedup_best is the
 * best median among points with >= 2 workers that are not core-bound,
 * over mb_per_sec_1w; with no such point the section says
 * core_bound: true and makes no speedup claim.
 */
inline void
scalingHeadline(obs::JsonValue &section,
                const std::vector<SweepPoint> &points, double parallelism)
{
    double one_worker = 0.0, best = 0.0, best_scaled = 0.0;
    bool scaled = false;
    for (const SweepPoint &point : points) {
        const double median = spreadOf(point.mbPerSec).median;
        best = std::max(best, median);
        if (point.workers == 1) {
            one_worker = std::max(one_worker, median);
        } else if (!coreBound(point.workers, parallelism)) {
            best_scaled = std::max(best_scaled, median);
            scaled = true;
        }
    }
    section.set("mb_per_sec_1w", one_worker);
    section.set("mb_per_sec_best", best);
    section.set("core_bound", !scaled);
    if (scaled)
        section.set("speedup_best", best_scaled / one_worker);
}

/**
 * Runs one sweep: probes the host's parallelism at @p probe_threads,
 * calls @p run_round(round) kScalingRounds times (each call runs every
 * point once and returns false when a differential gate fails, which
 * ends the sweep), probes again, and summarizes @p points into a
 * section of the record. P, the smaller probe reading, decides which
 * points are core-bound. Prints the sweep's table.
 */
template <typename RunRound>
bool
runSweep(const char *title, unsigned probe_threads,
         const std::vector<SweepPoint> &points, RunRound run_round,
         obs::JsonValue &section)
{
    const double before = probeParallelism(probe_threads);
    for (int round = 0; round < kScalingRounds; ++round) {
        if (!run_round(round))
            return false;
    }
    const double after = probeParallelism(probe_threads);
    const double parallelism = std::min(before, after);

    section.set("probe_threads", u64{probe_threads});
    section.set("parallelism_before", before);
    section.set("parallelism_after", after);
    section.set("rounds", u64{kScalingRounds});
    std::printf("\n== %s: parallelism %.2f before, %.2f after, of %u "
                "threads ==\n",
                title, before, after, probe_threads);
    TablePrinter table({"point", "workers", "MB/s", "min", "IQR",
                        "p50(us)", "p99(us)", "p99.9(us)", "bound"});
    obs::JsonValue sweep = obs::JsonValue::array();
    for (const SweepPoint &point : points) {
        const Spread spread = spreadOf(point.mbPerSec);
        const bool bound = coreBound(point.workers, parallelism);
        obs::JsonValue json = obs::JsonValue::object();
        for (const auto &[key, value] : point.fields.members())
            json.set(key, value);
        json.set("workers", u64{point.workers});
        json.set("core_bound", bound);
        json.set("mb_per_sec", spread.median);
        json.set("mb_per_sec_min", spread.min);
        json.set("mb_per_sec_iqr", spread.iqr);
        std::vector<std::string> row = {
            point.label, std::to_string(point.workers),
            TablePrinter::num(spread.median, 1),
            TablePrinter::num(spread.min, 1),
            TablePrinter::num(spread.iqr, 1)};
        for (const auto &[key, q] :
             {std::pair{"latency_p50_us", 0.50},
              std::pair{"latency_p99_us", 0.99},
              std::pair{"latency_p999_us", 0.999}}) {
            if (point.latency.count == 0) {
                row.push_back("-");
                continue;
            }
            const double us = point.latency.percentile(q) / 1e3;
            json.set(key, us);
            row.push_back(TablePrinter::num(us, 1));
        }
        // The whole histogram too, so obsctl can validate what the flat
        // percentiles above were read from.
        if (point.latency.count != 0)
            json.set("latency_ns", point.latency.toJson());
        row.push_back(bound ? "core" : "");
        table.addRow(std::move(row));
        sweep.push(std::move(json));
    }
    std::printf("%s", table.render().c_str());
    section.set("sweep", std::move(sweep));
    scalingHeadline(section, points, parallelism);
    if (section.has("speedup_best"))
        std::printf("best speedup over 1 worker: %.2fx\n",
                    section.at("speedup_best").asDouble());
    else
        std::printf("core-bound: no point with >= 2 workers got its "
                    "threads, so no speedup claim\n");
    return true;
}

} // namespace cdpu::bench

#endif // CDPU_BENCH_BENCH_COMMON_H_

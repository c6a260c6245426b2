#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>

#include "common/kernels.h"
#include "corpus/generators.h"
#include "drivers.h"
#include "obs/json.h"
#include "probes.h"

namespace perfbench
{

using namespace cdpu;

namespace
{

/** Set-ups per untraced run; setup_s is their median. */
constexpr int kSetupRepeats = 5;

/** End-to-end view of one measurement. */
struct Measured
{
    u64 attempted = 0;
    u64 failed = 0;
    double callsPerS = 0;
    double mbPerS = 0;
    double cpuNsPerByte = 0;
    std::vector<double> latencyUs;
    std::vector<double> windowP50Us;
    std::vector<double> windowP99Us;
    std::vector<double> windowLagUs;
    std::vector<double> intervalCallsPerS;
};

/** Throughput and CPU from @p throughput, latency from @p latency. */
Measured
combine(const PhaseResult &throughput, const PhaseResult &latency,
        bool same_phase)
{
    Measured m;
    m.attempted = throughput.attempted + (same_phase ? 0 : latency.attempted);
    m.failed = throughput.failed + (same_phase ? 0 : latency.failed);
    m.callsPerS = median(throughput.callsPerS);
    m.mbPerS = median(throughput.mbPerS);
    m.cpuNsPerByte = median(throughput.cpuNsPerByte);
    m.latencyUs = latency.latencyUs;
    m.windowP50Us = latency.windowP50Us;
    m.windowP99Us = latency.windowP99Us;
    m.windowLagUs = latency.windowLagUs;
    m.intervalCallsPerS = throughput.callsPerS;
    return m;
}

/** Indices of the half of the windows (rounded up) in which the
 *  open-loop generator ran least late, ties in window order. */
std::vector<std::size_t>
quietWindows(const std::vector<double> &lag_us)
{
    std::vector<std::size_t> order(lag_us.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return lag_us[a] < lag_us[b];
                     });
    order.resize((order.size() + 1) / 2);
    return order;
}

std::vector<double>
spanUs(const Tracer &tracer, const char *name)
{
    std::vector<double> us;
    for (const Span &span : tracer.spans(name))
        us.push_back(span.us());
    return us;
}

void
addKernelMetrics(const mem::KernelStats &k, u64 raw_bytes, MetricSet &out)
{
    u64 hashes = 0, huff = 0;
    for (unsigned t = 0; t < kernels::kNumTiers; ++t) {
        hashes += k.tierHashPositions[t];
        huff += k.tierHuffSymbols[t];
    }
    const double raw = static_cast<double>(std::max<u64>(raw_bytes, 1));
    out.add("kernel.wild_copy_bytes", static_cast<double>(k.wildCopyBytes) / raw,
            "count/B");
    out.add("kernel.match_word_compares",
            static_cast<double>(k.matchWordCompares) / raw, "count/B");
    out.add("kernel.hash_positions", static_cast<double>(hashes) / raw,
            "count/B");
    out.add("kernel.huff_symbols", static_cast<double>(huff) / raw, "count/B");
    out.add("kernel.tier", kernels::activeTierIndex(), "index");
    out.add("kernel.detected_tier",
            static_cast<double>(kernels::detectedTier()), "index");
}

class Workload
{
  public:
    virtual ~Workload() = default;
    /** One timed measurement of @p seconds; every output verified. */
    virtual Measured measure(double seconds, Tracer *tracer) = 0;
    virtual double compressionRatio() const = 0;
    /** Per-layer metrics of this driver, after a traced measure(). */
    virtual void layerMetrics(Tracer &tracer, MetricSet &out) = 0;
    /** Fast-path counters of one pass and its uncompressed bytes, when
     *  the driver can see them (the daemon's workers are out of reach). */
    virtual const mem::KernelStats *kernel(u64 &) const { return nullptr; }
};

class DaemonWorkload final : public Workload
{
  public:
    /** @p rate 0 sets phase B at half of phase A's measured rate. */
    DaemonWorkload(const CallSet &calls, double rate)
        : calls_(calls), rate_(rate)
    {}

    Status start(const std::string &socket_path)
    {
        return driver_.start(calls_, socket_path);
    }

    /** Alternates phase A and phase B in rounds of ~2.5 s, so both
     *  phases sample the whole run: a stretch of host contention then
     *  hits a share of each phase's windows instead of all of one. */
    Measured
    measure(double seconds, Tracer *tracer) override
    {
        const int rounds = std::max(1, static_cast<int>(seconds / 2.5));
        const double half = seconds / (2 * rounds);
        PhaseResult a, b;
        for (int r = 0; r < rounds; ++r) {
            a.merge(driver_.closedLoop(half, tracer));
            const double rate = rate_ > 0
                                    ? rate_
                                    : std::max(10.0, 0.5 * median(a.callsPerS));
            b.merge(driver_.openLoop(half, rate, tracer));
        }
        lagUs_ = b.lagUs;
        return combine(a, b, false);
    }

    double compressionRatio() const override
    {
        return calls_.compressionRatio();
    }

    void
    layerMetrics(Tracer &tracer, MetricSet &out) override
    {
        const Summary send = summarize(spanUs(tracer, "client.send"));
        out.add("client.send_us.p50", send.p50, "us");
        out.add("client.send_us.p99", send.p99, "us");

        std::vector<double> service, overhead, rtt;
        double service_sum = 0, rtt_sum = 0;
        for (const Span &span : tracer.spans("daemon.call")) {
            const double service_us = static_cast<double>(span.arg) / 1e3;
            service.push_back(service_us);
            rtt.push_back(span.us());
            overhead.push_back(span.us() - service_us);
            service_sum += service_us;
            rtt_sum += span.us();
        }
        const Summary s = summarize(service), o = summarize(overhead),
                      r = summarize(rtt);
        out.add("daemon.service_us.p50", s.p50, "us");
        out.add("daemon.service_us.p99", s.p99, "us");
        out.add("daemon.overhead_us.p50", o.p50, "us");
        out.add("daemon.overhead_us.p99", o.p99, "us");
        out.add("daemon.rtt_us.p50", r.p50, "us");
        // Service and overhead medians against the round-trip median:
        // the share of the median call the two layers leave unexplained.
        out.add("daemon.unattributed_frac",
                r.p50 > 0 ? (r.p50 - s.p50 - o.p50) / r.p50 : 0.0, "frac");
        out.add("daemon.codec_share", rtt_sum > 0 ? service_sum / rtt_sum : 0,
                "frac");
        out.add("daemon.threads", driver_.peakThreads(), "count");
        out.add("daemon.rejects", static_cast<double>(driver_.rejects()),
                "count");
        out.add("loadgen.lag_p99_us", summarize(lagUs_).p99, "us");
    }

  private:
    const CallSet &calls_;
    double rate_;
    DaemonDriver driver_;
    std::vector<double> lagUs_;
};

class ReplayWorkload final : public Workload
{
  public:
    explicit ReplayWorkload(const CallSet &calls)
        : calls_(calls), driver_(calls)
    {}

    Measured
    measure(double seconds, Tracer *tracer) override
    {
        const PhaseResult r = driver_.run(seconds, tracer);
        return combine(r, r, true);
    }

    double compressionRatio() const override
    {
        return calls_.compressionRatio();
    }

    void
    layerMetrics(Tracer &tracer, MetricSet &out) override
    {
        const double replay_s = median(spanUs(tracer, "engine.run")) / 1e6;
        const double sequential_s = driver_.sequentialSeconds();
        out.add("engine.efficiency",
                replay_s > 0 ? sequential_s /
                                   (replay_s * EngineDriver::kWorkers)
                             : 0.0,
                "frac");
        const double replays =
            static_cast<double>(std::max<std::size_t>(driver_.replays, 1));
        out.add("engine.steals", static_cast<double>(driver_.steals) / replays,
                "count");
        out.add("engine.batches",
                static_cast<double>(driver_.batches) / replays, "count");
    }

    const mem::KernelStats *
    kernel(u64 &raw) const override
    {
        raw = driver_.kernelRawBytes;
        return &driver_.kernel;
    }

  private:
    const CallSet &calls_;
    EngineDriver driver_;
};

class ContainerWorkload final : public Workload
{
  public:
    Status write(std::vector<Bytes> inputs, std::size_t block_bytes)
    {
        return driver_.write(std::move(inputs), block_bytes);
    }

    Measured
    measure(double seconds, Tracer *tracer) override
    {
        const PhaseResult r = driver_.decode(seconds, tracer);
        decodes_ = r.calls;
        return combine(r, r, true);
    }

    double compressionRatio() const override
    {
        return driver_.compressionRatio();
    }

    void
    layerMetrics(Tracer &tracer, MetricSet &out) override
    {
        driver_.probeLayers(tracer);
        out.add("container.parse_index_us",
                median(spanUs(tracer, "container.parse_index")), "us");
        out.add("container.seq_ns_per_byte",
                medianNsPerUnit(tracer, "container.decode_seq"), "ns/B");
        out.add("container.par_efficiency", driver_.parEfficiency, "frac");
        out.add("container.spawn_us", driver_.spawnUs, "us");
        out.add("container.steals",
                static_cast<double>(driver_.steals) /
                    static_cast<double>(std::max<u64>(decodes_, 1)),
                "count");
        out.add("container.write_ns_per_byte",
                driver_.writeSeconds * 1e9 /
                    static_cast<double>(std::max<u64>(driver_.writeBytes, 1)),
                "ns/B");
    }

    const mem::KernelStats *
    kernel(u64 &raw) const override
    {
        raw = driver_.kernelRawBytes;
        return &driver_.kernel;
    }

    Result<CallSet> blockCalls() const { return driver_.blockCalls(); }

  private:
    ContainerDriver driver_;
    u64 decodes_ = 0;
};

/** @p set's uncompressed bytes (up to @p cap) cut into four inputs. */
std::vector<Bytes>
containerInputs(const CallSet &set, std::size_t cap)
{
    Bytes all;
    for (const Bytes &piece : set.rawPieces(cap))
        all.insert(all.end(), piece.begin(), piece.end());
    std::vector<Bytes> inputs;
    const std::size_t part = (all.size() + 3) / 4;
    for (std::size_t at = 0; at < all.size(); at += part)
        inputs.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(at),
                            all.begin() + static_cast<std::ptrdiff_t>(
                                              std::min(all.size(), at + part)));
    return inputs;
}

struct Setup
{
    std::unique_ptr<CallSet> calls; ///< Daemon and replay workloads.
    std::unique_ptr<Workload> workload;
    ContainerWorkload *container = nullptr; ///< container-decode only.
};

Result<Setup>
setUp(const RunOptions &o, const std::string &socket_path)
{
    Setup s;
    if (o.workload == "daemon-small-mix") {
        auto calls = buildFleetMix(o.seed, o.tiny ? 128 : 8192, 4 * kKiB);
        if (!calls.ok())
            return calls.status();
        s.calls = std::make_unique<CallSet>(std::move(calls.value()));
        auto w = std::make_unique<DaemonWorkload>(
            *s.calls, o.tiny ? 0.0 : kDaemonOpenLoopRate);
        CDPU_RETURN_IF_ERROR(w->start(socket_path));
        s.workload = std::move(w);
    } else if (o.workload == "replay-bulk-mix") {
        auto calls = buildBulkMix(o.seed, o.tiny ? 16 : 1);
        if (!calls.ok())
            return calls.status();
        s.calls = std::make_unique<CallSet>(std::move(calls.value()));
        s.workload = std::make_unique<ReplayWorkload>(*s.calls);
    } else {
        Rng rng(o.seed);
        std::vector<Bytes> inputs;
        for (int i = 0; i < 4; ++i)
            inputs.push_back(
                corpus::generateMixed(o.tiny ? 256 * kKiB : 8 * kMiB, rng));
        auto w = std::make_unique<ContainerWorkload>();
        CDPU_RETURN_IF_ERROR(
            w->write(std::move(inputs), o.tiny ? 64 * kKiB : 128 * kKiB));
        s.container = w.get();
        s.workload = std::move(w);
    }
    return s;
}

unsigned
threadsOf(const std::string &workload)
{
    // Daemon: two workers plus two client connections.
    return workload == "daemon-small-mix"
               ? DaemonDriver::kWorkers + DaemonDriver::kConnections
               : EngineDriver::kWorkers;
}

std::string
format(const char *fmt, double a, double b = 0, double c = 0, double d = 0,
       double e = 0)
{
    char line[512];
    std::snprintf(line, sizeof(line), fmt, a, b, c, d, e);
    return line;
}

std::string
probeNote(const char *when, const ParallelismProbe &p)
{
    return std::string("host: parallelism probe ") + when +
           format(": 1 thread %.4f s, %.0f threads %.4f s, effective %.2f",
                  p.oneThreadSeconds, p.threads, p.allThreadsSeconds,
                  p.effective);
}

/** The traced run: the per-layer metrics of every layer on this
 *  workload's calls. */
Status
traceLayers(const RunOptions &o, Setup &s, const std::string &socket_path,
            RunOutcome &out)
{
    Tracer tracer;
    const double half = o.seconds / 2;
    const Measured plain = s.workload->measure(half, nullptr);
    const Measured traced = s.workload->measure(half, &tracer);
    out.attempted += plain.attempted + traced.attempted;
    out.failed += plain.failed + traced.failed;
    s.workload->layerMetrics(tracer, out.metrics);

    std::unique_ptr<CallSet> block_calls;
    if (s.container) {
        auto blocks = s.container->blockCalls();
        if (!blocks.ok())
            return blocks.status();
        block_calls = std::make_unique<CallSet>(std::move(blocks.value()));
    }
    const CallSet &calls = s.calls ? *s.calls : *block_calls;

    // The two drivers this workload does not use, briefly, on its calls.
    const double probe_s = o.tiny ? 0.4 : 1.5;
    auto run_probe = [&](Workload &w) {
        const Measured m = w.measure(probe_s, &tracer);
        out.attempted += m.attempted;
        out.failed += m.failed;
        w.layerMetrics(tracer, out.metrics);
    };
    std::unique_ptr<ReplayWorkload> replay;
    if (o.workload != "daemon-small-mix") {
        DaemonWorkload daemon(calls, 0.0);
        CDPU_RETURN_IF_ERROR(daemon.start(socket_path));
        run_probe(daemon);
    }
    if (o.workload != "replay-bulk-mix") {
        replay = std::make_unique<ReplayWorkload>(calls);
        run_probe(*replay);
    }
    if (o.workload != "container-decode") {
        ContainerWorkload container;
        CDPU_RETURN_IF_ERROR(container.write(
            containerInputs(calls, o.tiny ? 256 * kKiB : 4 * kMiB),
            o.tiny ? 16 * kKiB : 128 * kKiB));
        run_probe(container);
    }

    probeWire(calls, tracer, out.metrics);
    probeQueue(tracer, out.metrics);
    probeObs(calls, tracer, out.metrics);
    probeCodecs(calls, tracer, out.metrics);
    probeTransforms(calls, tracer, out.metrics);

    u64 raw = 0;
    const mem::KernelStats *kernel = s.workload->kernel(raw);
    if (!kernel)
        kernel = replay->kernel(raw);
    addKernelMetrics(*kernel, raw, out.metrics);

    out.metrics.add("trace.overhead_frac",
                    plain.callsPerS > 0
                        ? 1.0 - traced.callsPerS / plain.callsPerS
                        : 0.0,
                    "frac");
    const std::string path = o.outDir + "/trace-" + o.workload + "-" +
                             std::to_string(o.seed) + ".json";
    if (!tracer.writeChromeTrace(path))
        return Status::io("cannot write " + path);
    out.notes.push_back("trace: " + std::to_string(tracer.spanCount()) +
                        " spans written to " + path);
    return Status::okStatus();
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "daemon-small-mix", "replay-bulk-mix", "container-decode"};
    return names;
}

Result<RunOutcome>
runWorkload(const RunOptions &o)
{
    const auto &names = workloadNames();
    if (std::find(names.begin(), names.end(), o.workload) == names.end())
        return Status::invalid("unknown workload " + o.workload);
    std::error_code ec;
    std::filesystem::create_directories(o.outDir, ec);
    if (ec)
        return Status::io("cannot create " + o.outDir);
    const std::string socket_path =
        o.outDir + "/daemon-" + std::to_string(::getpid()) + ".sock";

    RunOutcome out;
    const HostFacts facts = hostFacts();
    const unsigned threads = threadsOf(o.workload);
    const ParallelismProbe before = probeParallelism(threads);

    Setup s;
    std::vector<double> setup_s;
    for (int k = 0; k < (o.trace ? 1 : kSetupRepeats); ++k) {
        s = Setup{};
        const auto start = Clock::now();
        auto made = setUp(o, socket_path);
        setup_s.push_back(secondsSince(start));
        if (!made.ok())
            return made.status();
        s = std::move(made.value());
    }

    // Warm-up: caches, codec scratch buffers and the daemon's queues.
    const Measured warm = s.workload->measure(o.tiny ? 0.2 : 1.0, nullptr);
    out.attempted += warm.attempted;
    out.failed += warm.failed;

    bool consistent = true;
    if (o.trace) {
        CDPU_RETURN_IF_ERROR(traceLayers(o, s, socket_path, out));
    } else {
        const Measured m = s.workload->measure(o.seconds, nullptr);
        out.attempted += m.attempted;
        out.failed += m.failed;
        const Summary lat = summarize(m.latencyUs);
        // Where the phase has time windows, the reported quantiles are
        // medians of each window's exact quantile over the half of the
        // windows in which the generator ran least late. The generator's
        // lag gauges how much the host took away during the window, so
        // stretches of contention from outside fall out of the result.
        const bool windowed = !m.windowP99Us.empty();
        const std::vector<std::size_t> quiet = quietWindows(m.windowLagUs);
        std::vector<double> quiet_p50, quiet_p99, quiet_lag;
        for (std::size_t i : quiet) {
            quiet_p50.push_back(m.windowP50Us[i]);
            quiet_p99.push_back(m.windowP99Us[i]);
            quiet_lag.push_back(m.windowLagUs[i]);
        }
        const double p50 = windowed ? median(quiet_p50) : lat.p50;
        const double p99 = windowed ? median(quiet_p99) : lat.p99;
        consistent = lat.consistent() && lat.n > 0 && p50 <= p99 &&
                     p99 <= lat.max;
        out.metrics.add("setup_s", median(setup_s), "s");
        out.metrics.add("calls_per_s", m.callsPerS, "1/s");
        out.metrics.add("mb_per_s", m.mbPerS, "MB/s");
        out.metrics.add("latency_p50_us", p50, "us");
        out.metrics.add("latency_p99_us", p99, "us");
        out.metrics.add("cpu_ns_per_byte", m.cpuNsPerByte, "ns/B");
        out.metrics.add("compression_ratio", s.workload->compressionRatio(),
                        "ratio");
        out.metrics.add("peak_rss_mib", peakRssMiB(), "MiB");
        std::vector<double> rates = m.intervalCallsPerS;
        std::sort(rates.begin(), rates.end());
        out.notes.push_back(format(
            "throughput: %.0f intervals, calls/s min %.0f, p25 %.0f, "
            "median %.0f, max %.0f",
            static_cast<double>(rates.size()), quantileSorted(rates, 0),
            quantileSorted(rates, 0.25), quantileSorted(rates, 0.5),
            quantileSorted(rates, 1)));
        out.notes.push_back(
            format("latency: %.0f samples, p50 %.1f us, p99 %.1f us, "
                   "max %.1f us",
                   static_cast<double>(lat.n), lat.p50, lat.p99, lat.max));
        out.notes.push_back(format(
            "latency: highest quantile with >= 10 samples beyond it: "
            "q=%.4f -> %.1f us",
            lat.tailQ, lat.tailValue));
        if (windowed)
            out.notes.push_back(format(
                "latency: reported p50/p99 are medians of each window's "
                "exact quantile over the %.0f of %.0f windows of 250 ms in "
                "which the generator ran least late (lag p99 up to %.1f us; "
                "median over all windows: p99 %.1f us)",
                static_cast<double>(quiet.size()),
                static_cast<double>(m.windowP99Us.size()),
                *std::max_element(quiet_lag.begin(), quiet_lag.end()),
                median(m.windowP99Us)));
        if (lat.tailQ < 0.99)
            out.notes.push_back("latency: too few samples for a p99 with "
                                "10 samples beyond it");
        out.notes.push_back(format("error_rate: %.6f (%.0f of %.0f calls)",
                                   out.attempted ? static_cast<double>(out.failed) /
                                                       static_cast<double>(out.attempted)
                                                 : 0.0,
                                   static_cast<double>(out.failed),
                                   static_cast<double>(out.attempted)));
    }

    const ParallelismProbe after = probeParallelism(threads);
    if (o.trace) {
        out.metrics.add("host.parallelism_before", before.effective, "threads");
        out.metrics.add("host.parallelism_after", after.effective, "threads");
        out.metrics.add("host.nproc", facts.nproc, "count");
    }
    out.notes.push_back("host: nproc " + std::to_string(facts.nproc) +
                        ", SIMD tier detected " + facts.detectedTier +
                        ", active " + facts.activeTier + "; " +
                        facts.cpuFeatures);
    out.notes.push_back(probeNote("before", before));
    out.notes.push_back(probeNote("after", after));
    if (!hostDelivered(before) || !hostDelivered(after))
        out.notes.push_back(
            "HOST-FLAG: the host did not deliver the " +
            std::to_string(threads) +
            " threads this workload uses; figures from this run are "
            "suspect");
    out.correct = out.failed == 0 && out.attempted > 0 && consistent;

    // Host facts and the result, kept beside the trace for later runs.
    obs::JsonValue record = obs::JsonValue::object();
    record.set("workload", o.workload);
    record.set("seed", o.seed);
    record.set("trace", o.trace);
    obs::JsonValue notes = obs::JsonValue::array();
    for (const std::string &note : out.notes)
        notes.push(note);
    record.set("notes", std::move(notes));
    obs::JsonValue metrics = obs::JsonValue::object();
    for (const Metric &metric : out.metrics.items())
        metrics.set(metric.name, metric.value);
    record.set("metrics", std::move(metrics));
    const std::string path = o.outDir + "/run-" + o.workload + "-" +
                             std::to_string(o.seed) + "-t" +
                             (o.trace ? "1" : "0") + ".json";
    std::ofstream(path) << record.dump(1) << '\n';
    return out;
}

} // namespace perfbench

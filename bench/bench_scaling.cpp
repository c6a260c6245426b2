/**
 * @file
 * Worker-count scaling of the three parallel paths, on one harness.
 *
 *  - replay: one mixed-codec call stream through serve::ReplayEngine —
 *    the software side of the paper's Section 3 serving analysis:
 *    (de)compression capacity scales with the cores thrown at
 *    independent calls, which is the capacity a CDPU returns to the
 *    application.
 *  - daemon: the same kind of stream over a unix socket to a real
 *    cdpud Daemon (wire framing, block admission, the sharded queue)
 *    from closed-loop client connections. Latency is the daemon's own
 *    serve.latency_ns (admission to response ready to write), and the
 *    widest point's drained histograms feed an SLO scorecard.
 *  - container: container::decodeParallel over every codec x block
 *    size (16 KiB, 128 KiB, 1 MiB) of one mixed-class input — how small
 *    blocks can get before per-block overhead eats the parallelism —
 *    plus the multi-PU sim leg (Section 5.8): per-block cycle costs
 *    from the real PU models, scheduled by sim::simulateContainerDecode.
 *
 * Every point runs its differential gate in every round, before any
 * timing is reported, and the binary exits 1 on a divergence: replay
 * outputs and work counters must match replaySequential, every daemon
 * response must equal a local registry execution with executed ==
 * plan, and container bytes and work counters must match
 * decodeSequential. The harness (bench_common.h) brackets each sweep
 * with the parallelism probe, so speedup_best is claimed only over
 * points the host actually gave their threads.
 *
 * Flags: --mode replay|daemon|container|all (default all), --calls N
 * (replay 192, daemon 96), --bytes N (container input, 4 MiB),
 * --workers MAX (replay and container 8, daemon 4), --connections C
 * (daemon, 3), --codec NAME (one registry codec in every mode instead
 * of all), --telemetry (replay: an obs::Telemetry hub on every run,
 * spans 1 in 64 and metrics every 32 calls; the final round's widest
 * point lands in the record with its SLO scorecard; CI's overhead
 * guard compares runs with and without it), --json PATH.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_common.h"
#include "cdpu/flate_pu.h"
#include "cdpu/snappy_pu.h"
#include "cdpu/zstd_pu.h"
#include "codec/obs_bridge.h"
#include "common/kernels.h"
#include "container/container.h"
#include "corpus/generators.h"
#include "obs/slo.h"
#include "serve/client.h"
#include "serve/codec_context.h"
#include "serve/daemon.h"
#include "serve/engine.h"
#include "serve/stream_builder.h"
#include "sim/container_scenario.h"

namespace cdpu
{
namespace
{

using bench::SweepPoint;

constexpr u64 kSeed = 2023;

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

bool
fail(const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    return false;
}

std::vector<SweepPoint>
ladderPoints(const CliArgs &args, i64 default_workers,
             const std::string &label)
{
    std::vector<SweepPoint> points;
    for (unsigned workers : bench::workerLadder(static_cast<unsigned>(
             args.getInt("workers", default_workers)))) {
        SweepPoint point;
        point.label = label;
        point.workers = workers;
        points.push_back(std::move(point));
    }
    return points;
}

/** The scorecard of @p specs, this file's constant SLO targets. */
obs::JsonValue
sloScorecard(const char *specs, const obs::CounterSnapshot &snapshot)
{
    obs::SloTracker slo;
    if (!slo.declareSpecs(specs).ok())
        std::abort();
    return slo.toJson(snapshot).at("slo");
}

Result<hcb::CallStream>
mixedStream(std::size_t calls, std::size_t max_call_bytes,
            const std::vector<codec::CodecId> &codecs)
{
    serve::StreamConfig config;
    config.calls = calls;
    config.maxCallBytes = max_call_bytes;
    config.codecs = codecs;
    config.seed = kSeed;
    return serve::buildMixedStream(config);
}

bool
runReplay(const CliArgs &args, const std::vector<codec::CodecId> &codecs,
          obs::JsonValue &section)
{
    auto stream = mixedStream(
        static_cast<std::size_t>(args.getInt("calls", 192)), 48 * kKiB,
        codecs);
    if (!stream.ok())
        return fail("stream build failed: " + stream.status().message());
    const hcb::CallStream &calls = stream.value();
    const serve::ReplayReport reference = serve::replaySequential(calls);
    if (reference.failed != 0)
        return fail("reference replay had failures");

    const bool telemetry = args.getBool("telemetry", false);
    std::vector<SweepPoint> points = ladderPoints(args, 8, "replay");
    obs::JsonValue telemetry_doc;
    auto run_round = [&](int round) {
        for (SweepPoint &point : points) {
            serve::EngineConfig config;
            config.workers = point.workers;
            std::unique_ptr<obs::Telemetry> hub;
            if (telemetry) {
                obs::TelemetryConfig tc;
                tc.spanSamplePeriod = 64;
                tc.metricsEveryCalls = 32;
                hub = std::make_unique<obs::Telemetry>(
                    tc, point.workers, codec::codecFlightNamer());
                config.telemetry = hub.get();
            }
            serve::ReplayEngine engine(config);
            const serve::ReplayReport run = engine.run(calls);
            bool identical = run.failed == 0 &&
                             run.work.counters == reference.work.counters;
            for (std::size_t i = 0; identical && i < calls.size(); ++i)
                identical = run.outcomes[i].outputHash ==
                            reference.outcomes[i].outputHash;
            if (!identical)
                return fail("replay diverged from replaySequential at " +
                            std::to_string(point.workers) + " workers");

            point.mbPerSec.push_back(static_cast<double>(run.bytesIn()) /
                                     1e6 / run.elapsedSeconds);
            point.latency.merge(run.latency());
            point.fields.set("steals", run.runtime.at("serve.steals"));
            if (!hub)
                continue;
            point.fields.set("spans_sampled", run.spansSampled);
            point.fields.set("metrics_samples", run.metricsSamples);
            if (round + 1 < bench::kScalingRounds ||
                &point != &points.back())
                continue;
            // The final round's widest point becomes the record's
            // telemetry document: spans, the metrics series, the SLO
            // scorecard over dimensioned latency, any fault dump.
            telemetry_doc = obs::JsonValue::object();
            telemetry_doc.set("workers", u64{point.workers});
            telemetry_doc.set("spans", hub->spans().toJson());
            if (run.metricsSamples)
                telemetry_doc.set("metrics_series",
                                  run.metricsSeries.at("metrics_series"));
            obs::CounterSnapshot merged = run.runtime;
            merged.merge(run.work);
            telemetry_doc.set(
                "slo",
                sloScorecard(
                    "any:decompress:p99:0:50ms,any:compress:p99:0:50ms",
                    merged));
            if (hub->hasFaultDump())
                telemetry_doc.set("fault_dump", hub->faultDump());
        }
        return true;
    };

    section.set("calls", u64{calls.size()});
    section.set("payload_bytes", u64{calls.totalPayloadBytes()});
    section.set("seed", kSeed);
    if (!bench::runSweep("replay", points.back().workers, points,
                         run_round, section))
        return false;
    if (telemetry)
        section.set("telemetry", std::move(telemetry_doc));
    return true;
}

struct PlannedCall
{
    serve::WireRequest request;
    Bytes expected;
};

bool
runDaemon(const CliArgs &args, const std::vector<codec::CodecId> &codecs,
          obs::JsonValue &section)
{
    auto stream = mixedStream(
        static_cast<std::size_t>(args.getInt("calls", 96)), 32 * kKiB,
        codecs);
    if (!stream.ok())
        return fail("stream build failed: " + stream.status().message());

    // Plan: one wire request per stream call, expected bytes from a
    // local registry execution of the identical call.
    serve::CodecContext reference;
    std::vector<PlannedCall> plan;
    u64 payload_bytes = 0;
    for (const hcb::ReplayCall &call : stream.value().calls()) {
        PlannedCall planned;
        planned.request.requestId = call.id + 1;
        planned.request.tenantId = call.id % 4;
        planned.request.codecSpec = codec::codecName(call.codec);
        planned.request.direction = call.direction;
        planned.request.level = call.level;
        planned.request.windowLog = call.windowLog;
        planned.request.payload.assign(call.payload.begin(),
                                       call.payload.end());
        payload_bytes += call.payload.size();
        ByteSpan expected;
        Status executed = reference.execute(call, expected);
        if (!executed.ok())
            return fail("reference call " + std::to_string(call.id) +
                        " failed: " + executed.message());
        planned.expected.assign(expected.begin(), expected.end());
        plan.push_back(std::move(planned));
    }

    const std::size_t connections = static_cast<std::size_t>(
        std::max<i64>(1, args.getInt("connections", 3)));
    std::vector<SweepPoint> points = ladderPoints(args, 4, "daemon");
    // The widest point's drained counters over all rounds: the SLO
    // scorecard's input.
    obs::CounterSnapshot widest;
    auto run_round = [&](int) {
        for (SweepPoint &point : points) {
            serve::DaemonConfig config;
            config.unixPath = "/tmp/cdpud-bench-" +
                              std::to_string(::getpid()) + "-" +
                              std::to_string(point.workers) + ".sock";
            config.workers = point.workers;
            serve::Daemon daemon(config);
            Status started = daemon.start();
            if (!started.ok())
                return fail("daemon start: " + started.message());
            std::vector<serve::DaemonClient> clients;
            for (std::size_t c = 0; c < connections; ++c) {
                auto client =
                    serve::DaemonClient::connectToUnix(config.unixPath);
                if (!client.ok())
                    return fail("connect: " + client.status().message());
                clients.push_back(std::move(client.value()));
            }

            std::vector<u64> mismatches(connections, 0);
            std::vector<std::thread> drivers;
            const auto start = std::chrono::steady_clock::now();
            for (std::size_t c = 0; c < connections; ++c) {
                drivers.emplace_back([&, c] {
                    for (std::size_t i = c; i < plan.size();
                         i += connections) {
                        auto response = clients[c].call(plan[i].request);
                        if (!response.ok() ||
                            response.value().code != serve::WireCode::ok ||
                            response.value().payload != plan[i].expected)
                            ++mismatches[c];
                    }
                });
            }
            for (std::thread &driver : drivers)
                driver.join();
            const double seconds = secondsSince(start);
            serve::DaemonReport drained = daemon.drain();
            ::unlink(config.unixPath.c_str());

            u64 point_mismatches = 0;
            for (u64 m : mismatches)
                point_mismatches += m;
            if (drained.executed != plan.size() || point_mismatches != 0)
                return fail("differential gate failed at " +
                            std::to_string(point.workers) + " workers: " +
                            std::to_string(drained.executed) +
                            " executed, " +
                            std::to_string(point_mismatches) +
                            " mismatches");

            point.mbPerSec.push_back(static_cast<double>(payload_bytes) /
                                     1e6 / seconds);
            point.latency.merge(
                drained.runtime.histogramAt("serve.latency_ns"));
            if (&point == &points.back()) {
                widest.merge(drained.runtime);
                widest.merge(drained.work);
            }
        }
        return true;
    };

    section.set("calls", u64{plan.size()});
    section.set("payload_bytes", payload_bytes);
    section.set("seed", kSeed);
    section.set("connections", u64{connections});
    section.set("transport", std::string("unix"));
    section.set("admission", std::string(serve::admissionPolicyName(
                                 serve::DaemonConfig{}.admission)));
    if (!bench::runSweep("daemon", points.back().workers, points,
                         run_round, section))
        return false;
    // Every point passed its gate, so no response mismatched.
    section.set("mismatches", u64{0});
    section.set("slo",
                sloScorecard("any:compress:p99:0:250ms,"
                             "any:decompress:p99:0:250ms",
                             widest));
    return true;
}

/** Per-block decode cycles on the matching CDPU PU model; empty when
 *  no PU decodes this codec (gipfeli and pipelines have no unit). */
std::vector<sim::Tick>
puBlockCycles(codec::CodecId id, const container::FrameIndex &index,
              ByteSpan frame)
{
    std::vector<sim::Tick> cycles;
    hw::CdpuConfig config;
    hw::SnappyDecompressorPU snappy_pu{config};
    hw::ZstdDecompressorPU zstd_pu{config};
    hw::FlateDecompressorPU flate_pu{config};
    for (const container::BlockEntry &entry : index.blocks) {
        ByteSpan block = frame.subspan(
            index.dataStart + static_cast<std::size_t>(entry.offset),
            static_cast<std::size_t>(entry.compSize));
        Result<hw::PuResult> result = [&]() -> Result<hw::PuResult> {
            switch (id) {
              case codec::CodecId::snappy: return snappy_pu.run(block);
              case codec::CodecId::zstdlite: return zstd_pu.run(block);
              case codec::CodecId::flatelite:
                return flate_pu.run(block);
              default:
                return Status::unsupported("no PU for this codec");
            }
        }();
        if (!result.ok())
            return {};
        cycles.push_back(result.value().cycles);
    }
    return cycles;
}

/** One container of the input: a codec at a block size, with the work
 *  counters of its sequential reference decode. */
struct Series
{
    codec::CodecId codec = codec::CodecId::snappy;
    std::size_t blockBytes = 0;
    Bytes frame;
    obs::CounterSnapshot work;
};

/** N CDPU PUs decode each hardware-backed codec's 128 KiB-block
 *  container: per-block costs from the PU models, the schedule from
 *  the sim scenario. Cycle counts, so one run per point. */
obs::JsonValue
simPuLeg(const std::vector<Series> &series)
{
    obs::JsonValue sim_json = obs::JsonValue::array();
    TablePrinter table(
        {"codec", "pus", "makespan", "speedup", "utilization"});
    for (const Series &s : series) {
        if (s.blockBytes != 128 * kKiB)
            continue;
        Result<container::FrameIndex> index = container::parseIndex(s.frame);
        if (!index.ok())
            continue;
        sim::ContainerScenario scenario;
        scenario.blockCycles = puBlockCycles(s.codec, index.value(), s.frame);
        if (scenario.blockCycles.empty())
            continue;
        scenario.dispatchCycles = 64;
        for (unsigned pus = 1; pus <= 16; pus *= 2) {
            scenario.pus = pus;
            const sim::ContainerSimReport report =
                sim::simulateContainerDecode(scenario);
            table.addRow({codec::codecName(s.codec), std::to_string(pus),
                          std::to_string(report.makespan),
                          TablePrinter::num(report.speedup),
                          TablePrinter::num(report.utilization)});
            obs::JsonValue point = obs::JsonValue::object();
            point.set("codec", codec::codecName(s.codec));
            point.set("pus", u64{pus});
            point.set("blocks", u64{scenario.blockCycles.size()});
            point.set("makespan_cycles", u64{report.makespan});
            point.set("speedup", report.speedup);
            point.set("utilization", report.utilization);
            sim_json.push(std::move(point));
        }
    }
    std::printf("\n== multi-PU container decode (sim) ==\n%s",
                table.render().c_str());
    return sim_json;
}

bool
runContainer(const CliArgs &args,
             const std::vector<codec::CodecId> &codecs,
             obs::JsonValue &section)
{
    Rng rng(kSeed);
    const Bytes input = corpus::generateMixed(
        static_cast<std::size_t>(
            args.getInt("bytes", static_cast<i64>(4 * kMiB))),
        rng);

    std::vector<Series> series;
    std::vector<SweepPoint> points;
    for (codec::CodecId id : codecs) {
        for (std::size_t block_bytes : {16 * kKiB, 128 * kKiB, 1 * kMiB}) {
            Series s;
            s.codec = id;
            s.blockBytes = block_bytes;
            container::WriteOptions options;
            options.blockBytes = block_bytes;
            Status written = container::write(id, input, options, s.frame);
            if (!written.ok())
                return fail("write failed: " + written.message());
            Bytes out;
            container::DecodeReport report;
            Status decoded =
                container::decodeSequential(s.frame, out, {}, &report);
            if (!decoded.ok() || out != input)
                return fail("sequential reference diverged: " +
                            decoded.toString());
            s.work = report.work;
            for (SweepPoint &point : ladderPoints(
                     args, 8,
                     codec::codecName(id) + "/" +
                         std::to_string(block_bytes / kKiB) + "K")) {
                point.fields.set("codec", codec::codecName(id));
                point.fields.set("block_bytes", u64{block_bytes});
                point.fields.set("frame_bytes", u64{s.frame.size()});
                points.push_back(std::move(point));
            }
            series.push_back(std::move(s));
        }
    }

    const std::size_t ladder = points.size() / series.size();
    auto run_round = [&](int) {
        for (std::size_t p = 0; p < points.size(); ++p) {
            SweepPoint &point = points[p];
            const Series &s = series[p / ladder];
            Bytes out;
            container::DecodeReport report;
            const auto start = std::chrono::steady_clock::now();
            Status decoded = container::decodeParallel(
                s.frame, point.workers, out, {}, &report);
            const double seconds = secondsSince(start);
            if (!decoded.ok() || out != input ||
                report.work.counters != s.work.counters)
                return fail("parallel decode diverged at " +
                            std::to_string(point.workers) +
                            " workers (" + point.label + ")");
            point.mbPerSec.push_back(static_cast<double>(input.size()) /
                                     1e6 / seconds);
            point.fields.set("blocks", u64{report.blocks});
            point.fields.set("steals",
                             report.runtime.at("container.steals"));
        }
        return true;
    };

    section.set("input_bytes", u64{input.size()});
    section.set("seed", kSeed);
    if (!bench::runSweep("container", points.back().workers, points,
                         run_round, section))
        return false;
    section.set("sim_pus", simPuLeg(series));
    return true;
}

int
run(int argc, char **argv)
{
    CliArgs args;
    if (!args.parse(argc, argv,
                    {"mode", "calls", "bytes", "workers", "connections",
                     "codec", "telemetry", "json"}))
        return 1;
    const std::string mode = args.getString("mode", "all");
    if (mode != "all" && mode != "replay" && mode != "daemon" &&
        mode != "container") {
        std::fprintf(stderr,
                     "--mode %s: expected replay, daemon, container or "
                     "all\n",
                     mode.c_str());
        return 1;
    }
    std::vector<codec::CodecId> codecs = codec::allCodecs();
    const std::string codec_name = args.getString("codec", "");
    if (!codec_name.empty()) {
        auto id = codec::codecFromName(codec_name);
        if (!id.ok()) {
            std::fprintf(stderr, "--codec %s: %s\n", codec_name.c_str(),
                         id.status().message().c_str());
            return 1;
        }
        codecs = {id.value()};
    }

    bench::banner("Worker scaling: fleet replay, cdpud, container decode",
                  "Section 3 (independent calls x cores), Section 5.8 "
                  "(multi-PU container decode)");
    bench::BenchReport report("scaling", argc, argv);
    report.config("mode", mode);
    report.config("nproc", u64{std::thread::hardware_concurrency()});
    report.config("wall_clock_start", bench::wallClockUtc());
    report.config("telemetry", args.getBool("telemetry", false));
    report.config("kernel_tier",
                  std::string(kernels::tierName(kernels::activeTier())));
    report.config(
        "kernel_detected_tier",
        std::string(kernels::tierName(kernels::detectedTier())));
    report.config("kernel_cpu_features", kernels::cpuFeatureSummary());
    obs::JsonValue codecs_json = obs::JsonValue::array();
    for (codec::CodecId id : codecs)
        codecs_json.push(bench::codecCapsJson(id));
    report.config("codecs", std::move(codecs_json));

    using ModeFn = bool (*)(const CliArgs &,
                            const std::vector<codec::CodecId> &,
                            obs::JsonValue &);
    const std::pair<const char *, ModeFn> modes[] = {
        {"replay", runReplay},
        {"daemon", runDaemon},
        {"container", runContainer},
    };
    for (const auto &[name, run_mode] : modes) {
        if (mode != "all" && mode != name)
            continue;
        obs::JsonValue section = obs::JsonValue::object();
        if (!run_mode(args, codecs, section))
            return 1;
        report.metric(name, std::move(section));
    }
    report.metric("wall_clock_end", bench::wallClockUtc());
    Status written = report.write();
    if (!written.ok()) {
        std::fprintf(stderr, "%s\n", written.message().c_str());
        return 1;
    }
    return 0;
}

} // namespace
} // namespace cdpu

int
main(int argc, char **argv)
{
    return cdpu::run(argc, argv);
}

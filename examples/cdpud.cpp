/**
 * @file
 * cdpud: run the compression-as-a-service daemon from the shell.
 *
 *   ./build/examples/cdpud --socket /tmp/cdpud.sock --workers 2
 *
 * Binds the listeners, serves until SIGTERM/SIGINT, then drains
 * gracefully: accepting stops, every admitted request executes, every
 * response is written, and the final accounting (admission events,
 * work counters, latency histograms) is printed — optionally as a
 * JSON document via --json for CI to assert against.
 *
 * Flags:
 *   --socket PATH       unix-domain listener (default /tmp/cdpud.sock)
 *   --tcp-port N        also listen on 127.0.0.1:N (0 = ephemeral;
 *                       the chosen port is printed at startup)
 *   --workers N         executor threads (default 2)
 *   --shard-capacity N  queue slots per worker shard (default 64)
 *   --admission POLICY  block | drop | deadline (default block)
 *   --quota CSV         per-tenant budgets, "tenant:calls:bytes"
 *                       entries (0 = unlimited), e.g. 7:100:0,9:0:1048576
 *   --worker-delay-ns N artificial service time (backlog testing)
 *   --telemetry         attach an obs hub (flight rings + fault dump)
 *   --json PATH         write the final report as JSON
 */

#include <csignal>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "codec/obs_bridge.h"
#include "common/cli.h"
#include "obs/telemetry.h"
#include "serve/daemon.h"

using namespace cdpu;

namespace
{

/** Parses "tenant:calls:bytes" CSV entries into the quota map. */
bool
parseQuotas(const std::string &csv,
            std::map<u64, serve::TenantQuota> &quotas)
{
    std::size_t pos = 0;
    while (pos < csv.size()) {
        std::size_t end = csv.find(',', pos);
        if (end == std::string::npos)
            end = csv.size();
        const std::string entry = csv.substr(pos, end - pos);
        u64 fields[3] = {0, 0, 0};
        std::size_t field = 0, start = 0;
        bool ok = !entry.empty();
        for (std::size_t i = 0; ok && i <= entry.size(); ++i) {
            if (i == entry.size() || entry[i] == ':') {
                if (field >= 3 || i == start) {
                    ok = false;
                    break;
                }
                fields[field++] =
                    std::stoull(entry.substr(start, i - start));
                start = i + 1;
            } else if (entry[i] < '0' || entry[i] > '9') {
                ok = false;
            }
        }
        if (!ok || field != 3) {
            std::fprintf(stderr,
                         "--quota entry \"%s\": want tenant:calls:bytes\n",
                         entry.c_str());
            return false;
        }
        quotas[fields[0]] = serve::TenantQuota{fields[1], fields[2]};
        pos = end + 1;
    }
    return true;
}

obs::JsonValue
reportJson(const serve::DaemonReport &report)
{
    obs::JsonValue doc = obs::JsonValue::object();
    obs::JsonValue summary = obs::JsonValue::object();
    summary.set("connections", report.connections);
    summary.set("requests", report.requests);
    summary.set("executed", report.executed);
    summary.set("failed", report.failed);
    summary.set("dropped", report.dropped);
    summary.set("quota_rejected", report.quotaRejected);
    summary.set("deadline_rejected", report.deadlineRejected);
    summary.set("malformed", report.malformed);
    doc.set("summary", std::move(summary));
    doc.set("work", report.work.toJson());
    doc.set("runtime", report.runtime.toJson());
    return doc;
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    if (!args.parse(argc, argv,
                    {"socket", "tcp-port", "workers", "shard-capacity",
                     "admission", "quota", "worker-delay-ns",
                     "telemetry", "json"})) {
        return 1;
    }

    serve::DaemonConfig config;
    config.unixPath = args.getString("socket", "/tmp/cdpud.sock");
    const i64 tcp_port = args.getInt("tcp-port", -1);
    if (tcp_port >= 0) {
        config.tcpEnabled = true;
        config.tcpPort = static_cast<u16>(tcp_port);
    }
    config.workers =
        static_cast<unsigned>(args.getInt("workers", 2));
    config.shardCapacity =
        static_cast<std::size_t>(args.getInt("shard-capacity", 64));
    config.workerDelayNs =
        static_cast<u64>(args.getInt("worker-delay-ns", 0));
    auto admission = serve::admissionPolicyFromName(
        args.getString("admission", "block"));
    if (!admission.ok()) {
        std::fprintf(stderr, "%s\n",
                     admission.status().message().c_str());
        return 1;
    }
    config.admission = admission.value();
    if (!parseQuotas(args.getString("quota", ""), config.quotas))
        return 1;

    // Flight rings and the fault dump only: a serve-until-SIGTERM
    // process must not keep every sampled span until exit.
    obs::TelemetryConfig tc;
    tc.spanSamplePeriod = 0;
    obs::Telemetry telemetry(tc, config.workers,
                             codec::codecFlightNamer());
    if (args.getBool("telemetry", false))
        config.telemetry = &telemetry;

    // Block the shutdown signals before the daemon spawns threads so
    // every thread inherits the mask and delivery funnels into the
    // sigwait below instead of killing an arbitrary worker.
    sigset_t signals;
    sigemptyset(&signals);
    sigaddset(&signals, SIGTERM);
    sigaddset(&signals, SIGINT);
    if (pthread_sigmask(SIG_BLOCK, &signals, nullptr) != 0) {
        std::fprintf(stderr, "pthread_sigmask failed\n");
        return 1;
    }

    serve::Daemon daemon(config);
    Status started = daemon.start();
    if (!started.ok()) {
        std::fprintf(stderr, "cdpud: %s\n",
                     started.message().c_str());
        return 1;
    }
    std::printf("cdpud: listening on %s", config.unixPath.c_str());
    if (config.tcpEnabled)
        std::printf(" and 127.0.0.1:%u",
                    static_cast<unsigned>(daemon.tcpPort()));
    std::printf(" (%u workers, %s admission)\n", config.workers,
                serve::admissionPolicyName(config.admission));
    std::fflush(stdout);

    int signal_number = 0;
    sigwait(&signals, &signal_number);
    std::printf("cdpud: signal %d, draining\n", signal_number);
    std::fflush(stdout);

    serve::DaemonReport report = daemon.drain();
    std::printf("cdpud: drained — %llu connections, %llu requests, "
                "%llu executed, %llu failed, %llu dropped, "
                "%llu quota-rejected, %llu deadline-rejected, "
                "%llu malformed\n",
                static_cast<unsigned long long>(report.connections),
                static_cast<unsigned long long>(report.requests),
                static_cast<unsigned long long>(report.executed),
                static_cast<unsigned long long>(report.failed),
                static_cast<unsigned long long>(report.dropped),
                static_cast<unsigned long long>(report.quotaRejected),
                static_cast<unsigned long long>(
                    report.deadlineRejected),
                static_cast<unsigned long long>(report.malformed));

    const std::string json_path = args.getString("json", "");
    if (!json_path.empty()) {
        obs::JsonValue doc = reportJson(report);
        if (config.telemetry && telemetry.hasFaultDump())
            doc.set("fault_dump", telemetry.faultDump());
        std::ofstream out(json_path, std::ios::binary);
        if (!out) {
            std::fprintf(stderr, "cdpud: cannot write %s\n",
                         json_path.c_str());
            return 1;
        }
        out << doc.dump(1) << '\n';
        std::printf("cdpud: report written to %s\n", json_path.c_str());
    }
    return 0;
}

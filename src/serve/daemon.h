/**
 * @file
 * cdpud: the compression-as-a-service daemon.
 *
 * The real front end for ROADMAP item 1: where ReplayEngine replays a
 * pre-built call stream, the Daemon accepts live wire-protocol traffic
 * (serve/wire.h) on unix-domain and TCP listeners, admits it through
 * the same BackpressurePolicy vocabulary the replay engine uses, and
 * executes it on the daemon's worker pool (serve/executor.h) — one
 * process, N cores, any registry codec including runtime-admitted
 * pipeline specs.
 *
 * Threading model: one accept thread (poll over the listeners and a
 * shutdown self-pipe), one reader thread per connection, W pool
 * workers. Readers parse and admit frames; workers execute and write
 * responses (a per-connection write mutex serializes interleaved
 * responses; requests on one connection may complete out of order and
 * are matched by request id). One CallRecorder (serve/call_recorder.h)
 * accounts everything with the engine's split: deterministic work
 * (serve.calls*, serve.bytes.*, serve.tenant.*) and scheduling- and
 * admission-dependent runtime (latency, serve.daemon.* events), every
 * drop/reject attributed to its tenant so load shedding is visible per
 * customer, not just in aggregate.
 *
 * Admission control (DESIGN.md §16) is one bounded submit per request;
 * the policy picks the queue's backpressure policy and the wait bound:
 *  - block: a full queue backpressures the reader (and so the client's
 *    socket) until a worker makes room — lossless.
 *  - drop: a full queue rejects immediately with `overloaded`; the
 *    request buffer is freed on the spot.
 *  - deadline: a full queue is waited on until the request's deadline
 *    (forever without one), then rejects with `deadline_exceeded`;
 *    workers re-check expiry before executing so a stale call never
 *    burns codec cycles.
 *
 * Graceful drain (SIGTERM in cdpud): stop accepting, shut the read
 * side of every connection, finish every admitted request, flush
 * responses, then release the workers. A request still waiting for
 * room when the drain begins keeps its wait bound and is admitted if
 * room appears in time. No admitted request is ever silently lost.
 */

#ifndef CDPU_SERVE_DAEMON_H_
#define CDPU_SERVE_DAEMON_H_

#include <map>
#include <memory>
#include <thread>

#include "serve/call_recorder.h"
#include "serve/net.h"

namespace cdpu::serve
{

/** What a full queue does to a new request (see file comment). */
enum class AdmissionPolicy
{
    block,
    drop,
    deadline,
};

const char *admissionPolicyName(AdmissionPolicy policy);
Result<AdmissionPolicy> admissionPolicyFromName(
    const std::string &name);

/** Per-tenant byte/call budget; 0 = unlimited. Exhaustion rejects
 *  with quota_exceeded, attributed to the tenant. */
struct TenantQuota
{
    u64 maxCalls = 0;
    u64 maxBytes = 0;
};

struct DaemonConfig
{
    /** Unix-domain listener path; empty disables it. */
    std::string unixPath;
    /** Enable the TCP listener (127.0.0.1); port 0 binds ephemeral —
     *  read the result from Daemon::tcpPort(). */
    bool tcpEnabled = false;
    u16 tcpPort = 0;

    unsigned workers = 2;
    /** Requests a worker's shard holds before admission control
     *  engages. */
    std::size_t shardCapacity = 64;
    AdmissionPolicy admission = AdmissionPolicy::block;
    WireLimits limits;

    /** Tenant id -> budget; tenants absent here are unlimited. */
    std::map<u64, TenantQuota> quotas;

    /** Optional hub (not owned; must outlive the daemon), wired like
     *  the replay engine's: flight events, a fault dump on the first
     *  failure, spans sampled on the request id, metrics samples. A
     *  long-lived daemon should turn span sampling off: sampled spans
     *  are kept until the hub is destroyed. */
    obs::Telemetry *telemetry = nullptr;

    /** Artificial per-call service time (busy-wait), used by tests and
     *  benches to build deterministic backlog. 0 in production. */
    u64 workerDelayNs = 0;
};

/** Final accounting, returned by drain(). */
struct DaemonReport
{
    /** Deterministic work: serve.calls*, serve.bytes.*,
     *  serve.failures, serve.tenant.*, call-size histograms, kernel.*
     *  totals — same names as the replay engine so obsctl and the SLO
     *  tracker read both. */
    obs::CounterSnapshot work;
    /** Scheduling- and admission-dependent: serve.latency_ns (+
     *  dimensioned cells; admission to the response ready to write),
     *  serve.daemon.* admission events. */
    obs::CounterSnapshot runtime;

    u64 connections = 0;
    u64 requests = 0; ///< Frames that parsed and reached admission.
    u64 executed = 0;
    u64 failed = 0; ///< Executed calls whose codec returned an error.
    u64 dropped = 0;
    u64 quotaRejected = 0;
    u64 deadlineRejected = 0;
    u64 malformed = 0;
};

class Daemon
{
  public:
    explicit Daemon(const DaemonConfig &config);
    ~Daemon();

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Binds the listeners and starts the accept/worker threads.
     *  Returns only after the daemon is reachable. */
    Status start();

    /**
     * Graceful drain: stop accepting, shut the read side of live
     * connections, execute every admitted request, write every
     * response, join everything, and return the final report.
     * Idempotent; the second call returns the same report.
     */
    DaemonReport drain();

    /** Live merged counter view (safe while serving). */
    obs::CounterSnapshot counters() const;

    /** Actual TCP port (after start() with tcpEnabled). */
    u16 tcpPort() const { return boundTcpPort_; }

  private:
    struct Connection;
    struct Job;

    void acceptLoop();
    void connectionLoop(std::shared_ptr<Connection> conn);
    /** Executes one admitted request on @p worker and answers it. */
    void serve(Worker &worker, Job &job);

    /** Admission pipeline for one parsed request; always answers the
     *  client exactly once (enqueue or reject). */
    void admit(const std::shared_ptr<Connection> &conn,
               WireRequest &&request);

    void sendError(const std::shared_ptr<Connection> &conn,
                   u64 request_id, WireCode code, std::string message);

    DaemonConfig config_;
    Fd unixListener_;
    Fd tcpListener_;
    u16 boundTcpPort_ = 0;
    Fd wakeRead_, wakeWrite_; ///< Self-pipe: drain() wakes acceptLoop.

    std::unique_ptr<Executor> executor_;
    std::unique_ptr<CallRecorder> recorder_;

    std::thread acceptThread_;

    mutable std::mutex connMutex_;
    std::vector<std::shared_ptr<Connection>> connections_;
    u64 nextConnId_ = 0;

    std::mutex quotaMutex_;
    struct TenantUsage
    {
        u64 calls = 0;
        u64 bytes = 0;
    };
    std::map<u64, TenantUsage> usage_;

    std::atomic<bool> started_{false};
    std::atomic<bool> draining_{false};
    bool drained_ = false;
    DaemonReport finalReport_;
    std::mutex drainMutex_;
};

} // namespace cdpu::serve

#endif // CDPU_SERVE_DAEMON_H_

/**
 * @file
 * The three load drivers. Each treats the system as a black box and
 * goes through public entry points only:
 *  - DaemonDriver: a serve::Daemon on a unix socket, driven by
 *    serve::DaemonClient connections (closed and open loop);
 *  - EngineDriver: serve::ReplayEngine::run over a call stream;
 *  - ContainerDriver: container::write, then container::decodeParallel.
 * Every output is compared with the call set's reference before it
 * counts as completed; a mismatch, error or refusal counts as failed.
 */

#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

#include <memory>

#include "callset.h"
#include "common/mem.h"
#include "harness.h"
#include "serve/daemon.h"

namespace perfbench
{

/** End-to-end samples of one timed phase. */
struct PhaseResult
{
    u64 attempted = 0;
    u64 failed = 0;
    u64 calls = 0; ///< Completed and verified.
    /** Throughput and process CPU per uncompressed byte, per
     *  measurement interval (a fixed time window, one replay of the
     *  stream, or one round over the containers). */
    std::vector<double> callsPerS;
    std::vector<double> mbPerS;
    std::vector<double> cpuNsPerByte;
    std::vector<double> latencyUs;
    /** Exact p50 and p99 of each time window holding enough samples
     *  for a p99 with ten beyond it (daemon phases only). */
    std::vector<double> windowP50Us;
    std::vector<double> windowP99Us;
    /** Beside them, the p99 of how late the open-loop generator sent
     *  the window's calls (0 in the closed loop). */
    std::vector<double> windowLagUs;
    /** Open loop only: how late each send left against its due time. */
    std::vector<double> lagUs;

    /** Appends @p other's counts and samples. */
    void merge(const PhaseResult &other);
};

class DaemonDriver
{
  public:
    static constexpr unsigned kWorkers = 2;
    static constexpr unsigned kConnections = 2;
    /** Requests each closed-loop connection keeps in flight: deep
     *  enough that the workers rarely idle, which keeps phase A's rate
     *  from hinging on thread wake-up latency. */
    static constexpr unsigned kDepth = 16;

    /** Starts a kWorkers-worker, block-admission daemon on
     *  @p socket_path and plans one request per non-streaming call of
     *  @p calls (which must outlive the driver). */
    Status start(const CallSet &calls, const std::string &socket_path);

    /** Closed loop: each connection keeps kDepth requests in flight.
     *  Latency is the round trip. */
    PhaseResult closedLoop(double seconds, Tracer *tracer);

    /** Open loop at @p rate calls/s over all connections; latency is
     *  timed from each call's due time. */
    PhaseResult openLoop(double seconds, double rate, Tracer *tracer);

    /** Requests the daemon refused so far (drops, quota, deadline,
     *  shutdown, unknown codec), from Daemon::counters(). */
    u64 rejects() const;

    /** Peak daemon-owned threads seen during the phases. */
    unsigned peakThreads() const { return peakThreads_; }

    /** Drains the daemon and removes the socket. */
    ~DaemonDriver();

  private:
    struct Planned
    {
        cdpu::serve::WireRequest request;
        std::size_t call = 0;
    };

    /** Samples process CPU seconds at every window boundary from
     *  @p start_ns to @p end_ns, and the thread count beside it. */
    std::vector<double> sampleWindows(u64 start_ns, u64 end_ns,
                                      unsigned own_threads);

    const CallSet *calls_ = nullptr;
    std::string path_;
    std::unique_ptr<cdpu::serve::Daemon> daemon_;
    std::vector<std::vector<Planned>> perConnection_;
    unsigned peakThreads_ = 0;
};

class EngineDriver
{
  public:
    static constexpr unsigned kWorkers = 2;

    explicit EngineDriver(const CallSet &calls) : calls_(&calls) {}

    /** Replays the whole stream repeatedly for @p seconds (at least
     *  three times); every outcome hash is compared with the reference.
     *  One latency sample per replay. */
    PhaseResult run(double seconds, Tracer *tracer);

    /** Time of one serve::replaySequential of the stream. */
    double sequentialSeconds();

    u64 steals = 0;  ///< Summed over the last run()'s replays.
    u64 batches = 0; ///< Likewise.
    std::size_t replays = 0;
    /** Fast-path counters of one replay, and its uncompressed bytes. */
    cdpu::mem::KernelStats kernel;
    u64 kernelRawBytes = 0;

  private:
    const CallSet *calls_;
};

class ContainerDriver
{
  public:
    static constexpr unsigned kWorkers = 2;

    /** Writes one container per input, codecs taken round-robin from
     *  snappy, zstdlite, flatelite, gipfeli; @p block_bytes per block. */
    Status write(std::vector<Bytes> inputs, std::size_t block_bytes);

    /** decodeParallel round-robin over the containers, each output
     *  compared with its input. One latency sample per decode; one
     *  throughput sample per full round. */
    PhaseResult decode(double seconds, Tracer *tracer);

    /** Input bytes over container bytes. */
    double compressionRatio() const;

    /**
     * Traced layer probes: parseIndex, decodeSequential next to
     * decodeParallel on every container, and the fixed cost of a
     * parallel decode (parallel minus sequential on a one-block frame).
     */
    void probeLayers(Tracer &tracer);

    /** The containers' blocks as decompress calls (block frame ->
     *  block input), for the other drivers' probes. */
    Result<CallSet> blockCalls() const;

    u64 steals = 0; ///< Summed over the last decode()'s calls.
    /** Fast-path counters of one round, and its uncompressed bytes. */
    cdpu::mem::KernelStats kernel;
    u64 kernelRawBytes = 0;
    double writeSeconds = 0;
    u64 writeBytes = 0;
    double spawnUs = 0;         ///< Set by probeLayers().
    double parEfficiency = 0;   ///< Set by probeLayers().

  private:
    std::vector<cdpu::codec::CodecId> codecs_;
    std::vector<Bytes> inputs_;
    std::vector<Bytes> frames_;
};

} // namespace perfbench

#endif // PERFBENCH_DRIVERS_H_

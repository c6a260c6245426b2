/**
 * @file
 * The benchmark's workloads and the run that measures one of them.
 *
 *  - daemon-small-mix: the fleet's small-call mix (<= 4 KiB) over a
 *    unix socket into a 2-worker, block-admission daemon from two
 *    connections. Phase A is a closed loop (kDepth requests in flight
 *    per connection) and gives throughput; phase B is an open loop at
 *    kDaemonOpenLoopRate and gives latency from each call's due time.
 *    The phases alternate in rounds of ~2.5 s.
 *    Wire, admission, queue, accounting and socket writes dominate.
 *  - replay-bulk-mix: in-process ReplayEngine, 2 workers, block policy,
 *    over a mixed stream of every registered codec (curated pipelines
 *    included), 64 KiB - 1 MiB calls, half decompress, a quarter
 *    streaming. Kernels, transform stages and session paths dominate.
 *  - container-decode: four 8 MiB CDPC containers (snappy, zstdlite,
 *    flatelite, gipfeli; 128 KiB blocks) decoded with decodeParallel on
 *    2 workers, round-robin. Decode kernels plus the container scheduler.
 *
 * An untraced run reports the end-to-end metrics; a traced run reports
 * the per-layer metrics: the workload's own driver traced, the other two
 * drivers and the single-layer probes run briefly on the workload's
 * calls, all from spans kept in memory and written as a Chrome trace.
 */

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <string>
#include <vector>

#include "common/error.h"
#include "harness.h"

namespace perfbench
{

/** Open-loop rate of daemon-small-mix phase B, calls/s: about a quarter
 *  of the ~45k calls/s closed-loop capacity measured on a 4-vCPU x86-64
 *  host. At half capacity the p99 spread between runs was several times
 *  wider, since host speed swings move the queueing tail steeply there. */
inline constexpr double kDaemonOpenLoopRate = 12000.0;

struct RunOptions
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny inputs and a short run, for the smoke tests. */
    bool tiny = false;
    /** Where the Chrome trace and the host record go. */
    std::string outDir = ".bench_build/perfbench-out";
};

struct RunOutcome
{
    bool correct = false;
    u64 attempted = 0;
    u64 failed = 0;
    MetricSet metrics;
    /** Human-readable lines (host facts, sample counts, flags). */
    std::vector<std::string> notes;
};

const std::vector<std::string> &workloadNames();

/** Sets up, measures and verifies one workload. A non-OK status means
 *  the benchmark itself could not run (no result is printed). */
cdpu::Result<RunOutcome> runWorkload(const RunOptions &options);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_

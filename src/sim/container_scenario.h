/**
 * @file
 * Multi-PU container decode scenario.
 *
 * The CDPU paper's multi-PU design space (Section 5.8, parameter 4)
 * only pays off when one request can occupy many PUs at once — exactly
 * what the block-parallel container (container/container.h) provides:
 * its index turns one stream into independently-decodable blocks. This
 * scenario schedules those blocks over N decompressor PUs and reports
 * the makespan, so sweeps can ask "how many PUs before the block
 * granularity stops scaling?" without running RTL.
 *
 * The model is deterministic greedy list scheduling: blocks are
 * dispatched in index order, each to the PU that frees earliest (ties
 * to the lowest PU id), after a fixed per-dispatch overhead modeling
 * call assembly and index walk. Per-block cycle costs come from the
 * caller — bench_scaling's container mode feeds real PU cycle counts
 * from cdpu/ (SnappyDecompressorPU etc.), tests feed synthetic costs.
 */

#ifndef CDPU_SIM_CONTAINER_SCENARIO_H_
#define CDPU_SIM_CONTAINER_SCENARIO_H_

#include <vector>

#include "common/types.h"
#include "sim/event_queue.h"

namespace cdpu::sim
{

/** Inputs for one container-decode schedule. */
struct ContainerScenario
{
    /** Decode cost of each container block, in PU cycles, in index
     *  order. Costs come from real PU runs or an analytic model. */
    std::vector<Tick> blockCycles;
    /** Decompressor PUs available to the stream (>= 1). */
    unsigned pus = 1;
    /** Fixed cycles to hand a block to a PU (call assembly + index
     *  walk); serialises on the dispatcher, so it bounds scaling the
     *  same way the paper's per-call overheads bound small calls. */
    Tick dispatchCycles = 0;
};

/** Schedule outcome. */
struct ContainerSimReport
{
    /** Cycle the last block's PU finishes. */
    Tick makespan = 0;
    /** Sum of all block costs: the single-PU decode time less
     *  dispatch (the numerator of @ref speedup). */
    Tick totalBlockCycles = 0;
    /** Busy cycles per PU, index = PU id. */
    std::vector<Tick> puBusyCycles;
    /** Blocks decoded per PU, index = PU id. */
    std::vector<u64> puBlocks;
    /** Single-PU makespan / this makespan (1.0 when empty). */
    double speedup = 1.0;
    /** Mean busy fraction across PUs over the makespan. */
    double utilization = 0.0;
};

/**
 * Runs the greedy schedule. Deterministic: the same scenario always
 * yields the same report. A scenario with zero PUs is clamped to one;
 * an empty block list yields a zero makespan.
 */
ContainerSimReport simulateContainerDecode(const ContainerScenario &scenario);

} // namespace cdpu::sim

#endif // CDPU_SIM_CONTAINER_SCENARIO_H_

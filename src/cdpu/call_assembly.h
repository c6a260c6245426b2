/**
 * @file
 * Shared per-call cycle assembly for all processing units.
 *
 * Combines the compute stage with the memloader/memwriter streams
 * (overlapped; the slowest wins), adds serialized pointer-chase stalls
 * on data-dependent compressed-input fetches, address-translation
 * costs through the accelerator TLB (Figure 8), the RoCC dispatch
 * overhead, and the placement link round trip.
 *
 * The assembly is also the observability choke point: it accumulates
 * every "pu.*" counter into the PU's registry, re-exports the memory
 * hierarchy and TLB state, returns the per-call delta inside
 * PuResult::counters, and — when a TraceSession is attached — lays the
 * call out as dispatch / fetch / compute / writeback spans on the PU's
 * cumulative-cycle timeline.
 */

#ifndef CDPU_CDPU_CALL_ASSEMBLY_H_
#define CDPU_CDPU_CALL_ASSEMBLY_H_

#include "cdpu/cdpu_config.h"
#include "obs/counters.h"
#include "obs/trace.h"
#include "sim/memory_hierarchy.h"
#include "sim/tlb.h"

namespace cdpu::hw
{

/** Per-call inputs to the assembly. */
struct CallShape
{
    u64 computeCycles = 0;
    std::size_t inBytes = 0;
    std::size_t outBytes = 0;
    /** Bytes of the data-dependent (serially fetched) stream. */
    std::size_t serializedStreamBytes = 0;
    /** Monotonic per-PU call number; separates buffer addresses so
     *  consecutive calls do not accidentally share TLB pages. */
    u64 callSequence = 0;
    /** History-SRAM overflow fallbacks from the LZ77 decoder, already
     *  included in computeCycles; surfaced as counters. */
    u64 historyFallbacks = 0;
    u64 fallbackCycles = 0;
};

/**
 * Assembles the final PuResult for one accelerator call, recording
 * per-call counters into @p registry (the PU's own registry; its diff
 * across the call becomes PuResult::counters). When @p trace is
 * non-null the call's phases are emitted as spans named under
 * @p pu_name.
 */
PuResult assembleCall(const sim::PlacementModel &model,
                      sim::MemoryHierarchy &memory, sim::Tlb &tlb,
                      const CallShape &shape,
                      obs::CounterRegistry &registry,
                      obs::TraceSession *trace = nullptr,
                      const char *pu_name = "pu");

} // namespace cdpu::hw

#endif // CDPU_CDPU_CALL_ASSEMBLY_H_

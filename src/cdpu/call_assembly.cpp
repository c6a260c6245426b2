#include "cdpu/call_assembly.h"

#include <algorithm>
#include <string>

#include "cdpu/calibration.h"
#include "sim/stream_model.h"

namespace cdpu::hw
{

namespace
{

/** Lane assignment for the per-call trace (Figure 9's pipeline). */
enum TraceTrack : u32
{
    kTrackCall = 0,
    kTrackFetch = 1,
    kTrackCompute = 2,
    kTrackWriteback = 3,
};

} // namespace

PuResult
assembleCall(const sim::PlacementModel &model,
             sim::MemoryHierarchy &memory, sim::Tlb &tlb,
             const CallShape &shape, obs::CounterRegistry &registry,
             obs::TraceSession *trace, const char *pu_name)
{
    const obs::CounterSnapshot before = registry.snapshot();
    // The trace timeline is the PU's cumulative busy time: calls are
    // laid out back to back, so a whole run reads as one lane-per-stage
    // pipeline diagram.
    const obs::Tick call_start = registry.counter("pu.cycles").value();

    PuResult result;
    result.inputBytes = shape.inBytes;
    result.outputBytes = shape.outBytes;

    const sim::MemoryConfig &mem_config = memory.config();
    const u64 mem_latency = mem_config.l2LatencyCycles;
    const u64 stream_in = sim::streamCyclesAnalytic(
        shape.inBytes, model, mem_config.busBytesPerCycle, mem_latency);
    const u64 stream_out = sim::streamCyclesAnalytic(
        shape.outBytes, model, mem_config.busBytesPerCycle,
        mem_latency);

    // Data-dependent fetches on the compressed stream periodically
    // expose the full round trip (the tag/entropy decoder cannot run
    // ahead of the loader); one stall per kSerialFetchStride bytes.
    u64 stalls = shape.serializedStreamBytes / kSerialFetchStride;
    u64 stall_latency = mem_latency + 2 * model.linkLatencyCycles;
    u64 serial_stall = stalls * stall_latency;

    // Address translation: input and output buffers live in distinct
    // regions; each TLB miss costs a serialized two-level page walk.
    // Buffers are placed at call-unique base addresses so reuse across
    // calls is conservative (no accidental page sharing).
    u64 base = shape.callSequence << 30; // 1 GiB apart per call
    u64 misses =
        tlb.accessRange(0x100000000000ull + base, shape.inBytes) +
        tlb.accessRange(0x200000000000ull + base, shape.outBytes);
    // Page walks go through the host-side PTW in every placement
    // (PCIe DMA windows are translated by the host driver), so the
    // cost does not cross the link.
    u64 ptw_latency = 2 * mem_latency;
    u64 translation = misses * ptw_latency;

    const u64 dispatch = kCallSetupCycles + 2 * model.linkLatencyCycles;
    const u64 overlap =
        std::max({shape.computeCycles, stream_in, stream_out});
    result.cycles = dispatch + overlap + serial_stall + translation;

    registry.counter("pu.calls").increment();
    registry.counter("pu.cycles").add(result.cycles);
    registry.counter("pu.compute_cycles").add(shape.computeCycles);
    registry.counter("pu.stream_in_cycles").add(stream_in);
    registry.counter("pu.stream_out_cycles").add(stream_out);
    registry.counter("pu.serial_stall_cycles").add(serial_stall);
    registry.counter("pu.translation_cycles").add(translation);
    registry.counter("pu.history_fallbacks")
        .add(shape.historyFallbacks);
    registry.counter("pu.fallback_cycles").add(shape.fallbackCycles);
    registry.counter("pu.input_bytes").add(shape.inBytes);
    registry.counter("pu.output_bytes").add(shape.outBytes);
    // Each serialized stall exposes a link round trip beyond the
    // dispatch round trip every call pays.
    registry.counter("link.crossings").add(2 + 2 * stalls);
    registry.counter("link.latency_cycles")
        .add((2 + 2 * stalls) * model.linkLatencyCycles);
    registry.histogram("pu.call_bytes").record(shape.inBytes);
    registry.histogram("pu.call_cycles").record(result.cycles);
    memory.exportCounters(registry, "mem");
    tlb.exportCounters(registry, "tlb");

    result.counters = registry.snapshot().diff(before);

    if (trace) {
        const std::string name(pu_name);
        trace->setTrackName(kTrackCall, "call");
        trace->setTrackName(kTrackFetch, "fetch");
        trace->setTrackName(kTrackCompute, "compute");
        trace->setTrackName(kTrackWriteback, "writeback");
        trace->span(name + ".call", "call", call_start, result.cycles,
                    kTrackCall);
        trace->span("dispatch", "dispatch", call_start, dispatch,
                    kTrackCall);
        const obs::Tick phase = call_start + dispatch;
        if (stream_in)
            trace->span("fetch", "stream", phase, stream_in,
                        kTrackFetch);
        if (shape.computeCycles)
            trace->span(name + ".compute", "compute", phase,
                        shape.computeCycles, kTrackCompute);
        if (stream_out)
            trace->span("writeback", "stream", phase, stream_out,
                        kTrackWriteback);
        obs::Tick tail = phase + overlap;
        if (serial_stall) {
            trace->span("serial_stalls", "stall", tail, serial_stall,
                        kTrackCall);
            tail += serial_stall;
        }
        if (translation)
            trace->span("page_walks", "tlb", tail, translation,
                        kTrackCall);
    }
    return result;
}

} // namespace cdpu::hw

/**
 * @file
 * Traced single-layer probes, each run on a workload's own calls:
 * wire framing, the work queue, counter/histogram accounting, the four
 * base codecs through serve::CodecContext, and the transform stages.
 * Every probe records spans (arg = units of work in the span) and adds
 * the per-layer metrics it derives from them.
 */

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include "callset.h"
#include "harness.h"

namespace perfbench
{

/** Median over @p name's spans of duration / arg, in ns per unit. */
double medianNsPerUnit(const Tracer &tracer, const char *name);

/** wire.{encode,parse}_{request,response}_ns on the calls' frames. */
void probeWire(const CallSet &calls, Tracer &tracer, MetricSet &out);

/** queue.push_pop_ns: one push and one pop on serve::ShardedWorkQueue. */
void probeQueue(Tracer &tracer, MetricSet &out);

/** obs.counter_by_name_ns (lookup by a built name, then increment, as
 *  the daemon's per-call accounting does) and obs.histogram_record_ns. */
void probeObs(const CallSet &calls, Tracer &tracer, MetricSet &out);

/** codec.<base>.{compress,decompress}.ns_per_byte on the calls'
 *  uncompressed bytes, through serve::CodecContext. */
void probeCodecs(const CallSet &calls, Tracer &tracer, MetricSet &out);

/** transform.<stage>.{apply,invert}.ns_per_byte for delta, bwt, mtf
 *  and shred on the calls' uncompressed bytes. */
void probeTransforms(const CallSet &calls, Tracer &tracer, MetricSet &out);

} // namespace perfbench

#endif // PERFBENCH_PROBES_H_

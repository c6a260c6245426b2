/**
 * @file
 * Container decode: sequential reference reader + parallel scheduler.
 *
 * Both paths share one per-block routine and one serve::CallRecorder
 * accounting scheme, so the differential contract
 * (tests/container_test.cpp) is structural: the parallel path, which
 * runs on the process-wide serve::Executor pool for its worker count,
 * can only differ from the reference by scheduling, and
 * scheduling-dependent accounting (steals) is quarantined in
 * DecodeReport::runtime exactly like serve::ReplayReport.
 *
 * Error semantics: every block is attempted regardless of earlier
 * failures — blocks are independent, the wasted work is bounded by the
 * already-validated index, and attempting all of them is what makes
 * the work counters a pure function of the frame at any worker count.
 * The returned verdict is the lowest-index failing block's status.
 */

#include "container/container.h"

#include <cstring>

#include "serve/call_recorder.h"

namespace cdpu::container
{

namespace
{

/** Decode plan shared by both paths: the validated index plus each
 *  block's destination offset in the stitched output. */
struct Plan
{
    FrameIndex index;
    ByteSpan data;               ///< The frame's data section.
    std::vector<u64> dstOffsets; ///< Prefix sums of regenSize.
};

Result<Plan>
buildPlan(ByteSpan frame, const DecodeOptions &options)
{
    Result<FrameIndex> parsed = parseIndex(frame);
    if (!parsed.ok())
        return parsed.status();
    Plan plan;
    plan.index = std::move(parsed.value());
    if (plan.index.totalRegenBytes > options.maxOutputBytes) {
        // The index-driven allocation tripwire: reject the claim
        // before a single output byte is allocated.
        return Status::corrupt(
            "container index claims " +
            std::to_string(plan.index.totalRegenBytes) +
            " output bytes, over the " +
            std::to_string(options.maxOutputBytes) + "-byte decode cap");
    }
    plan.data = frame.subspan(plan.index.dataStart);
    plan.dstOffsets.reserve(plan.index.blocks.size());
    u64 dst = 0;
    for (const BlockEntry &entry : plan.index.blocks) {
        plan.dstOffsets.push_back(dst);
        dst += entry.regenSize;
    }
    return plan;
}

/**
 * Decodes block @p i on @p worker and stitches it into @p out at the
 * plan's offset. The recorder accounts the block after the regen-size
 * check, so work counters are deterministic in the block alone.
 */
Status
decodeBlock(serve::CallRecorder &recorder, serve::Worker &worker,
            const Plan &plan, std::size_t i, Bytes &out)
{
    const BlockEntry &entry = plan.index.blocks[i];
    hcb::ReplayCall call;
    call.id = i;
    call.codec = plan.index.codec;
    call.direction = codec::Direction::decompress;
    call.payload = plan.data.subspan(
        static_cast<std::size_t>(entry.offset),
        static_cast<std::size_t>(entry.compSize));

    serve::CallResult result = recorder.run(worker, call);
    if (result.status.ok() && result.output.size() != entry.regenSize) {
        result.status = Status::corrupt(
            "block " + std::to_string(i) + " regenerated " +
            std::to_string(result.output.size()) +
            " bytes, index claims " + std::to_string(entry.regenSize));
        recorder.record(worker.index, call, result, 0);
        return result.status;
    }
    recorder.record(worker.index, call, result, 0);
    if (!result.status.ok()) {
        return Status(result.status.code(), "block " + std::to_string(i) +
                                                ": " +
                                                result.status.message());
    }
    std::memcpy(out.data() + static_cast<std::size_t>(plan.dstOffsets[i]),
                result.output.data(), result.output.size());
    return result.status;
}

/** Both paths: @p pool fans the blocks out, null decodes them in order
 *  on the caller's thread. */
Status
decode(ByteSpan frame, serve::Executor *pool, Bytes &out,
       const DecodeOptions &options, DecodeReport *report)
{
    out.clear();
    if (report)
        *report = DecodeReport{};
    Result<Plan> planned = buildPlan(frame, options);
    if (!planned.ok())
        return planned.status();
    const Plan &plan = planned.value();
    out.resize(static_cast<std::size_t>(plan.index.totalRegenBytes));

    std::vector<Status> statuses(plan.index.blocks.size());
    serve::CallRecorder recorder(serve::kContainerCallNames,
                                 pool ? pool->workers() : 1, nullptr,
                                 {"container.steals"});
    if (pool) {
        // Workers write disjoint output ranges and disjoint status
        // slots; stitching needs no lock.
        pool->runAll(statuses.size(),
                     [&](serve::Worker &worker, std::size_t i) {
                         recorder.countEvent(worker.index, 0,
                                             worker.stolen ? 1 : 0);
                         statuses[i] =
                             decodeBlock(recorder, worker, plan, i, out);
                     });
    } else {
        serve::Worker worker;
        for (std::size_t i = 0; i < statuses.size(); ++i)
            statuses[i] = decodeBlock(recorder, worker, plan, i, out);
    }

    // Lowest-index failure wins: the verdict any schedule agrees on.
    Status verdict = Status::okStatus();
    for (const Status &status : statuses) {
        if (!status.ok()) {
            verdict = status;
            break;
        }
    }
    if (report) {
        report->work = recorder.work();
        report->runtime = recorder.runtime();
        report->blocks = plan.index.blocks.size();
        report->bytesOut = verdict.ok() ? plan.index.totalRegenBytes : 0;
    }
    if (!verdict.ok())
        out.clear();
    return verdict;
}

} // namespace

Status
decodeSequential(ByteSpan frame, Bytes &out,
                 const DecodeOptions &options, DecodeReport *report)
{
    return decode(frame, nullptr, out, options, report);
}

Status
decodeParallel(ByteSpan frame, unsigned workers, Bytes &out,
               const DecodeOptions &options, DecodeReport *report)
{
    return decode(frame, &serve::Executor::shared(workers), out, options,
                  report);
}

} // namespace cdpu::container

#include "hyperbench/greedy_assembler.h"

#include <algorithm>
#include <deque>

#include "codec/registry.h"

namespace cdpu::hcb
{

namespace
{

/** Segment granularity at which the assembled file is re-evaluated by
 *  actually compressing it (the paper: "at various points during this
 *  process, the generator evaluates the file assembled so far and
 *  adjusts the target ratio accordingly"). */
constexpr std::size_t kEvalSegmentBytes = 64 * kKiB;

std::size_t
compressedSize(codec::CodecId codec, ByteSpan segment)
{
    const codec::CodecCaps &caps = codec::registry(codec).caps;
    const codec::CodecParams params =
        caps.clamp(caps.defaultLevel, caps.defaultWindowLog);
    Bytes out;
    if (!codec::compressInto(codec, segment, params, out).ok())
        return segment.size();
    return out.size();
}

} // namespace

Bytes
assembleFile(const ChunkLibrary &library, const FileTarget &target,
             Rng &rng)
{
    const auto &chunks = library.table(target.codec);
    auto [min_ratio, max_ratio] = library.ratioRange(target.codec);

    Bytes file;
    file.reserve(target.sizeBytes + 8 * kKiB);

    // Recently used chunk indices: re-appending a chunk inside the
    // consumer's window would fabricate long-range redundancy the
    // fleet data does not have, inflating achieved ratios for
    // large-window files.
    std::deque<std::size_t> recent;
    auto recently_used = [&](std::size_t index) {
        return std::find(recent.begin(), recent.end(), index) !=
               recent.end();
    };

    // Compressed-size estimate: measured for completed segments,
    // per-chunk LUT estimate for the in-progress segment. Measuring
    // captures cross-chunk matches the per-chunk ratios cannot see.
    double measured_compressed = 0;
    double segment_estimate = 0;
    std::size_t segment_start = 0;

    const double total = static_cast<double>(target.sizeBytes);
    const double budget =
        total / std::clamp(target.targetRatio, min_ratio, max_ratio);

    while (file.size() < target.sizeBytes) {
        double remaining_bytes =
            total - static_cast<double>(file.size());
        double remaining_budget = std::max(
            budget - measured_compressed - segment_estimate, 1.0);
        double needed_ratio = std::clamp(
            remaining_bytes / remaining_budget, min_ratio, max_ratio);

        std::size_t index =
            library.closestIndex(target.codec, needed_ratio);
        // Random jitter around the closest index ("random shuffles"),
        // retrying until the pick is not in the recent-use window.
        for (int attempt = 0; attempt < 16; ++attempt) {
            std::size_t jitter = rng.below(64);
            std::size_t candidate = std::min(
                chunks.size() - 1,
                index + jitter >= 32 ? index + jitter - 32 : 0);
            if (!recently_used(candidate) || attempt == 15) {
                index = candidate;
                break;
            }
        }
        recent.push_back(index);
        if (recent.size() > 192)
            recent.pop_front();

        const RatedChunk &chunk = chunks[index];
        std::size_t take = std::min<std::size_t>(
            chunk.data.size(), target.sizeBytes - file.size());
        file.insert(file.end(), chunk.data.begin(),
                    chunk.data.begin() + take);
        segment_estimate += static_cast<double>(take) / chunk.ratio;

        // Re-evaluate the finished segment with a real compression.
        if (file.size() - segment_start >= kEvalSegmentBytes ||
            file.size() >= target.sizeBytes) {
            ByteSpan segment(file.data() + segment_start,
                             file.size() - segment_start);
            measured_compressed += static_cast<double>(
                compressedSize(target.codec, segment));
            segment_start = file.size();
            segment_estimate = 0;
        }
    }
    return file;
}

} // namespace cdpu::hcb

#include "hyperbench/suite_validator.h"

#include "codec/registry.h"

namespace cdpu::hcb
{

WeightedHistogram
cappedFleetCallSizes(const fleet::FleetModel &fleet,
                     const fleet::Channel &channel, std::size_t cap_bytes)
{
    const WeightedHistogram &full =
        fleet.callSizeDistribution(channel);
    double cap_bin = ceilLog2(cap_bytes);
    WeightedHistogram capped;
    for (const auto &[bin, weight] : full.bins())
        capped.add(std::min(bin, cap_bin), weight);
    return capped;
}

ValidationReport
validateSuite(const Suite &suite, const fleet::FleetModel &fleet,
              std::size_t cap_bytes)
{
    ValidationReport report;

    std::size_t total_raw = 0;
    std::size_t total_compressed = 0;
    Bytes frame;
    codec::Scratch scratch;
    for (const auto &file : suite.files) {
        report.suiteCallSizes.add(
            ceilLog2(file.data.size()),
            static_cast<double>(file.data.size()));
        total_raw += file.data.size();
        const codec::CodecVTable &vtable = codec::registry(file.codec);
        const codec::CodecParams params =
            vtable.caps.clamp(file.level, file.windowLog);
        if (vtable.compressInto(file.data, params, frame, scratch).ok())
            total_compressed += frame.size();
    }
    report.achievedRatio =
        total_compressed == 0
            ? 0.0
            : static_cast<double>(total_raw) /
                  static_cast<double>(total_compressed);

    fleet::Channel channel =
        toFleetChannel(suite.codec, suite.direction);
    WeightedHistogram fleet_capped =
        cappedFleetCallSizes(fleet, channel, cap_bytes);
    report.callSizeKsDistance = WeightedHistogram::ksDistance(
        report.suiteCallSizes, fleet_capped);

    report.fleetRatio = fleet.aggregateRatio(fleetRatioBin(suite.codec));
    return report;
}

} // namespace cdpu::hcb

#include "cdpu/snappy_pu.h"

#include <algorithm>
#include <cmath>

#include "cdpu/call_assembly.h"
#include "cdpu/calibration.h"
#include "cdpu/lz77_decoder_unit.h"
#include "cdpu/lz77_encoder_unit.h"
#include "common/varint.h"
#include "sim/stream_model.h"

namespace cdpu::hw
{

SnappyDecompressorPU::SnappyDecompressorPU(const CdpuConfig &config)
    : config_(config),
      model_(sim::placementModel(config.placement, config.clockGhz)),
      memory_(), tlb_(config.tlbEntries)
{}

Result<PuResult>
SnappyDecompressorPU::run(ByteSpan compressed, Bytes *output)
{
    std::size_t pos = 0;
    auto expected = getVarint(compressed, pos);
    if (!expected.ok())
        return expected.status();

    std::vector<snappy::Element> elements;
    CDPU_RETURN_IF_ERROR(snappy::decodeElements(
        compressed, pos, expected.value(), elements));

    // Replay elements through the LZ77 decoder unit.
    Lz77DecoderUnit lz77(config_, memory_);
    for (const auto &element : elements) {
        if (element.type == snappy::ElementType::literal)
            lz77.literal(element.length);
        else
            lz77.copy(element.length, element.offset);
    }

    CallShape shape;
    shape.computeCycles = lz77.cycles();
    shape.inBytes = compressed.size();
    shape.outBytes = expected.value();
    shape.serializedStreamBytes = compressed.size();
    shape.callSequence = calls_++;
    shape.historyFallbacks = lz77.fallbacks();
    shape.fallbackCycles = lz77.fallbackCycles();
    PuResult result = assembleCall(model_, memory_, tlb_, shape,
                                   registry_, trace_, "snappy_decomp");

    if (output) {
        CDPU_RETURN_IF_ERROR(snappy::applyElements(
            compressed, elements, expected.value(), *output));
    }
    return result;
}

SnappyCompressorPU::SnappyCompressorPU(const CdpuConfig &config)
    : config_(config),
      model_(sim::placementModel(config.placement, config.clockGhz)),
      memory_(), tlb_(config.tlbEntries)
{}

Result<PuResult>
SnappyCompressorPU::run(ByteSpan input, Bytes *output)
{
    // Functional compression with the hardware's geometry. The
    // hardware has no reason to skip probes on incompressible data
    // (Section 6.3), hence skipAcceleration = false.
    snappy::CompressorConfig codec_config;
    codec_config.hashTable = config_.hashTable;
    codec_config.windowSize =
        std::min(config_.historySramBytes, snappy::kBlockSize);
    codec_config.skipAcceleration = false;

    lz77::MatchFinderStats stats;
    Bytes compressed = snappy::compress(input, codec_config, &stats);

    Lz77EncoderUnit encoder(config_);
    CallShape shape;
    shape.computeCycles = encoder.cycles(stats, input.size());
    shape.inBytes = input.size();
    shape.outBytes = compressed.size();
    shape.callSequence = calls_++;
    PuResult result = assembleCall(model_, memory_, tlb_, shape,
                                   registry_, trace_, "snappy_comp");

    if (output)
        *output = std::move(compressed);
    else
        result.outputBytes = compressed.size();
    return result;
}

} // namespace cdpu::hw

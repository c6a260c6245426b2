#include "cdpu/flate_pu.h"

#include <algorithm>
#include <cmath>

#include "cdpu/call_assembly.h"
#include "cdpu/calibration.h"
#include "cdpu/huffman_units.h"
#include "cdpu/lz77_decoder_unit.h"
#include "cdpu/lz77_encoder_unit.h"
#include "common/histogram.h"
#include "sim/stream_model.h"

namespace cdpu::hw
{

FlateDecompressorPU::FlateDecompressorPU(const CdpuConfig &config)
    : config_(config),
      model_(sim::placementModel(config.placement, config.clockGhz)),
      memory_(), tlb_(config.tlbEntries)
{}

Result<PuResult>
FlateDecompressorPU::run(ByteSpan compressed, Bytes *output)
{
    flatelite::FileTrace trace;
    auto decoded = flatelite::decompress(compressed, &trace);
    if (!decoded.ok())
        return decoded.status();
    if (output)
        *output = std::move(decoded).value();
    return runFromTrace(trace, compressed.size());
}

PuResult
FlateDecompressorPU::runFromTrace(const flatelite::FileTrace &trace,
                                  std::size_t compressed_bytes)
{
    HuffmanExpanderUnit huff(config_);
    Lz77DecoderUnit lz77(config_, memory_);

    u64 compute = 0;
    for (const auto &block : trace.blocks) {
        if (!block.compressed) {
            lz77.literal(block.regenSize);
            continue;
        }
        // Unlike ZStd, every symbol (literals AND length/distance
        // codes) flows through the Huffman expander.
        u64 huff_cycles = huff.tableBuildCycles() +
                          huff.decodeCycles(block.symbolCount,
                                            block.streamBytes);
        u64 replay_before = lz77.cycles();
        std::size_t lit_cursor = 0;
        for (const auto &seq : block.sequences) {
            lz77.sequence(seq.literalLength, seq.matchLength,
                          seq.offset);
            lit_cursor += seq.literalLength;
        }
        lz77.literal(block.literalBytes - lit_cursor);
        u64 replay = lz77.cycles() - replay_before;
        compute += kZstdBlockOverheadCycles + huff_cycles + replay;
    }

    CallShape shape;
    shape.computeCycles = compute;
    shape.inBytes = compressed_bytes;
    shape.outBytes = trace.contentSize;
    shape.serializedStreamBytes = compressed_bytes;
    shape.callSequence = calls_++;
    shape.historyFallbacks = lz77.fallbacks();
    shape.fallbackCycles = lz77.fallbackCycles();
    return assembleCall(model_, memory_, tlb_, shape,
                        registry_, trace_, "flate_decomp");
}

FlateCompressorPU::FlateCompressorPU(const CdpuConfig &config)
    : config_(config),
      model_(sim::placementModel(config.placement, config.clockGhz)),
      memory_(), tlb_(config.tlbEntries)
{}

Result<PuResult>
FlateCompressorPU::run(ByteSpan input, Bytes *output)
{
    flatelite::CompressorConfig codec_config;
    codec_config.level = 6;
    codec_config.windowLog = std::clamp<unsigned>(
        floorLog2(std::max<std::size_t>(config_.historySramBytes, 1)),
        flatelite::kMinWindowLog, flatelite::kMaxWindowLog);
    codec_config.overrideMatchFinder = true;
    codec_config.matchFinderOverride = config_.hashTable;

    flatelite::FileTrace trace;
    lz77::MatchFinderStats stats;
    auto compressed =
        flatelite::compress(input, codec_config, &trace, &stats);
    if (!compressed.ok())
        return compressed.status();

    Lz77EncoderUnit lz77(config_);
    HuffmanCompressorUnit huff(config_);
    u64 entropy = 0;
    for (const auto &block : trace.blocks) {
        if (!block.compressed)
            continue;
        entropy += kZstdBlockOverheadCycles +
                   huff.statsCycles(block.regenSize) +
                   huff.dictBuildCycles() +
                   huff.encodeCycles(block.symbolCount);
    }

    u64 compute = lz77.cycles(stats, input.size()) + entropy;
    CallShape shape;
    shape.computeCycles = compute;
    shape.inBytes = input.size();
    shape.outBytes = compressed.value().size();
    shape.callSequence = calls_++;
    PuResult result = assembleCall(model_, memory_, tlb_, shape,
                                   registry_, trace_, "flate_comp");
    if (output)
        *output = std::move(compressed).value();
    return result;
}

} // namespace cdpu::hw

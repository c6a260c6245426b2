#include "cdpu/zstd_pu.h"

#include <algorithm>
#include <cmath>

#include "cdpu/call_assembly.h"
#include "cdpu/calibration.h"
#include "cdpu/fse_units.h"
#include "cdpu/huffman_units.h"
#include "cdpu/lz77_decoder_unit.h"
#include "cdpu/lz77_encoder_unit.h"
#include "common/histogram.h"
#include "sim/stream_model.h"

namespace cdpu::hw
{

ZstdDecompressorPU::ZstdDecompressorPU(const CdpuConfig &config)
    : config_(config),
      model_(sim::placementModel(config.placement, config.clockGhz)),
      memory_(), tlb_(config.tlbEntries)
{}

Result<PuResult>
ZstdDecompressorPU::run(ByteSpan compressed, Bytes *output)
{
    zstdlite::FileTrace trace;
    auto decoded = zstdlite::decompress(compressed, &trace);
    if (!decoded.ok())
        return decoded.status();
    if (output)
        *output = std::move(decoded).value();
    return runFromTrace(trace, compressed.size());
}

PuResult
ZstdDecompressorPU::runFromTrace(const zstdlite::FileTrace &trace,
                                 std::size_t compressed_bytes)
{
    HuffmanExpanderUnit huff(config_);
    FseExpanderUnit fse(config_);
    Lz77DecoderUnit lz77(config_, memory_);

    u64 compute = 0;
    for (const auto &block : trace.blocks) {
        if (block.type != zstdlite::BlockType::compressed) {
            // Raw/RLE blocks stream straight through the writer.
            lz77.literal(block.regenSize);
            continue;
        }

        u64 builds = 0;
        u64 lit_decode;
        if (block.literalsMode == zstdlite::LiteralsMode::huffman) {
            builds += huff.tableBuildCycles();
            lit_decode = huff.decodeCycles(block.litCount,
                                           block.litStreamBytes);
        } else {
            lit_decode = static_cast<u64>(std::ceil(
                static_cast<double>(block.litCount) /
                kLitCopyBytesPerCycle));
        }
        if (block.numSequences > 0) {
            builds += fse.tableBuildCycles(block.dynamicTables,
                                           !builtPredefined_);
            if (!block.dynamicTables)
                builtPredefined_ = true;
        }
        u64 seq_decode = fse.decodeCycles(block.numSequences);

        // LZ77 replay through the history SRAM / fallback path.
        u64 replay_before = lz77.cycles();
        std::size_t lit_cursor = 0;
        for (const auto &seq : block.sequences) {
            lz77.sequence(seq.literalLength, seq.matchLength,
                          seq.offset);
            lit_cursor += seq.literalLength;
        }
        std::size_t tail = block.litCount - lit_cursor;
        lz77.literal(tail);
        u64 replay = lz77.cycles() - replay_before;

        // Block stages serialize through the literal buffer: the
        // writer cannot finish before the expander has produced the
        // block's literals, and table builds precede both.
        compute += builds + kZstdBlockOverheadCycles + lit_decode +
                   seq_decode + replay;
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
                        registry_, trace_, "zstd_decomp");
}

ZstdCompressorPU::ZstdCompressorPU(const CdpuConfig &config)
    : config_(config),
      model_(sim::placementModel(config.placement, config.clockGhz)),
      memory_(), tlb_(config.tlbEntries)
{}

Result<PuResult>
ZstdCompressorPU::run(ByteSpan input, Bytes *output)
{
    // Window limited to the history SRAM; LZ77 encoder reused from the
    // Snappy compressor, hence Snappy-style hash and greedy parse
    // (the paper's stated reason its ZStd ratio trails software).
    zstdlite::CompressorConfig codec_config;
    codec_config.level = 3;
    codec_config.windowLog = std::clamp<unsigned>(
        floorLog2(std::max<std::size_t>(config_.historySramBytes, 1)),
        zstdlite::kMinWindowLog, zstdlite::kMaxWindowLog);
    codec_config.overrideMatchFinder = true;
    codec_config.matchFinderOverride = config_.hashTable;
    codec_config.skipAccelerationOverride = false;

    zstdlite::FileTrace trace;
    lz77::MatchFinderStats stats;
    auto compressed =
        zstdlite::compress(input, codec_config, &trace, &stats);
    if (!compressed.ok())
        return compressed.status();

    Lz77EncoderUnit lz77(config_);
    HuffmanCompressorUnit huff(config_);
    FseCompressorUnit fse(config_);

    u64 entropy = 0;
    for (const auto &block : trace.blocks) {
        if (block.type != zstdlite::BlockType::compressed)
            continue;
        entropy += kZstdBlockOverheadCycles;
        if (block.literalsMode == zstdlite::LiteralsMode::huffman) {
            entropy += huff.statsCycles(block.litCount) +
                       huff.dictBuildCycles() +
                       huff.encodeCycles(block.litCount);
        }
        if (block.numSequences > 0) {
            entropy += fse.statsCycles(block.numSequences) +
                       fse.tableBuildCycles() +
                       fse.encodeCycles(block.numSequences);
        }
    }

    // The Huffman stage needs two passes per block, so the LZ77
    // output is buffered and the stages serialize (Figure 10's PQ).
    u64 compute = lz77.cycles(stats, input.size()) + entropy;
    CallShape shape;
    shape.computeCycles = compute;
    shape.inBytes = input.size();
    shape.outBytes = compressed.value().size();
    shape.callSequence = calls_++;
    PuResult result = assembleCall(model_, memory_, tlb_, shape,
                                   registry_, trace_, "zstd_comp");
    if (output)
        *output = std::move(compressed).value();
    return result;
}

} // namespace cdpu::hw

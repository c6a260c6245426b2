/**
 * @file
 * FlateLite registration. The frame has no self-delimiting stream
 * units (compressed blocks end at a bitstream end-of-block symbol, not
 * a byte length), so both session directions are buffering adapters.
 */

#include "codec/vtables.h"

#include "codec/adapter_sessions.h"
#include "codec/registry.h"
#include "flatelite/compress.h"
#include "flatelite/decompress.h"

namespace cdpu::codec::detail
{

namespace
{

Status
flateliteCompressInto(ByteSpan input, const CodecParams &params,
                      Bytes &out, Scratch &scratch)
{
    flatelite::CompressorConfig config;
    config.level = params.level;
    config.windowLog = params.windowLog;
    return flatelite::compressInto(input, out, config, scratch.parse,
                                   scratch.flatelite);
}

Status
flateliteDecompressInto(ByteSpan input, Bytes &out, Scratch &scratch)
{
    return flatelite::decompressInto(input, out, scratch.flatelite);
}

std::size_t
flateliteMaxCompressedSize(std::size_t input_size)
{
    // Raw-block fallback: ~4 bytes of skeleton per 64 KiB block plus
    // the frame header.
    return input_size + input_size / 8192 + 64;
}

std::unique_ptr<CompressSession>
makeFlateCompressSession(const CodecParams &params)
{
    return std::make_unique<BufferedCompressSession>(
        flateliteCompressInto, params);
}

std::unique_ptr<DecompressSession>
makeFlateDecompressSession()
{
    return std::make_unique<BufferedDecompressSession>(
        flateliteDecompressInto);
}

} // namespace

const CodecVTable &
flateliteVTable()
{
    static const CodecVTable vtable = {
        .caps =
            {
                .id = CodecId::flatelite,
                .name = "flatelite",
                .displayName = "Flate",
                .hasLevels = true,
                .minLevel = 1,
                .maxLevel = 9,
                .defaultLevel = 6,
                .hasWindow = true,
                .minWindowLog = flatelite::kMinWindowLog,
                .maxWindowLog = flatelite::kMaxWindowLog,
                .defaultWindowLog = flatelite::kMaxWindowLog,
                .maxExpansionNum = 8193,
                .maxExpansionDen = 8192,
                .maxExpansionSlop = 64,
                .incrementalCompress = false,
                .incrementalDecompress = false,
                .streamingSharesBufferFormat = true,
            },
        .compressInto = flateliteCompressInto,
        .decompressInto = flateliteDecompressInto,
        .maxCompressedSize = flateliteMaxCompressedSize,
        .makeCompressSession = makeFlateCompressSession,
        .makeDecompressSession = makeFlateDecompressSession,
    };
    return vtable;
}

} // namespace cdpu::codec::detail

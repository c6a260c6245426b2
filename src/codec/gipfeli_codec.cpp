/**
 * @file
 * GipfeliLite registration. The paper's taxonomy gives Gipfeli no
 * levels and a fixed 64 KiB window; the frame interleaves its class
 * tables with one bitstream, so sessions are buffering adapters.
 */

#include "codec/vtables.h"

#include "codec/adapter_sessions.h"
#include "codec/registry.h"
#include "gipfeli/gipfeli.h"

namespace cdpu::codec::detail
{

namespace
{

Status
gipfeliCompressInto(ByteSpan input, const CodecParams & /*params*/,
                    Bytes &out, Scratch &scratch)
{
    gipfeli::compressInto(input, out, scratch.parse, scratch.gipfeli);
    return Status::okStatus();
}

Status
gipfeliDecompressInto(ByteSpan input, Bytes &out, Scratch & /*scratch*/)
{
    return gipfeli::decompressInto(input, out);
}

std::size_t
gipfeliMaxCompressedSize(std::size_t input_size)
{
    // Worst case is all class-C literals in full runs: 326 bits per
    // 32 input bytes (163/128), plus magic, class tables and varints.
    return input_size + (input_size * 35) / 128 + 160;
}

std::unique_ptr<CompressSession>
makeGipfeliCompressSession(const CodecParams &params)
{
    return std::make_unique<BufferedCompressSession>(
        gipfeliCompressInto, params);
}

std::unique_ptr<DecompressSession>
makeGipfeliDecompressSession()
{
    return std::make_unique<BufferedDecompressSession>(
        gipfeliDecompressInto);
}

} // namespace

const CodecVTable &
gipfeliVTable()
{
    static const CodecVTable vtable = {
        .caps =
            {
                .id = CodecId::gipfeli,
                .name = "gipfeli",
                .displayName = "Gipfeli",
                .hasLevels = false,
                .hasWindow = false,
                .defaultWindowLog = 16, // Fixed 64 KiB window.
                .maxExpansionNum = 163,
                .maxExpansionDen = 128,
                .maxExpansionSlop = 160,
                .incrementalCompress = false,
                .incrementalDecompress = false,
                .streamingSharesBufferFormat = true,
            },
        .compressInto = gipfeliCompressInto,
        .decompressInto = gipfeliDecompressInto,
        .maxCompressedSize = gipfeliMaxCompressedSize,
        .makeCompressSession = makeGipfeliCompressSession,
        .makeDecompressSession = makeGipfeliDecompressSession,
    };
    return vtable;
}

} // namespace cdpu::codec::detail

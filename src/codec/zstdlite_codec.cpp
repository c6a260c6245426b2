/**
 * @file
 * ZstdLite registration. Decompression streams block-incrementally
 * (zstdlite::StreamDecoder — blocks are self-delimiting); compression
 * buffers, because the frame header carries contentSize before the
 * first block, so the session is an adapter producing exactly the
 * whole-buffer frame.
 */

#include "codec/vtables.h"

#include "codec/adapter_sessions.h"
#include "codec/registry.h"
#include "zstdlite/compress.h"
#include "zstdlite/decompress.h"

namespace cdpu::codec::detail
{

namespace
{

Status
zstdliteCompressInto(ByteSpan input, const CodecParams &params,
                     Bytes &out, Scratch &scratch)
{
    zstdlite::CompressorConfig config;
    config.level = params.level;
    config.windowLog = params.windowLog;
    return zstdlite::compressInto(input, out, config, scratch.parse,
                                  scratch.zstdlite);
}

Status
zstdliteDecompressInto(ByteSpan input, Bytes &out, Scratch &scratch)
{
    return zstdlite::decompressInto(input, out, scratch.zstdlite);
}

std::size_t
zstdliteMaxCompressedSize(std::size_t input_size)
{
    // Raw-block fallback bounds expansion to the per-block skeleton
    // (~4 bytes per 120 KiB block) plus the frame header.
    return input_size + input_size / 16384 + 64;
}

/** Incremental decompress session over StreamDecoder. */
class ZstdStreamDecompressSession final : public DecompressSession
{
  public:
    Status feed(ByteSpan chunk) override
    {
        if (finished_)
            return Status::invalid("feed after finish");
        return decoder_.feed(chunk);
    }

    Status finish() override
    {
        finished_ = true;
        return decoder_.finish();
    }

    std::size_t drain(Bytes &out) override
    {
        return decoder_.drainInto(out);
    }

  private:
    zstdlite::StreamDecoder decoder_;
    bool finished_ = false;
};

std::unique_ptr<CompressSession>
makeZstdCompressSession(const CodecParams &params)
{
    return std::make_unique<BufferedCompressSession>(
        zstdliteCompressInto, params);
}

std::unique_ptr<DecompressSession>
makeZstdDecompressSession()
{
    return std::make_unique<ZstdStreamDecompressSession>();
}

} // namespace

const CodecVTable &
zstdliteVTable()
{
    static const CodecVTable vtable = {
        .caps =
            {
                .id = CodecId::zstdlite,
                .name = "zstdlite",
                .displayName = "ZStd",
                .hasLevels = true,
                .minLevel = zstdlite::kMinLevel,
                .maxLevel = zstdlite::kMaxLevel,
                .defaultLevel = zstdlite::kDefaultLevel,
                .hasWindow = true,
                .minWindowLog = zstdlite::kMinWindowLog,
                .maxWindowLog = zstdlite::kMaxWindowLog,
                .defaultWindowLog = 17,
                .maxExpansionNum = 16385,
                .maxExpansionDen = 16384,
                .maxExpansionSlop = 64,
                .incrementalCompress = false,
                .incrementalDecompress = true,
                .streamingSharesBufferFormat = true,
            },
        .compressInto = zstdliteCompressInto,
        .decompressInto = zstdliteDecompressInto,
        .maxCompressedSize = zstdliteMaxCompressedSize,
        .makeCompressSession = makeZstdCompressSession,
        .makeDecompressSession = makeZstdDecompressSession,
    };
    return vtable;
}

} // namespace cdpu::codec::detail

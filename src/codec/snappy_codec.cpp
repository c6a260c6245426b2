/**
 * @file
 * Snappy registration: raw buffers for the whole-buffer entry points,
 * the framing format (snappy/framing.h) for streaming sessions. The
 * two containers differ on purpose — the real library has the same
 * split — so caps.streamingSharesBufferFormat is false.
 */

#include "codec/vtables.h"

#include "codec/registry.h"
#include "snappy/compress.h"
#include "snappy/decompress.h"
#include "snappy/framing.h"

namespace cdpu::codec::detail
{

namespace
{

Status
snappyCompressInto(ByteSpan input, const CodecParams & /*params*/,
                   Bytes &out, Scratch &scratch)
{
    // Snappy has no levels and a fixed 64 KiB window.
    snappy::compressInto(input, out, scratch.parse);
    return Status::okStatus();
}

Status
snappyDecompressInto(ByteSpan input, Bytes &out, Scratch & /*scratch*/)
{
    return snappy::decompressInto(input, out);
}

/** Framed streaming compressor over FrameWriter: chunk boundaries
 *  depend only on cumulative input, never on feed() granularity. */
class FramedCompressSession final : public CompressSession
{
  public:
    Status feed(ByteSpan chunk) override
    {
        if (finished_)
            return Status::invalid("feed after finish");
        writer_.write(chunk);
        return Status::okStatus();
    }

    Status finish() override
    {
        if (!finished_) {
            finished_ = true;
            writer_.finishInto(pending_);
        }
        return Status::okStatus();
    }

    std::size_t drain(Bytes &out) override
    {
        std::size_t appended = writer_.drainInto(out);
        appended += pending_.size();
        out.insert(out.end(), pending_.begin(), pending_.end());
        pending_.clear();
        return appended;
    }

  private:
    snappy::FrameWriter writer_;
    Bytes pending_;
    bool finished_ = false;
};

/** Framed streaming decompressor over FrameReader. */
class FramedDecompressSession final : public DecompressSession
{
  public:
    Status feed(ByteSpan chunk) override
    {
        if (finished_)
            return Status::invalid("feed after finish");
        return reader_.feed(chunk);
    }

    Status finish() override
    {
        finished_ = true;
        return reader_.finish();
    }

    std::size_t drain(Bytes &out) override
    {
        return reader_.drainInto(out);
    }

  private:
    snappy::FrameReader reader_;
    bool finished_ = false;
};

std::unique_ptr<CompressSession>
makeFramedCompressSession(const CodecParams & /*params*/)
{
    return std::make_unique<FramedCompressSession>();
}

std::unique_ptr<DecompressSession>
makeFramedDecompressSession()
{
    return std::make_unique<FramedDecompressSession>();
}

} // namespace

const CodecVTable &
snappyVTable()
{
    static const CodecVTable vtable = {
        .caps =
            {
                .id = CodecId::snappy,
                .name = "snappy",
                .displayName = "Snappy",
                .hasLevels = false,
                .hasWindow = false,
                .defaultWindowLog = 16, // Fixed 64 KiB window.
                // 32 + n + n/6, matching snappy::maxCompressedSize.
                .maxExpansionNum = 7,
                .maxExpansionDen = 6,
                .maxExpansionSlop = 32,
                .incrementalCompress = true,
                .incrementalDecompress = true,
                .streamingSharesBufferFormat = false,
            },
        .compressInto = snappyCompressInto,
        .decompressInto = snappyDecompressInto,
        .maxCompressedSize = snappy::maxCompressedSize,
        .makeCompressSession = makeFramedCompressSession,
        .makeDecompressSession = makeFramedDecompressSession,
    };
    return vtable;
}

} // namespace cdpu::codec::detail

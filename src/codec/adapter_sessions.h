/**
 * @file
 * Whole-buffer session adapters for codecs whose container cannot be
 * produced or consumed incrementally (FlateLite and Gipfeli frames
 * carry no self-delimiting unit boundaries; the ZstdLite frame header
 * needs contentSize before the first block can be written). The
 * adapters satisfy the session contract — chunk-granularity-invariant
 * output, truncation surfaced as an error from the underlying decoder
 * at finish() — by accumulating everything and running the buffer
 * entry point once. Caps advertise this via incrementalCompress /
 * incrementalDecompress so callers can reason about scratch bounds.
 *
 * Internal to src/codec/ — include only from <name>_codec.cpp files.
 */

#ifndef CDPU_CODEC_ADAPTER_SESSIONS_H_
#define CDPU_CODEC_ADAPTER_SESSIONS_H_

#include <functional>
#include <utility>

#include "codec/registry.h"

namespace cdpu::codec::detail
{

/** Accumulates input; compresses once at finish(). std::function so
 *  pipeline codecs can buffer through their composed entry points. */
class BufferedCompressSession final : public CompressSession
{
  public:
    using CompressFn = std::function<Status(ByteSpan input,
                                            const CodecParams &params,
                                            Bytes &out, Scratch &scratch)>;

    BufferedCompressSession(CompressFn fn, const CodecParams &params)
        : fn_(std::move(fn)), params_(params)
    {
    }

    Status feed(ByteSpan chunk) override
    {
        if (finished_)
            return Status::invalid("feed after finish");
        in_.insert(in_.end(), chunk.begin(), chunk.end());
        return Status::okStatus();
    }

    Status finish() override
    {
        if (finished_)
            return failed_;
        finished_ = true;
        Scratch scratch;
        failed_ = fn_(ByteSpan(in_.data(), in_.size()), params_, out_,
                      scratch);
        return failed_;
    }

    std::size_t drain(Bytes &out) override
    {
        std::size_t appended = out_.size();
        out.insert(out.end(), out_.begin(), out_.end());
        out_.clear();
        return appended;
    }

  private:
    CompressFn fn_;
    CodecParams params_;
    Bytes in_;
    Bytes out_;
    bool finished_ = false;
    Status failed_;
};

/** Accumulates compressed bytes; decompresses once at finish(). The
 *  underlying whole-buffer decoder rejects truncated frames, so the
 *  session's truncation-is-corruption contract holds. */
class BufferedDecompressSession final : public DecompressSession
{
  public:
    using DecompressFn =
        std::function<Status(ByteSpan input, Bytes &out, Scratch &scratch)>;

    explicit BufferedDecompressSession(DecompressFn fn)
        : fn_(std::move(fn))
    {
    }

    Status feed(ByteSpan chunk) override
    {
        if (finished_)
            return Status::invalid("feed after finish");
        in_.insert(in_.end(), chunk.begin(), chunk.end());
        return Status::okStatus();
    }

    Status finish() override
    {
        if (finished_)
            return failed_;
        finished_ = true;
        Scratch scratch;
        failed_ = fn_(ByteSpan(in_.data(), in_.size()), out_, scratch);
        return failed_;
    }

    std::size_t drain(Bytes &out) override
    {
        std::size_t appended = out_.size();
        out.insert(out.end(), out_.begin(), out_.end());
        out_.clear();
        return appended;
    }

  private:
    DecompressFn fn_;
    Bytes in_;
    Bytes out_;
    bool finished_ = false;
    Status failed_;
};

} // namespace cdpu::codec::detail

#endif // CDPU_CODEC_ADAPTER_SESSIONS_H_

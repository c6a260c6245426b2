#include "zstdlite/decompress.h"

#include <algorithm>

#include "common/mem.h"
#include "common/varint.h"

namespace cdpu::zstdlite
{

Result<FrameHeader>
peekFrameHeader(ByteSpan data)
{
    std::size_t pos = 0;
    return readFrameHeader(data, pos);
}

namespace
{

/**
 * Decodes one block starting at @p pos (advanced past it). @p out
 * carries the decoded history so far — match offsets resolve against
 * it — and @p content_size bounds cumulative output. Sets @p last
 * from the block header. Shared by the whole-buffer path and the
 * incremental StreamDecoder so the two agree byte for byte. Rebuilds
 * the block's literals and tables in @p scratch. Records the block in
 * @p trace_out when one is given.
 */
Status
decodeBlock(ByteSpan data, std::size_t &pos, u64 window_size,
            u64 content_size, Bytes &out, Scratch &scratch,
            BlockTrace *trace_out, bool &last)
{
    if (pos >= data.size())
        return Status::corrupt("missing last block");
    u8 block_header = data[pos++];
    last = block_header & 1;
    u8 type_bits = (block_header >> 1) & 3;
    if (type_bits > static_cast<u8>(BlockType::compressed))
        return Status::corrupt("bad block type");
    auto type = static_cast<BlockType>(type_bits);

    auto regen = getVarint(data, pos);
    if (!regen.ok())
        return regen.status();
    // The format bound comes first: it holds even when a tampered
    // content size would admit more, so the RLE insert and the section
    // caps below never allocate past one block's legal maximum.
    if (regen.value() > kMaxBlockRegenSize)
        return Status::corrupt("block size exceeds format bound");
    if (out.size() + regen.value() > content_size)
        return Status::corrupt("blocks exceed content size");
    std::size_t regen_size = regen.value();

    if (trace_out) {
        trace_out->type = type;
        trace_out->regenSize = regen_size;
    }

    switch (type) {
      case BlockType::raw: {
        if (pos + regen_size > data.size())
            return Status::corrupt("raw block truncated");
        out.insert(out.end(), data.begin() + pos,
                   data.begin() + pos + regen_size);
        pos += regen_size;
        return Status::okStatus();
      }
      case BlockType::rle: {
        if (pos >= data.size())
            return Status::corrupt("rle block truncated");
        out.insert(out.end(), regen_size, data[pos++]);
        return Status::okStatus();
      }
      case BlockType::compressed:
        break;
    }

    auto comp_size = getVarint(data, pos);
    if (!comp_size.ok())
        return comp_size.status();
    if (pos + comp_size.value() > data.size())
        return Status::corrupt("compressed block truncated");
    ByteSpan body = data.subspan(pos, comp_size.value());
    pos += comp_size.value();

    std::size_t body_pos = 0;
    DecodedLiterals literals;
    CDPU_RETURN_IF_ERROR(decodeLiteralsSection(
        body, body_pos, regen_size, scratch.literals, literals));
    if (trace_out) {
        trace_out->literalsMode = literals.mode;
        trace_out->litCount = literals.bytes.size();
        trace_out->litStreamBytes = literals.streamBytes;
    }
    // The block is sized only now that its regen size has passed the
    // format and content-size bounds.
    const std::size_t base = out.size();
    out.resize(base + regen_size + mem::kWildCopySlop);
    std::size_t op = base;
    Status status = executeSequencesSection(
        body, body_pos, literals.bytes, window_size, base + regen_size,
        out, op, scratch.sequences, trace_out);
    if (status.ok() && body_pos != body.size())
        status = Status::corrupt("trailing bytes in block body");
    out.resize(status.ok() ? base + regen_size : op);
    return status;
}

/**
 * Block-completeness probe for the incremental decoder: determines
 * whether the block starting at @p pos is fully present without
 * decoding it, walking only the self-delimiting skeleton (header
 * byte, varints, and the compressed-body length). Sets @p complete;
 * returns corruptData only for damage visible in the skeleton itself
 * (an over-long varint).
 */
Status
probeBlock(ByteSpan data, std::size_t pos, bool &complete)
{
    complete = false;
    auto varint = [&](u64 &value) -> Result<bool> {
        // A varint is complete at its first byte without the
        // continuation bit; >10 bytes of continuation is corrupt.
        std::size_t len = 0;
        while (pos + len < data.size() && len < 10) {
            if (!(data[pos + len] & 0x80)) {
                auto parsed = getVarint(data, pos);
                if (!parsed.ok())
                    return parsed.status();
                value = parsed.value();
                return true;
            }
            ++len;
        }
        if (len >= 10)
            return Status::corrupt("varint too long");
        return false; // Ran out of bytes mid-varint.
    };

    if (pos >= data.size())
        return Status::okStatus();
    u8 block_header = data[pos++];
    u8 type_bits = (block_header >> 1) & 3;

    u64 regen_size = 0;
    auto regen_done = varint(regen_size);
    if (!regen_done.ok())
        return regen_done.status();
    if (!regen_done.value())
        return Status::okStatus();

    switch (type_bits) {
      case static_cast<u8>(BlockType::raw):
        complete = pos + regen_size <= data.size();
        break;
      case static_cast<u8>(BlockType::rle):
        complete = pos < data.size();
        break;
      case static_cast<u8>(BlockType::compressed): {
        u64 comp_size = 0;
        auto comp_done = varint(comp_size);
        if (!comp_done.ok())
            return comp_done.status();
        complete =
            comp_done.value() && pos + comp_size <= data.size();
        break;
      }
      default:
        // Bad type: "complete" so decodeBlock reports the corruption.
        complete = true;
        break;
    }
    return Status::okStatus();
}

} // namespace

Status
decompressInto(ByteSpan data, Bytes &out, Scratch &scratch,
               FileTrace *trace)
{
    out.clear();
    std::size_t pos = 0;
    auto header = readFrameHeader(data, pos);
    if (!header.ok())
        return header.status();
    const u64 window_size = 1ull << header.value().windowLog;
    if (header.value().contentSize > (1ull << 32))
        return Status::corrupt("content size beyond 4 GiB bound");

    if (trace) {
        *trace = FileTrace{};
        trace->contentSize = header.value().contentSize;
        trace->compressedSize = data.size();
    }

    // Reserve conservatively: the claimed size is untrusted until the
    // stream fully decodes, so cap the up-front allocation.
    out.reserve(std::min<u64>(header.value().contentSize, 64 * kMiB));

    bool saw_last = false;
    while (!saw_last) {
        CDPU_RETURN_IF_ERROR(decodeBlock(
            data, pos, window_size, header.value().contentSize, out,
            scratch, trace ? &trace->blocks.emplace_back() : nullptr,
            saw_last));
    }

    if (out.size() != header.value().contentSize)
        return Status::corrupt("content size mismatch");
    if (pos != data.size())
        return Status::corrupt("trailing bytes after last block");
    return Status::okStatus();
}

Status
decompressInto(ByteSpan data, Bytes &out, FileTrace *trace)
{
    Scratch scratch;
    return decompressInto(data, out, scratch, trace);
}

Result<Bytes>
decompress(ByteSpan data, FileTrace *trace)
{
    Bytes out;
    CDPU_RETURN_IF_ERROR(decompressInto(data, out, trace));
    return out;
}

Status
StreamDecoder::feed(ByteSpan data)
{
    if (!failed_.ok())
        return failed_;
    buffer_.insert(buffer_.end(), data.begin(), data.end());

    if (!headerParsed_) {
        // The header is magic + windowLog (5 bytes) + a contentSize
        // varint; probe for completeness before parsing so a header
        // split across feeds is "wait", not "corrupt".
        bool complete = false;
        if (buffer_.size() >= 6) {
            std::size_t len = 0;
            while (5 + len < buffer_.size() && len < 10) {
                if (!(buffer_[5 + len] & 0x80)) {
                    complete = true;
                    break;
                }
                ++len;
            }
            if (len >= 10)
                complete = true; // Over-long varint: let the parser
                                 // report the corruption.
        }
        if (!complete)
            return Status::okStatus();
        std::size_t pos = 0;
        auto header = readFrameHeader(
            ByteSpan(buffer_.data(), buffer_.size()), pos);
        if (!header.ok()) {
            failed_ = header.status();
            return failed_;
        }
        if (header.value().contentSize > (1ull << 32)) {
            failed_ = Status::corrupt("content size beyond 4 GiB bound");
            return failed_;
        }
        header_ = header.value();
        headerParsed_ = true;
        cursor_ = pos;
        out_.reserve(std::min<u64>(header_.contentSize, 64 * kMiB));
    }

    while (!sawLast_) {
        ByteSpan span(buffer_.data(), buffer_.size());
        bool complete = false;
        failed_ = probeBlock(span, cursor_, complete);
        if (!failed_.ok())
            return failed_;
        if (!complete)
            break; // Wait for more bytes.
        failed_ = decodeBlock(span, cursor_, 1ull << header_.windowLog,
                              header_.contentSize, out_, scratch_, nullptr,
                              sawLast_);
        if (!failed_.ok())
            return failed_;
    }

    // Consumed compressed bytes are never re-read (history lives in
    // out_), so compact the prefix once it dominates the buffer.
    if (cursor_ > 64 * kKiB && cursor_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(cursor_));
        cursor_ = 0;
    }
    return Status::okStatus();
}

Status
StreamDecoder::finish()
{
    if (!failed_.ok())
        return failed_;
    if (!headerParsed_) {
        failed_ = Status::corrupt("frame header truncated");
        return failed_;
    }
    if (!sawLast_) {
        // Cut off either between blocks or mid-block — truncation
        // is corruption, never a short success.
        failed_ = cursor_ == buffer_.size()
                      ? Status::corrupt("missing last block")
                      : Status::corrupt("block truncated");
        return failed_;
    }
    if (out_.size() != header_.contentSize) {
        failed_ = Status::corrupt("content size mismatch");
        return failed_;
    }
    if (cursor_ != buffer_.size()) {
        failed_ = Status::corrupt("trailing bytes after last block");
        return failed_;
    }
    return Status::okStatus();
}

std::size_t
StreamDecoder::drainInto(Bytes &out)
{
    std::size_t appended = out_.size() - drained_;
    out.insert(out.end(),
               out_.begin() + static_cast<std::ptrdiff_t>(drained_),
               out_.end());
    drained_ = out_.size();
    return appended;
}

} // namespace cdpu::zstdlite

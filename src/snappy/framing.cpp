#include "snappy/framing.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/le.h"
#include "snappy/decompress.h"

namespace cdpu::snappy
{

namespace
{

/** The chunk every framed stream starts with: the stream-identifier
 *  type, a 3-byte length of 6, then the identifier itself. */
constexpr u8 kStreamIdentifierChunk[] = {
    static_cast<u8>(ChunkType::streamIdentifier), 6, 0, 0,
    's', 'N', 'a', 'P', 'p', 'Y'};
constexpr ByteSpan kStreamIdentifier(kStreamIdentifierChunk + 4, 6);

void
putChunkHeader(Bytes &out, ChunkType type, std::size_t length)
{
    out.push_back(static_cast<u8>(type));
    out.push_back(static_cast<u8>(length & 0xff));
    out.push_back(static_cast<u8>((length >> 8) & 0xff));
    out.push_back(static_cast<u8>((length >> 16) & 0xff));
}

} // namespace

FrameWriter::FrameWriter()
    : out_(std::begin(kStreamIdentifierChunk),
           std::end(kStreamIdentifierChunk))
{
}

void
FrameWriter::write(ByteSpan data)
{
    std::size_t pos = 0;
    while (pos < data.size()) {
        std::size_t take = std::min(kMaxChunkPayload - pending_.size(),
                                    data.size() - pos);
        pending_.insert(pending_.end(), data.begin() + pos,
                        data.begin() + pos + take);
        pos += take;
        if (pending_.size() == kMaxChunkPayload) {
            emitChunk(pending_);
            pending_.clear();
        }
    }
}

void
FrameWriter::emitChunk(ByteSpan payload)
{
    u32 masked = maskCrc(crc32c(payload));
    Bytes compressed = compress(payload, config_);
    if (compressed.size() < payload.size()) {
        putChunkHeader(out_, ChunkType::compressedData,
                       4 + compressed.size());
        putLe<u32>(out_, masked);
        out_.insert(out_.end(), compressed.begin(), compressed.end());
    } else {
        putChunkHeader(out_, ChunkType::uncompressedData,
                       4 + payload.size());
        putLe<u32>(out_, masked);
        out_.insert(out_.end(), payload.begin(), payload.end());
    }
}

std::size_t
FrameWriter::drainInto(Bytes &out)
{
    std::size_t appended = out_.size();
    out.insert(out.end(), out_.begin(), out_.end());
    out_.clear();
    return appended;
}

void
FrameWriter::finishInto(Bytes &out)
{
    if (!pending_.empty()) {
        emitChunk(pending_);
        pending_.clear();
    }
    out.insert(out.end(), out_.begin(), out_.end());
    out_.assign(std::begin(kStreamIdentifierChunk),
                std::end(kStreamIdentifierChunk));
}

Bytes
FrameWriter::finish()
{
    Bytes result;
    finishInto(result);
    return result;
}

Status
FrameReader::processChunk(u8 type_byte, ByteSpan body)
{
    if (type_byte == static_cast<u8>(ChunkType::streamIdentifier)) {
        if (!std::ranges::equal(body, kStreamIdentifier)) {
            return Status::corrupt("bad stream identifier");
        }
        sawIdentifier_ = true;
        return Status::okStatus();
    }
    if (!sawIdentifier_)
        return Status::corrupt("data before stream identifier");

    switch (type_byte) {
      case static_cast<u8>(ChunkType::compressedData): {
        // The CRC field alone needs 4 bytes; a lying chunk-length
        // header must not let getLe read past the body.
        if (body.size() < 4)
            return Status::corrupt("compressed chunk too short");
        // Bound the chunk before decoding it: the 24-bit chunk length
        // admits bodies far larger than any 64 KiB payload can
        // compress to, and the claimed uncompressed length is checked
        // up front so an oversized claim cannot size the scratch
        // buffer first.
        if (body.size() > 4 + maxCompressedSize(kMaxChunkPayload))
            return Status::corrupt("chunk exceeds 64 KiB limit");
        auto claimed = uncompressedLength(body.subspan(4));
        if (!claimed.ok())
            return claimed.status();
        if (claimed.value() > kMaxChunkPayload)
            return Status::corrupt("chunk exceeds 64 KiB limit");
        u32 expected = unmaskCrc(getLe<u32>(body, 0));
        CDPU_RETURN_IF_ERROR(decompressInto(body.subspan(4), scratch_));
        if (scratch_.size() > kMaxChunkPayload)
            return Status::corrupt("chunk exceeds 64 KiB limit");
        if (crc32c(scratch_) != expected)
            return Status::corrupt("chunk CRC mismatch");
        out_.insert(out_.end(), scratch_.begin(), scratch_.end());
        break;
      }
      case static_cast<u8>(ChunkType::uncompressedData): {
        if (body.size() < 4)
            return Status::corrupt("uncompressed chunk too short");
        ByteSpan payload = body.subspan(4);
        if (payload.size() > kMaxChunkPayload)
            return Status::corrupt("chunk exceeds 64 KiB limit");
        if (crc32c(payload) != unmaskCrc(getLe<u32>(body, 0)))
            return Status::corrupt("chunk CRC mismatch");
        out_.insert(out_.end(), payload.begin(), payload.end());
        break;
      }
      default:
        // Spec: 0x02-0x7f are unskippable, 0x80-0xfd and padding
        // are skippable.
        if (type_byte >= 0x02 && type_byte <= 0x7f)
            return Status::corrupt("unskippable unknown chunk");
        break; // skip
    }
    return Status::okStatus();
}

Status
FrameReader::feed(ByteSpan data)
{
    if (!failed_.ok())
        return failed_;
    buffer_.insert(buffer_.end(), data.begin(), data.end());

    // Decode every chunk whose header and body are both complete.
    while (cursor_ + 4 <= buffer_.size()) {
        std::size_t length =
            buffer_[cursor_ + 1] |
            (static_cast<std::size_t>(buffer_[cursor_ + 2]) << 8) |
            (static_cast<std::size_t>(buffer_[cursor_ + 3]) << 16);
        if (cursor_ + 4 + length > buffer_.size())
            break; // Body incomplete; wait for more bytes.
        u8 type_byte = buffer_[cursor_];
        ByteSpan body(buffer_.data() + cursor_ + 4, length);
        failed_ = processChunk(type_byte, body);
        if (!failed_.ok())
            return failed_;
        cursor_ += 4 + length;
    }

    // Compact the consumed prefix once it dominates the buffer, so a
    // long stream decodes over bounded scratch.
    if (cursor_ > 64 * kKiB && cursor_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(),
                      buffer_.begin() +
                          static_cast<std::ptrdiff_t>(cursor_));
        cursor_ = 0;
    }
    return Status::okStatus();
}

Status
FrameReader::finish()
{
    if (!failed_.ok())
        return failed_;
    // A partial trailing chunk is a truncated stream: report the
    // corruption instead of a short success.
    if (cursor_ != buffer_.size()) {
        failed_ = cursor_ + 4 > buffer_.size()
                      ? Status::corrupt("framing chunk header truncated")
                      : Status::corrupt("framing chunk body truncated");
        return failed_;
    }
    if (!sawIdentifier_) {
        failed_ = Status::corrupt("missing stream identifier");
        return failed_;
    }
    return Status::okStatus();
}

std::size_t
FrameReader::drainInto(Bytes &out)
{
    std::size_t appended = out_.size();
    out.insert(out.end(), out_.begin(), out_.end());
    out_.clear();
    return appended;
}

Bytes
frameCompress(ByteSpan data)
{
    FrameWriter writer;
    writer.write(data);
    return writer.finish();
}

Result<Bytes>
frameDecompress(ByteSpan framed)
{
    FrameReader reader;
    CDPU_RETURN_IF_ERROR(reader.feed(framed));
    CDPU_RETURN_IF_ERROR(reader.finish());
    Bytes out;
    reader.drainInto(out);
    return out;
}

} // namespace cdpu::snappy

/**
 * @file
 * Container frame writer and index parser (DESIGN.md §14).
 *
 * Byte layout (all integers little-endian, varints LEB128):
 *
 *   magic[4]="CDPC"  version u8  codecId u8  flags u8 (=0)
 *   [codecId==0xff: specLen varint, specLen spec-name bytes]
 *   blockCount varint   totalRegen varint
 *   blockCount x (offset varint, compSize varint, regenSize varint)
 *   indexCrc u32        <- CRC-32C over every preceding byte
 *   data                <- concatenated whole-buffer codec frames
 *
 * The index is deliberately redundant (explicit offsets AND sizes,
 * a total AND per-block regens): every redundancy is a consistency
 * check the parser enforces, so a tampered index has to lie
 * coherently across four constraints and a CRC before any claim of
 * its reaches an allocation or a codec.
 *
 * Base codecs are identified by their stable BaseCodecId byte;
 * pipeline codecs use the kPipelineCodecByte escape followed by their
 * spec string, which the parser resolves (and, for well-formed specs,
 * registers) through codecFromName. An unparseable spec is
 * corruptData like any other malformed header field.
 */

#include "container/container.h"

#include <algorithm>

#include "common/crc32c.h"
#include "common/le.h"
#include "common/varint.h"

namespace cdpu::container
{

Status
write(codec::CodecId id, ByteSpan input, const WriteOptions &options,
      Bytes &out)
{
    out.clear();
    const codec::CodecVTable &vtable = codec::registry(id);
    const codec::CodecCaps &caps = vtable.caps;
    const codec::CodecParams params = caps.clamp(
        options.level < 0 ? caps.defaultLevel : options.level,
        options.windowLog < 0
            ? caps.defaultWindowLog
            : static_cast<unsigned>(options.windowLog));

    std::size_t block_bytes = options.blockBytes;
    if (block_bytes == 0)
        block_bytes = input.empty() ? 1 : input.size();
    const std::size_t block_count =
        (input.size() + block_bytes - 1) / block_bytes;
    if (block_count > kMaxBlockCount) {
        return Status::invalid(
            "blockBytes=" + std::to_string(block_bytes) + " cuts " +
            std::to_string(input.size()) + " input bytes into " +
            std::to_string(block_count) +
            " blocks, over the container's " +
            std::to_string(kMaxBlockCount) + "-block cap");
    }

    // Compress every block first: the index needs the compressed
    // sizes before a single header byte can be written.
    Bytes data;
    Bytes block;
    codec::Scratch scratch;
    std::vector<std::pair<u64, u64>> sizes; // (compSize, regenSize)
    sizes.reserve(block_count);
    for (std::size_t start = 0; start < input.size();
         start += block_bytes) {
        const std::size_t take =
            std::min(block_bytes, input.size() - start);
        CDPU_RETURN_IF_ERROR(vtable.compressInto(
            input.subspan(start, take), params, block, scratch));
        sizes.emplace_back(block.size(), take);
        data.insert(data.end(), block.begin(), block.end());
    }

    out.insert(out.end(), kMagic.begin(), kMagic.end());
    out.push_back(kVersion);
    if (caps.isPipeline) {
        out.push_back(kPipelineCodecByte);
        out.push_back(0); // flags: reserved, must be zero.
        putVarint(out, caps.name.size());
        out.insert(out.end(), caps.name.begin(), caps.name.end());
    } else {
        out.push_back(static_cast<u8>(id));
        out.push_back(0); // flags: reserved, must be zero.
    }
    putVarint(out, block_count);
    putVarint(out, input.size());
    u64 offset = 0;
    for (const auto &[comp, regen] : sizes) {
        putVarint(out, offset);
        putVarint(out, comp);
        putVarint(out, regen);
        offset += comp;
    }
    putLe<u32>(out, crc32c(out));
    out.insert(out.end(), data.begin(), data.end());
    return Status::okStatus();
}

Result<FrameIndex>
parseIndex(ByteSpan frame)
{
    if (frame.size() < kMagic.size() + 3)
        return Status::corrupt("container shorter than its header");
    if (!std::equal(kMagic.begin(), kMagic.end(), frame.begin()))
        return Status::corrupt("bad container magic");
    std::size_t pos = kMagic.size();
    const u8 version = frame[pos++];
    if (version != kVersion) {
        return Status::corrupt("unsupported container version " +
                               std::to_string(version));
    }
    const u8 codec_byte = frame[pos++];
    if (codec_byte >= codec::kNumBaseCodecs &&
        codec_byte != kPipelineCodecByte) {
        return Status::corrupt("unknown container codec id " +
                               std::to_string(codec_byte));
    }
    const u8 flags = frame[pos++];
    if (flags != 0) {
        return Status::corrupt("reserved container flags set (" +
                               std::to_string(flags) + ")");
    }

    FrameIndex index;
    if (codec_byte == kPipelineCodecByte) {
        Result<u64> spec_len = getVarint(frame, pos);
        if (!spec_len.ok())
            return Status::corrupt("truncated container spec length");
        if (spec_len.value() > kMaxSpecNameBytes) {
            return Status::corrupt(
                "container spec name claims " +
                std::to_string(spec_len.value()) + " bytes, over the " +
                std::to_string(kMaxSpecNameBytes) + "-byte cap");
        }
        const std::size_t len =
            static_cast<std::size_t>(spec_len.value());
        if (frame.size() - pos < len)
            return Status::corrupt("truncated container spec name");
        std::string spec(reinterpret_cast<const char *>(frame.data()) +
                             pos,
                         len);
        pos += len;
        Result<codec::CodecId> id = codec::codecFromName(spec);
        if (!id.ok()) {
            return Status::corrupt("container spec \"" + spec +
                                   "\" is not a codec: " +
                                   id.status().message());
        }
        if (!codec::registry(id.value()).caps.isPipeline) {
            return Status::corrupt(
                "container spec \"" + spec +
                "\" names a base codec; base codecs use their wire id");
        }
        index.codec = id.value();
    } else {
        Result<codec::CodecId> id = codec::baseCodecFromWire(codec_byte);
        if (!id.ok())
            return id.status();
        index.codec = id.value();
    }

    Result<u64> block_count = getVarint(frame, pos);
    if (!block_count.ok())
        return Status::corrupt("truncated container block count");
    if (block_count.value() > kMaxBlockCount) {
        return Status::corrupt(
            "container claims " + std::to_string(block_count.value()) +
            " blocks, over the " + std::to_string(kMaxBlockCount) +
            "-block cap");
    }
    Result<u64> total_regen = getVarint(frame, pos);
    if (!total_regen.ok())
        return Status::corrupt("truncated container regen total");
    index.totalRegenBytes = total_regen.value();

    const std::size_t count =
        static_cast<std::size_t>(block_count.value());
    index.blocks.reserve(count);
    u64 running_offset = 0;
    u64 running_regen = 0;
    for (std::size_t i = 0; i < count; ++i) {
        BlockEntry entry;
        Result<u64> offset = getVarint(frame, pos);
        Result<u64> comp =
            offset.ok() ? getVarint(frame, pos) : offset;
        Result<u64> regen = comp.ok() ? getVarint(frame, pos) : comp;
        if (!regen.ok()) {
            return Status::corrupt("truncated container index entry " +
                                   std::to_string(i));
        }
        entry.offset = offset.value();
        entry.compSize = comp.value();
        entry.regenSize = regen.value();
        if (entry.offset != running_offset) {
            return Status::corrupt(
                "block " + std::to_string(i) + " offset " +
                std::to_string(entry.offset) +
                " breaks index contiguity (expected " +
                std::to_string(running_offset) + ")");
        }
        if (entry.compSize == 0 || entry.regenSize == 0) {
            return Status::corrupt("block " + std::to_string(i) +
                                   " claims an empty block");
        }
        if (entry.compSize > frame.size() ||
            running_offset + entry.compSize > frame.size()) {
            return Status::corrupt(
                "block " + std::to_string(i) +
                " claims more data than the container holds");
        }
        if (entry.regenSize > ~u64{0} - running_regen) {
            return Status::corrupt(
                "container regen total overflows at block " +
                std::to_string(i));
        }
        running_offset += entry.compSize;
        running_regen += entry.regenSize;
        index.blocks.push_back(entry);
    }
    if (running_regen != index.totalRegenBytes) {
        return Status::corrupt(
            "index entries regenerate " + std::to_string(running_regen) +
            " bytes but the header claims " +
            std::to_string(index.totalRegenBytes));
    }

    if (frame.size() - pos < 4)
        return Status::corrupt("container truncated before index CRC");
    const u32 stored = getLe<u32>(frame, pos);
    const u32 computed = crc32c(frame.first(pos));
    if (stored != computed)
        return Status::corrupt("container index CRC mismatch");
    pos += 4;

    index.dataStart = pos;
    index.dataBytes = static_cast<std::size_t>(running_offset);
    if (frame.size() - pos != running_offset) {
        return Status::corrupt(
            "container data section is " +
            std::to_string(frame.size() - pos) +
            " bytes, index claims " + std::to_string(running_offset));
    }
    return index;
}

} // namespace cdpu::container

#include "flatelite/decompress.h"

#include <algorithm>

#include "common/bitio.h"
#include "common/mem.h"
#include "common/varint.h"

namespace cdpu::flatelite
{

Result<FrameHeader>
peekFrameHeader(ByteSpan data)
{
    std::size_t pos = 0;
    return readFrameHeader(data, pos);
}

Status
readBlockCodes(ByteSpan data, std::size_t &pos, BlockCodes &codes)
{
    const std::size_t litlen_bytes = (kLitLenAlphabet + 1) / 2;
    const std::size_t dist_bytes = kDistanceAlphabet / 2;
    if (pos + litlen_bytes + dist_bytes > data.size())
        return Status::corrupt("flate tables truncated");
    huffman::unpackLengths(data.subspan(pos, litlen_bytes),
                           kLitLenAlphabet, codes.litlen.lengths);
    pos += litlen_bytes;
    huffman::unpackLengths(data.subspan(pos, dist_bytes),
                           kDistanceAlphabet, codes.dist.lengths);
    pos += dist_bytes;

    CDPU_RETURN_IF_ERROR(huffman::codesFromLengths(codes.litlen));
    codes.hasDistances =
        std::any_of(codes.dist.lengths.begin(), codes.dist.lengths.end(),
                    [](u8 len) { return len != 0; });
    if (codes.hasDistances)
        CDPU_RETURN_IF_ERROR(huffman::codesFromLengths(codes.dist));
    return Status::okStatus();
}

namespace
{

/** An element writes at most one match plus wildCopy's slop. */
constexpr std::size_t kElementRoom = kMaxMatchLength + mem::kWildCopySlop;

/**
 * Grows @p out so an element can start at @p op: geometrically with
 * what has been produced, capped at the block's claimed end, so a
 * tampered block size never drives an allocation.
 */
void
growForElement(Bytes &out, std::size_t op, std::size_t block_end)
{
    out.resize(std::max(op + kElementRoom,
                        std::min(2 * out.size() + 4 * kKiB,
                                 block_end + kElementRoom)));
}

/**
 * Decodes one compressed block straight into @p out, whose first @p op
 * bytes are history; @p op ends one past the last byte written, and
 * the caller trims @p out to it. Each element (a literal, or a length
 * and distance with their extra bits, at most 48 bits) decodes from
 * one bitWindow() and is checked once against the block budget, the
 * history and the window. Bits past the stream end read as zero; the
 * cursor check before each element and at the end-of-block symbol
 * rejects any element that crossed the end, which is exactly when a
 * decoder reading field by field fails (tests/fused_decode_test.cpp
 * keeps one as this loop's oracle).
 *
 * Instantiated twice so the untraced loop carries no trace test: with
 * @p kTraced it appends one sequence per match to @p trace, its
 * literal run being everything since the previous match ended, and at
 * the end of the block records its literal bytes and symbol count
 * (literals, two per match, and the end-of-block symbol).
 */
template <bool kTraced>
Status
decodeBlockFused(Scratch &scratch, ByteSpan stream, u64 window,
                 std::size_t regen_size, Bytes &out, std::size_t &op,
                 BlockTrace *trace)
{
    using Entry = FastTable::Entry;
    const BlockCodes &codes = scratch.codes;
    scratch.litlen.rebuild(codes.litlen, [](u16 sym) {
        if (sym < 256)
            return Entry{sym, 0, FastTable::kLiteral};
        if (sym == kEndOfBlock)
            return Entry{0, 0, FastTable::kEnd};
        // Symbols 257..285: the alphabet size bounds the code.
        const FlateBin bin = lengthFromCode(sym).value();
        return Entry{static_cast<u16>(bin.baseline), 0,
                     static_cast<u8>(FastTable::kBase | bin.extraBits)};
    });
    static const huffman::CodeTable kNoCodes;
    scratch.dist.rebuild(
        codes.hasDistances ? codes.dist : kNoCodes, [](u16 sym) {
            const FlateBin bin = distanceFromCode(sym).value();
            return Entry{static_cast<u16>(bin.baseline), 0,
                         static_cast<u8>(FastTable::kBase | bin.extraBits)};
        });
    const FastTable::View litlen = scratch.litlen.view();
    const FastTable::View dist = scratch.dist.view();

    const std::size_t block_end = op + regen_size;
    std::size_t match_end = op; // Where the trace's literal run starts.
    u8 *dst = out.data();
    std::size_t room_end = 0; // Past it, an element may not fit.
    const u64 end_bit = u64{stream.size()} * 8;
    u64 pos = 0;
    for (;;) {
        if (pos > end_bit)
            return Status::corrupt("bit stream truncated");
        if (op >= room_end) {
            growForElement(out, op, block_end);
            dst = out.data();
            room_end = out.size() - kElementRoom;
        }
        const u64 bits = bitWindow(stream.data(), stream.size(), pos);
        unsigned used = 0;
        const Entry sym = litlen.decode(bits, used);
        if (sym.bits == 0)
            return Status::corrupt("invalid flate code");
        if (sym.op == FastTable::kLiteral) {
            if (op == block_end)
                return Status::corrupt("flate block overruns");
            dst[op++] = static_cast<u8>(sym.value);
            pos += used;
            continue;
        }
        if (sym.op == FastTable::kEnd) {
            if (pos + used > end_bit)
                return Status::corrupt("bit stream truncated");
            if (op != block_end)
                return Status::corrupt("flate block size mismatch");
            if constexpr (kTraced) {
                std::size_t literals = op - match_end;
                for (const lz77::Sequence &seq : trace->sequences)
                    literals += seq.literalLength;
                trace->literalBytes = literals;
                trace->symbolCount =
                    literals + 2 * trace->sequences.size() + 1;
            }
            return Status::okStatus();
        }
        const unsigned len_extra = sym.op & 0x0f;
        const u32 length =
            sym.value + static_cast<u32>((bits >> used) &
                                         ((1u << len_extra) - 1));
        used += len_extra;
        if (!codes.hasDistances)
            return Status::corrupt("match without distance table");
        unsigned dist_used = 0;
        const Entry code = dist.decode(bits >> used, dist_used);
        if (code.bits == 0)
            return Status::corrupt("invalid flate code");
        used += dist_used;
        const unsigned dist_extra = code.op & 0x0f;
        const u32 distance =
            code.value + static_cast<u32>((bits >> used) &
                                          ((1u << dist_extra) - 1));
        pos += used + dist_extra;

        if (distance > op)
            return Status::corrupt("flate distance exceeds history");
        if (distance > window)
            return Status::corrupt("flate distance exceeds window");
        if (length > block_end - op)
            return Status::corrupt("flate block overruns");
        if constexpr (kTraced) {
            trace->sequences.push_back(
                {static_cast<u32>(op - match_end), length, distance});
            match_end = op + length;
        }
        if (distance >= 8)
            mem::wildCopy(dst + op, dst + op - distance, length,
                          dst + room_end + kElementRoom);
        else
            mem::incrementalCopy(dst + op, distance, length);
        op += length;
    }
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
    if (header.value().contentSize > (1ull << 32))
        return Status::corrupt("implausible flate content size");
    const u64 window = 1ull << header.value().windowLog;

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
        if (pos >= data.size())
            return Status::corrupt("missing flate last block");
        u8 block_header = data[pos++];
        saw_last = block_header & 1;
        bool compressed = block_header & 2;
        if (block_header > 3)
            return Status::corrupt("bad flate block header");

        auto regen = getVarint(data, pos);
        if (!regen.ok())
            return regen.status();
        if (out.size() + regen.value() > header.value().contentSize)
            return Status::corrupt("flate blocks exceed content size");
        std::size_t regen_size = regen.value();

        BlockTrace *block_trace = nullptr;
        if (trace) {
            block_trace = &trace->blocks.emplace_back();
            block_trace->regenSize = regen_size;
            block_trace->compressed = compressed;
        }

        if (!compressed) {
            if (pos + regen_size > data.size())
                return Status::corrupt("flate raw block truncated");
            out.insert(out.end(), data.begin() + pos,
                       data.begin() + pos + regen_size);
            pos += regen_size;
            continue;
        }

        CDPU_RETURN_IF_ERROR(readBlockCodes(data, pos, scratch.codes));
        auto stream_bytes = getVarint(data, pos);
        if (!stream_bytes.ok())
            return stream_bytes.status();
        if (pos + stream_bytes.value() > data.size())
            return Status::corrupt("flate stream truncated");
        ByteSpan stream = data.subspan(pos, stream_bytes.value());
        pos += stream_bytes.value();
        if (block_trace)
            block_trace->streamBytes = stream.size();

        std::size_t op = out.size();
        Status status =
            block_trace
                ? decodeBlockFused<true>(scratch, stream, window,
                                         regen_size, out, op, block_trace)
                : decodeBlockFused<false>(scratch, stream, window,
                                          regen_size, out, op, nullptr);
        out.resize(op);
        CDPU_RETURN_IF_ERROR(status);
    }

    if (out.size() != header.value().contentSize)
        return Status::corrupt("flate content size mismatch");
    if (pos != data.size())
        return Status::corrupt("trailing bytes after flate frame");
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

} // namespace cdpu::flatelite

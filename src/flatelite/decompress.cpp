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

Result<BlockCodes>
readBlockCodes(ByteSpan data, std::size_t &pos)
{
    const std::size_t litlen_bytes = (kLitLenAlphabet + 1) / 2;
    const std::size_t dist_bytes = kDistanceAlphabet / 2;
    if (pos + litlen_bytes + dist_bytes > data.size())
        return Status::corrupt("flate tables truncated");
    auto litlen_lengths = huffman::unpackLengths(
        data.subspan(pos, litlen_bytes), kLitLenAlphabet);
    pos += litlen_bytes;
    auto dist_lengths =
        huffman::unpackLengths(data.subspan(pos, dist_bytes),
                               kDistanceAlphabet);
    pos += dist_bytes;

    BlockCodes codes;
    auto litlen = huffman::codesFromLengths(litlen_lengths);
    if (!litlen.ok())
        return litlen.status();
    codes.litlen = std::move(litlen).value();
    codes.hasDistances =
        std::any_of(dist_lengths.begin(), dist_lengths.end(),
                    [](u8 len) { return len != 0; });
    if (codes.hasDistances) {
        auto dist = huffman::codesFromLengths(dist_lengths);
        if (!dist.ok())
            return dist.status();
        codes.dist = std::move(dist).value();
    }
    return codes;
}

namespace
{

/**
 * Two-level decode table for the fused loop, built the way zlib's
 * inflate builds its own: a root indexed by the next kRootBits bits
 * (fewer when no code is that long) and, for longer codes, a
 * second-level table per root prefix. Each entry carries what its
 * symbol means, so a literal, a length or a distance costs one or two
 * L1-resident lookups and no further binning.
 */
class FastTable
{
  public:
    static constexpr unsigned kRootBits = 10;

    /** Entry kinds; kBase carries its extra-bit count in the low 4. */
    static constexpr u8 kLiteral = 0x00;
    static constexpr u8 kBase = 0x10; ///< value = baseline; | extra bits.
    static constexpr u8 kEnd = 0x20;
    static constexpr u8 kLink = 0x40; ///< value = sub-table offset.

    struct Entry
    {
        u16 value = 0; ///< Literal byte, baseline or sub-table offset.
        u8 bits = 0;   ///< Code bits at this level; 0 marks no code.
        u8 op = kLiteral;
    };

    /** @p meaning maps a symbol to its entry's value and op. */
    template <typename Meaning>
    FastTable(const huffman::CodeTable &codes, Meaning meaning)
        : rootBits_(std::min(codes.maxBits, kRootBits)),
          subBits_(codes.maxBits - rootBits_),
          entries_(std::size_t{1} << rootBits_)
    {
        const u32 root_mask = (1u << rootBits_) - 1;
        for (std::size_t sym = 0; sym < codes.numSymbols(); ++sym) {
            const unsigned len = codes.lengths[sym];
            if (len == 0)
                continue;
            Entry entry = meaning(static_cast<u16>(sym));
            u32 code = codes.codes[sym];
            std::size_t base = 0;
            std::size_t span = std::size_t{1} << rootBits_;
            if (len > rootBits_) {
                // Codes are prefix-free, so a root slot holding a long
                // code's prefix holds only links.
                const u32 root = code & root_mask;
                if (entries_[root].op != kLink) {
                    entries_[root] = {static_cast<u16>(entries_.size()),
                                      static_cast<u8>(rootBits_), kLink};
                    entries_.resize(entries_.size() +
                                    (std::size_t{1} << subBits_));
                }
                base = entries_[root].value;
                span = std::size_t{1} << subBits_;
                code >>= rootBits_;
            }
            entry.bits = static_cast<u8>(len > rootBits_ ? len - rootBits_
                                                          : len);
            for (std::size_t idx = code; idx < span;
                 idx += std::size_t{1} << entry.bits)
                entries_[base + idx] = entry;
        }
    }

    /** The table as plain values, for the decode loop to keep in
     *  registers (stores through the output pointer may alias any
     *  member it would otherwise reload). */
    struct View
    {
        const Entry *entries;
        unsigned rootBits;
        u32 rootMask;
        u32 subMask;

        /** The entry for the code at the bottom of @p window; @p used
         *  gets the bits it spans. A result with bits == 0 is no code. */
        Entry
        decode(u64 window, unsigned &used) const
        {
            Entry entry = entries[window & rootMask];
            used = entry.bits;
            if (entry.op == kLink) {
                entry = entries[entry.value +
                                ((window >> rootBits) & subMask)];
                used = rootBits + entry.bits;
            }
            return entry;
        }
    };

    View
    view() const
    {
        return {entries_.data(), rootBits_, (1u << rootBits_) - 1,
                (1u << subBits_) - 1};
    }

  private:
    unsigned rootBits_;
    unsigned subBits_;
    std::vector<Entry> entries_;
};

static_assert(sizeof(FastTable::Entry) == 4);

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
decodeBlockFused(const BlockCodes &codes, ByteSpan stream, u64 window,
                 std::size_t regen_size, Bytes &out, std::size_t &op,
                 BlockTrace *trace)
{
    using Entry = FastTable::Entry;
    const FastTable litlen_table(codes.litlen, [](u16 sym) {
        if (sym < 256)
            return Entry{sym, 0, FastTable::kLiteral};
        if (sym == kEndOfBlock)
            return Entry{0, 0, FastTable::kEnd};
        // Symbols 257..285: the alphabet size bounds the code.
        const FlateBin bin = lengthFromCode(sym).value();
        return Entry{static_cast<u16>(bin.baseline), 0,
                     static_cast<u8>(FastTable::kBase | bin.extraBits)};
    });
    const FastTable dist_table(
        codes.hasDistances ? codes.dist : huffman::CodeTable{},
        [](u16 sym) {
            const FlateBin bin = distanceFromCode(sym).value();
            return Entry{static_cast<u16>(bin.baseline), 0,
                         static_cast<u8>(FastTable::kBase | bin.extraBits)};
        });
    const FastTable::View litlen = litlen_table.view();
    const FastTable::View dist = dist_table.view();

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
decompressInto(ByteSpan data, Bytes &out, FileTrace *trace)
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

        auto codes = readBlockCodes(data, pos);
        if (!codes.ok())
            return codes.status();
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
                ? decodeBlockFused<true>(codes.value(), stream, window,
                                         regen_size, out, op, block_trace)
                : decodeBlockFused<false>(codes.value(), stream, window,
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

Result<Bytes>
decompress(ByteSpan data, FileTrace *trace)
{
    Bytes out;
    CDPU_RETURN_IF_ERROR(decompressInto(data, out, trace));
    return out;
}

} // namespace cdpu::flatelite

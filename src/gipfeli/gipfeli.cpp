#include "gipfeli/gipfeli.h"

#include <algorithm>
#include <array>
#include <numeric>

#include "common/bitio.h"
#include "common/mem.h"
#include "common/varint.h"
#include "lz77/fast_parse.h"

namespace cdpu::gipfeli
{

namespace
{

/** Three-class literal code: per-symbol class and within-class index. */
struct LiteralCode
{
    std::array<u8, 32> classA{};  ///< 6-bit symbols.
    std::array<u8, 64> classB{};  ///< 8-bit symbols.
    std::array<u8, 256> klass{};  ///< 0/1/2 per byte value.
    std::array<u8, 256> index{};  ///< Position within its class.

    void
    rebuildMaps()
    {
        klass.fill(2);
        index.fill(0);
        for (std::size_t i = 0; i < classA.size(); ++i) {
            klass[classA[i]] = 0;
            index[classA[i]] = static_cast<u8>(i);
        }
        for (std::size_t i = 0; i < classB.size(); ++i) {
            if (klass[classB[i]] == 0)
                continue; // class A wins on duplicates
            klass[classB[i]] = 1;
            index[classB[i]] = static_cast<u8>(i);
        }
    }
};

/** Builds the code from literal-byte frequencies (sampled, like
 *  Gipfeli's single-pass statistics): bytes by falling frequency,
 *  ties in byte order. */
LiteralCode
buildLiteralCode(const std::array<u64, 256> &freqs)
{
    std::array<u16, 256> order{};
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(), [&](u16 a, u16 b) {
        return freqs[a] != freqs[b] ? freqs[a] > freqs[b] : a < b;
    });
    LiteralCode code;
    for (std::size_t i = 0; i < 32; ++i)
        code.classA[i] = static_cast<u8>(order[i]);
    for (std::size_t i = 0; i < 64; ++i)
        code.classB[i] = static_cast<u8>(order[32 + i]);
    code.rebuildMaps();
    return code;
}

void
putLiteral(BitWriter &writer, const LiteralCode &code, u8 byte)
{
    switch (code.klass[byte]) {
      case 0:
        writer.put(0, 1);
        writer.put(code.index[byte], 5);
        break;
      case 1:
        writer.put(0b01, 2); // '10' MSB-first == 0b01 LSB-first
        writer.put(code.index[byte], 6);
        break;
      default:
        writer.put(0b11, 2);
        writer.put(byte, 8);
        break;
    }
}

/**
 * One literal per lookup: maps the next 10 bits to the byte they code
 * and the code's length, for all three classes at once. Class A codes
 * are '0' + 5 bits, class B '10' + 6, class C '11' + 8 (LSB-first).
 */
struct LiteralTable
{
    std::array<u8, 1024> byte{};
    std::array<u8, 1024> bits{};

    explicit LiteralTable(const LiteralCode &code)
    {
        for (u32 p = 0; p < 1024; ++p) {
            if ((p & 1) == 0) {
                byte[p] = code.classA[(p >> 1) & 31];
                bits[p] = 6;
            } else if ((p & 2) == 0) {
                byte[p] = code.classB[(p >> 2) & 63];
                bits[p] = 8;
            } else {
                byte[p] = static_cast<u8>(p >> 2);
                bits[p] = 10;
            }
        }
    }
};

/** A copy element's width: flag, 6-bit length, 16-bit offset. It is
 *  the densest element (kMaxMatch bytes; a literal run spends at least
 *  6 bits per byte), so it bounds what a stream can produce. */
constexpr u64 kCopyElementBits = 23;

/**
 * The fused decode loop: writes the stream's elements to @p dst, which
 * holds @p content + mem::kWildCopySlop bytes; @p op ends one past the
 * last byte written. One bitWindow() serves an element (or five
 * literals of a run), read without a bounds verdict: bits past the end
 * read as zero, and the cursor check before each element and after
 * the last rejects any element that crossed the end, which is exactly
 * when a per-read decoder fails.
 */
Status
decodeElements(ByteSpan stream, const LiteralTable &literals,
               std::size_t content, u8 *dst, std::size_t &op)
{
    const u8 *const dst_end = dst + content + mem::kWildCopySlop;
    const u64 end_bit = u64{stream.size()} * 8;
    u64 bit = 0;
    while (op < content) {
        if (bit > end_bit)
            return Status::corrupt("bit stream truncated");
        const u64 bits = bitWindow(stream.data(), stream.size(), bit);
        if ((bits & 1) == 0) {
            const std::size_t count = ((bits >> 1) & 31) + 1;
            bit += 6;
            if (count > content - op)
                return Status::corrupt("gipfeli output overruns");
            for (std::size_t i = 0; i < count;) {
                const u64 run = bitWindow(stream.data(), stream.size(), bit);
                const std::size_t batch = std::min<std::size_t>(5, count - i);
                unsigned used = 0;
                for (std::size_t k = 0; k < batch; ++k, ++i) {
                    const u32 index = (run >> used) & 1023;
                    dst[op + i] = literals.byte[index];
                    used += literals.bits[index];
                }
                bit += used;
            }
            op += count;
            continue;
        }
        const u32 length = static_cast<u32>((bits >> 1) & 63) + kMinMatch;
        const u32 offset = static_cast<u32>((bits >> 7) & 0xffff);
        bit += kCopyElementBits;
        if (offset == 0 || offset > op)
            return Status::corrupt("gipfeli offset exceeds history");
        if (length > content - op)
            return Status::corrupt("gipfeli output overruns");
        if (offset >= 8)
            mem::wildCopy(dst + op, dst + op - offset, length, dst_end);
        else
            mem::incrementalCopy(dst + op, offset, length);
        op += length;
    }
    if (bit > end_bit)
        return Status::corrupt("bit stream truncated");
    return Status::okStatus();
}

} // namespace

void
compressInto(ByteSpan input, Bytes &out, lz77::ParseScratch &parse_scratch,
             Scratch &scratch)
{
    out.assign(kMagic.begin(), kMagic.end());
    putVarint(out, input.size());

    // Parse with Snappy-like geometry (fixed 64 KiB window).
    lz77::MatchFinderConfig config;
    config.windowSize = kWindowSize - 1; // 16-bit offset field
    config.minMatchLength = kMinMatch;
    config.maxMatchLength = kMaxMatch;
    config.hashTable.log2Entries = 14;
    const lz77::Parse &parse = parse_scratch.parse;
    lz77::fastParse(input, config, parse_scratch.table,
                    parse_scratch.parse);

    // Literal statistics over the literal bytes only.
    std::array<u64, 256> freqs{};
    std::size_t cursor = 0;
    for (const auto &seq : parse.sequences) {
        for (u32 i = 0; i < seq.literalLength; ++i)
            ++freqs[input[cursor + i]];
        cursor += seq.literalLength + seq.matchLength;
    }
    for (std::size_t i = parse.literalTailStart; i < input.size(); ++i)
        ++freqs[input[i]];
    LiteralCode code = buildLiteralCode(freqs);
    out.insert(out.end(), code.classA.begin(), code.classA.end());
    out.insert(out.end(), code.classB.begin(), code.classB.end());

    BitWriter &writer = scratch.stream;
    writer.clear();
    auto emit_literal_run = [&](std::size_t start, std::size_t count) {
        while (count > 0) {
            std::size_t take = std::min(count, kMaxLiteralRun);
            writer.put(0, 1); // literal-run flag
            writer.put(take - 1, 5);
            for (std::size_t i = 0; i < take; ++i)
                putLiteral(writer, code, input[start + i]);
            start += take;
            count -= take;
        }
    };

    cursor = 0;
    for (const auto &seq : parse.sequences) {
        emit_literal_run(cursor, seq.literalLength);
        cursor += seq.literalLength;
        writer.put(1, 1); // copy flag
        writer.put(seq.matchLength - kMinMatch, 6);
        writer.put(seq.offset, 16);
        cursor += seq.matchLength;
    }
    emit_literal_run(parse.literalTailStart,
                     input.size() - parse.literalTailStart);

    const ByteSpan stream = writer.terminate();
    putVarint(out, stream.size());
    out.insert(out.end(), stream.begin(), stream.end());
}

void
compressInto(ByteSpan input, Bytes &out)
{
    lz77::ParseScratch parse;
    Scratch scratch;
    compressInto(input, out, parse, scratch);
}

Bytes
compress(ByteSpan input)
{
    Bytes out;
    compressInto(input, out);
    return out;
}

Status
decompressInto(ByteSpan data, Bytes &out)
{
    out.clear();
    std::size_t pos = 0;
    if (data.size() < kMagic.size())
        return Status::corrupt("gipfeli frame truncated");
    for (u8 expected : kMagic) {
        if (data[pos++] != expected)
            return Status::corrupt("bad gipfeli magic");
    }
    auto content_size = getVarint(data, pos);
    if (!content_size.ok())
        return content_size.status();
    if (content_size.value() > (1ull << 32))
        return Status::corrupt("implausible gipfeli content size");

    if (pos + 96 > data.size())
        return Status::corrupt("gipfeli literal tables truncated");
    LiteralCode code;
    std::copy_n(data.begin() + pos, 32, code.classA.begin());
    pos += 32;
    std::copy_n(data.begin() + pos, 64, code.classB.begin());
    pos += 64;

    auto stream_bytes = getVarint(data, pos);
    if (!stream_bytes.ok())
        return stream_bytes.status();
    if (pos + stream_bytes.value() != data.size())
        return Status::corrupt("gipfeli stream length mismatch");
    const ByteSpan stream = data.subspan(pos, stream_bytes.value());
    const u64 end_bit = u64{stream.size()} * 8;
    const auto content = static_cast<std::size_t>(content_size.value());
    // No stream can produce more than this, so a larger claim fails
    // before the output is sized from it.
    if (content > (end_bit / kCopyElementBits + 1) * kMaxMatch)
        return Status::corrupt("gipfeli content size exceeds stream bound");
    out.resize(content + mem::kWildCopySlop);

    std::size_t op = 0;
    Status status = decodeElements(stream, LiteralTable(code), content,
                                   out.data(), op);
    out.resize(op);
    return status;
}

Result<Bytes>
decompress(ByteSpan data)
{
    Bytes out;
    CDPU_RETURN_IF_ERROR(decompressInto(data, out));
    return out;
}

} // namespace cdpu::gipfeli

#include "snappy/compress.h"

#include <algorithm>
#include <cassert>

#include "common/varint.h"

namespace cdpu::snappy
{

namespace
{

void
emitLiteral(Bytes &out, ByteSpan input, std::size_t start, u32 length)
{
    if (length == 0)
        return;
    u32 n = length - 1;
    if (n < kMaxInlineLiteral) {
        out.push_back(static_cast<u8>(n << 2));
    } else {
        unsigned extra_bytes = 1;
        if (n >= (1u << 8))
            extra_bytes = n >= (1u << 16) ? (n >= (1u << 24) ? 4 : 3) : 2;
        out.push_back(static_cast<u8>((kMaxInlineLiteral - 1 + extra_bytes)
                                      << 2));
        for (unsigned i = 0; i < extra_bytes; ++i)
            out.push_back(static_cast<u8>(n >> (8 * i)));
    }
    out.insert(out.end(), input.begin() + start,
               input.begin() + start + length);
}

/** Emits one copy of length in [4, 64]; picks the cheapest encoding. */
void
emitCopyUpTo64(Bytes &out, u32 offset, u32 length)
{
    assert(length >= 4 && length <= 64);
    assert(offset >= 1);
    if (length <= 11 && offset < 2048) {
        out.push_back(static_cast<u8>(
            (static_cast<u8>(ElementType::copy1)) |
            ((length - 4) << 2) | ((offset >> 8) << 5)));
        out.push_back(static_cast<u8>(offset & 0xff));
    } else if (offset < (1u << 16)) {
        out.push_back(static_cast<u8>(
            static_cast<u8>(ElementType::copy2) | ((length - 1) << 2)));
        out.push_back(static_cast<u8>(offset & 0xff));
        out.push_back(static_cast<u8>(offset >> 8));
    } else {
        out.push_back(static_cast<u8>(
            static_cast<u8>(ElementType::copy4) | ((length - 1) << 2)));
        for (unsigned i = 0; i < 4; ++i)
            out.push_back(static_cast<u8>(offset >> (8 * i)));
    }
}

/** Splits an arbitrary-length copy into legal <= 64-byte elements. */
void
emitCopy(Bytes &out, u32 offset, u32 length)
{
    // Emit 64-byte chunks while more than 68 remain so the tail is
    // always a legal length >= 4 (the stock encoder's strategy).
    while (length >= 68) {
        emitCopyUpTo64(out, offset, 64);
        length -= 64;
    }
    if (length > 64) {
        emitCopyUpTo64(out, offset, 60);
        length -= 60;
    }
    emitCopyUpTo64(out, offset, length);
}

} // namespace

std::size_t
maxCompressedSize(std::size_t input_size)
{
    // Preamble + worst case 6/5 literal expansion (matches stock snappy).
    return 32 + input_size + input_size / 6;
}

void
compressInto(ByteSpan input, Bytes &out, lz77::ParseScratch &parse_scratch,
             const CompressorConfig &config,
             lz77::MatchFinderStats *stats_out)
{
    out.clear();
    out.reserve(std::min<std::size_t>(maxCompressedSize(input.size()),
                                      input.size() + 64));
    putVarint(out, input.size());

    lz77::MatchFinderConfig mf_config;
    mf_config.hashTable = config.hashTable;
    mf_config.windowSize = std::min(config.windowSize, kBlockSize);
    mf_config.minMatchLength = 4;
    mf_config.skipAcceleration = config.skipAcceleration;

    lz77::MatchFinderStats total_stats;

    // Snappy compresses independent 64 KiB fragments.
    for (std::size_t base = 0; base < input.size(); base += kBlockSize) {
        std::size_t block_len = std::min(kBlockSize, input.size() - base);
        ByteSpan block = input.subspan(base, block_len);

        // Stats come only from MatchFinder, the reference the CDPU
        // model reads; without them the specialized parse gives the
        // same bytes.
        lz77::MatchFinderStats stats;
        lz77::Parse &parse = parse_scratch.parse;
        if (stats_out)
            parse = lz77::MatchFinder(mf_config).parse(block, &stats);
        else
            lz77::fastParse(block, mf_config, parse_scratch.table, parse);
        total_stats.positionsHashed += stats.positionsHashed;
        total_stats.candidateProbes += stats.candidateProbes;
        total_stats.matchesEmitted += stats.matchesEmitted;
        total_stats.matchBytes += stats.matchBytes;
        total_stats.literalBytes += stats.literalBytes;

        std::size_t cursor = 0;
        for (const auto &seq : parse.sequences) {
            emitLiteral(out, block, cursor, seq.literalLength);
            cursor += seq.literalLength;
            emitCopy(out, seq.offset, seq.matchLength);
            cursor += seq.matchLength;
        }
        emitLiteral(out, block, parse.literalTailStart,
                    static_cast<u32>(block_len - parse.literalTailStart));
    }

    if (stats_out)
        *stats_out = total_stats;
}

void
compressInto(ByteSpan input, Bytes &out, const CompressorConfig &config,
             lz77::MatchFinderStats *stats_out)
{
    lz77::ParseScratch parse;
    compressInto(input, out, parse, config, stats_out);
}

Bytes
compress(ByteSpan input, const CompressorConfig &config,
         lz77::MatchFinderStats *stats_out)
{
    Bytes out;
    compressInto(input, out, config, stats_out);
    return out;
}

} // namespace cdpu::snappy

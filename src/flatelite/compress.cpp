#include "flatelite/compress.h"

#include <algorithm>
#include <array>

#include "common/varint.h"
#include "huffman/encoder.h"

namespace cdpu::flatelite
{

lz77::MatchFinderConfig
flateLevelParameters(int level, unsigned window_log)
{
    lz77::MatchFinderConfig config;
    config.windowSize = std::size_t{1} << window_log;
    config.minMatchLength = 4; // hash granularity; emits >= 4 matches
    config.maxMatchLength = kMaxMatchLength;
    config.hashTable.hashFunction = lz77::HashFunction::multiplicative;
    if (level <= 2) {
        config.hashTable.log2Entries = 13;
        config.hashTable.ways = 1;
    } else if (level <= 6) {
        config.hashTable.log2Entries = 15;
        config.hashTable.ways = 2;
        config.lazyMatching = level >= 5;
    } else {
        config.hashTable.log2Entries = 16;
        config.hashTable.ways = 4;
        config.lazyMatching = true;
        config.skipAcceleration = false;
    }
    return config;
}

namespace
{

/** Encodes one block, @p sequences and then the literals up to
 *  @p regen_size bytes from @p block_start: per sequence the literal
 *  run, then length + distance codes; trailing literals; EOB. */
Status
encodeBlock(ByteSpan input, std::size_t block_start,
            std::span<const lz77::Sequence> sequences,
            std::size_t regen_size, bool last, Bytes &out,
            Scratch &scratch, FileTrace *trace)
{
    ByteSpan block_input(input.data() + block_start, regen_size);

    // Pass 1: symbol statistics over both alphabets.
    std::array<u64, kLitLenAlphabet> litlen_freqs{};
    std::array<u64, kDistanceAlphabet> dist_freqs{};
    std::size_t cursor = 0;
    std::size_t symbol_count = 0;
    for (const auto &seq : sequences) {
        for (u32 i = 0; i < seq.literalLength; ++i)
            ++litlen_freqs[block_input[cursor + i]];
        cursor += seq.literalLength;
        ++litlen_freqs[lengthBin(seq.matchLength).code];
        ++dist_freqs[distanceBin(seq.offset).code];
        cursor += seq.matchLength;
        symbol_count += seq.literalLength + 2;
    }
    for (std::size_t i = cursor; i < block_input.size(); ++i)
        ++litlen_freqs[block_input[i]];
    symbol_count += block_input.size() - cursor + 1;
    ++litlen_freqs[kEndOfBlock];

    huffman::CodeTable &lt = scratch.codes.litlen;
    huffman::CodeTable &dt = scratch.codes.dist;
    CDPU_RETURN_IF_ERROR(huffman::buildCodeTable(litlen_freqs, 14, lt));
    if (std::any_of(dist_freqs.begin(), dist_freqs.end(),
                    [](u64 f) { return f != 0; })) {
        CDPU_RETURN_IF_ERROR(huffman::buildCodeTable(dist_freqs, 14, dt));
    } else {
        dt.lengths.assign(kDistanceAlphabet, 0);
        dt.codes.assign(kDistanceAlphabet, 0);
    }

    // Pass 2: emit the bitstream. Literal runs go through the packed
    // Huffman encoder; a match's four fields (at most 46 bits) go out
    // in one put().
    BitWriter &writer = scratch.stream;
    writer.clear();
    cursor = 0;
    for (const auto &seq : sequences) {
        huffman::encode(lt, block_input.subspan(cursor, seq.literalLength),
                        writer);
        cursor += seq.literalLength;
        const FlateBin len_bin = lengthBin(seq.matchLength);
        const FlateBin dist_bin = distanceBin(seq.offset);
        u64 bits = lt.codes[len_bin.code];
        unsigned used = lt.lengths[len_bin.code];
        bits |= u64{seq.matchLength - len_bin.baseline} << used;
        used += len_bin.extraBits;
        bits |= u64{dt.codes[dist_bin.code]} << used;
        used += dt.lengths[dist_bin.code];
        bits |= u64{seq.offset - dist_bin.baseline} << used;
        used += dist_bin.extraBits;
        writer.put(bits, used);
        cursor += seq.matchLength;
    }
    huffman::encode(lt, block_input.subspan(cursor), writer);
    writer.put(lt.codes[kEndOfBlock], lt.lengths[kEndOfBlock]);
    const ByteSpan stream = writer.terminate();

    // Header overhead: the two packed length tables.
    std::size_t header_bytes =
        (kLitLenAlphabet + 1) / 2 + kDistanceAlphabet / 2;

    u8 last_bit = last ? 1 : 0;
    const bool compressed =
        header_bytes + stream.size() + 8 < block_input.size();
    if (compressed) {
        out.push_back(static_cast<u8>(last_bit | 2));
        putVarint(out, regen_size);
        huffman::packLengths(lt.lengths, kLitLenAlphabet, out);
        huffman::packLengths(dt.lengths, kDistanceAlphabet, out);
        putVarint(out, stream.size());
        out.insert(out.end(), stream.begin(), stream.end());
    } else {
        out.push_back(last_bit);
        putVarint(out, regen_size);
        out.insert(out.end(), block_input.begin(), block_input.end());
    }

    if (trace) {
        BlockTrace &block_trace = trace->blocks.emplace_back();
        block_trace.regenSize = regen_size;
        block_trace.compressed = compressed;
        if (compressed) {
            block_trace.symbolCount = symbol_count;
            block_trace.streamBytes = stream.size();
            block_trace.sequences.assign(sequences.begin(),
                                         sequences.end());
            std::size_t match_bytes = 0;
            for (const auto &seq : sequences)
                match_bytes += seq.matchLength;
            block_trace.literalBytes = regen_size - match_bytes;
        }
    }
    return Status::okStatus();
}

} // namespace

Status
compressInto(ByteSpan input, Bytes &out, const CompressorConfig &config,
             lz77::ParseScratch &parse_scratch, Scratch &scratch,
             FileTrace *trace, lz77::MatchFinderStats *stats_out)
{
    if (config.level < 1 || config.level > 9)
        return Status::invalid("flate level out of range");
    if (config.windowLog < kMinWindowLog ||
        config.windowLog > kMaxWindowLog) {
        return Status::invalid("flate window log out of range");
    }

    out.clear();
    writeFrameHeader({config.windowLog, input.size()}, out);
    if (trace) {
        *trace = FileTrace{};
        trace->contentSize = input.size();
    }

    lz77::MatchFinderConfig mf_config =
        flateLevelParameters(config.level, config.windowLog);
    if (config.overrideMatchFinder)
        mf_config.hashTable = config.matchFinderOverride;
    // Only a stats request needs MatchFinder, whose probe counts the
    // CDPU model reads; the specialized parse gives the same sequences,
    // so a trace is the same from either.
    lz77::Parse &parse = parse_scratch.parse;
    if (stats_out)
        parse = lz77::MatchFinder(mf_config).parse(input, stats_out);
    else
        lz77::fastParse(input, mf_config, parse_scratch.table, parse);

    // A block is a run of the parse's sequences: [first, end).
    const std::span<const lz77::Sequence> sequences = parse.sequences;
    std::size_t first = 0;
    std::size_t regen_size = 0;
    std::size_t cursor = 0;
    std::size_t block_start = 0;

    auto flush = [&](std::size_t end, bool last) -> Status {
        CDPU_RETURN_IF_ERROR(encodeBlock(
            input, block_start, sequences.subspan(first, end - first),
            regen_size, last, out, scratch, trace));
        first = end;
        regen_size = 0;
        block_start = cursor;
        return Status::okStatus();
    };

    for (std::size_t i = 0; i < sequences.size(); ++i) {
        const std::size_t bytes =
            sequences[i].literalLength + sequences[i].matchLength;
        regen_size += bytes;
        cursor += bytes;
        if (regen_size >= kBlockTarget)
            CDPU_RETURN_IF_ERROR(flush(i + 1, false));
    }
    std::size_t tail = input.size() - cursor;
    regen_size += tail;
    cursor += tail;
    // Always emit a final block so the last-block flag is present; an
    // empty trailing block degenerates to a zero-length raw block.
    CDPU_RETURN_IF_ERROR(flush(sequences.size(), true));

    if (trace)
        trace->compressedSize = out.size();
    return Status::okStatus();
}

Status
compressInto(ByteSpan input, Bytes &out, const CompressorConfig &config,
             FileTrace *trace, lz77::MatchFinderStats *stats_out)
{
    lz77::ParseScratch parse;
    Scratch scratch;
    return compressInto(input, out, config, parse, scratch, trace,
                        stats_out);
}

Result<Bytes>
compress(ByteSpan input, const CompressorConfig &config, FileTrace *trace,
         lz77::MatchFinderStats *stats_out)
{
    Bytes out;
    CDPU_RETURN_IF_ERROR(
        compressInto(input, out, config, trace, stats_out));
    return out;
}

} // namespace cdpu::flatelite

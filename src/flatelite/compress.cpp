#include "flatelite/compress.h"

#include <algorithm>

#include "common/bitio.h"
#include "common/varint.h"
#include "huffman/code_builder.h"
#include "lz77/fast_parse.h"

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

struct PendingBlock
{
    std::vector<lz77::Sequence> sequences;
    std::size_t literalStart = 0; ///< Input offset of first literal.
    std::size_t regenSize = 0;
};

/** Encodes one block's symbol stream: per sequence the literal run,
 *  then length + distance codes; trailing literals; EOB. */
Status
encodeBlock(ByteSpan input, std::size_t block_start,
            const PendingBlock &block, bool last, Bytes &out,
            FileTrace *trace)
{
    ByteSpan block_input(input.data() + block_start, block.regenSize);

    // Pass 1: symbol statistics over both alphabets.
    std::vector<u64> litlen_freqs(kLitLenAlphabet, 0);
    std::vector<u64> dist_freqs(kDistanceAlphabet, 0);
    std::size_t cursor = 0;
    std::size_t symbol_count = 0;
    for (const auto &seq : block.sequences) {
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

    auto litlen_table = huffman::buildCodeTable(litlen_freqs, 14);
    if (!litlen_table.ok())
        return litlen_table.status();
    bool has_distances = std::any_of(dist_freqs.begin(),
                                     dist_freqs.end(),
                                     [](u64 f) { return f != 0; });
    huffman::CodeTable dist_table;
    if (has_distances) {
        auto built = huffman::buildCodeTable(dist_freqs, 14);
        if (!built.ok())
            return built.status();
        dist_table = std::move(built).value();
    }
    dist_table.lengths.resize(kDistanceAlphabet, 0);
    dist_table.codes.resize(kDistanceAlphabet, 0);

    // Pass 2: emit the bitstream.
    BitWriter writer;
    const huffman::CodeTable &lt = litlen_table.value();
    auto put_litlen = [&](u16 symbol) {
        writer.put(lt.codes[symbol], lt.lengths[symbol]);
    };
    cursor = 0;
    for (const auto &seq : block.sequences) {
        for (u32 i = 0; i < seq.literalLength; ++i)
            put_litlen(block_input[cursor + i]);
        cursor += seq.literalLength;
        FlateBin len_bin = lengthBin(seq.matchLength);
        put_litlen(len_bin.code);
        writer.put(seq.matchLength - len_bin.baseline,
                   len_bin.extraBits);
        FlateBin dist_bin = distanceBin(seq.offset);
        writer.put(dist_table.codes[dist_bin.code],
                   dist_table.lengths[dist_bin.code]);
        writer.put(seq.offset - dist_bin.baseline, dist_bin.extraBits);
        cursor += seq.matchLength;
    }
    for (std::size_t i = cursor; i < block_input.size(); ++i)
        put_litlen(block_input[i]);
    put_litlen(kEndOfBlock);
    Bytes stream = writer.finish();

    // Header overhead: the two packed length tables.
    std::size_t header_bytes =
        (kLitLenAlphabet + 1) / 2 + kDistanceAlphabet / 2;

    u8 last_bit = last ? 1 : 0;
    const bool compressed =
        header_bytes + stream.size() + 8 < block_input.size();
    if (compressed) {
        out.push_back(static_cast<u8>(last_bit | 2));
        putVarint(out, block.regenSize);
        huffman::packLengths(lt.lengths, kLitLenAlphabet, out);
        huffman::packLengths(dist_table.lengths, kDistanceAlphabet, out);
        putVarint(out, stream.size());
        out.insert(out.end(), stream.begin(), stream.end());
    } else {
        out.push_back(last_bit);
        putVarint(out, block.regenSize);
        out.insert(out.end(), block_input.begin(), block_input.end());
    }

    if (trace) {
        BlockTrace &block_trace = trace->blocks.emplace_back();
        block_trace.regenSize = block.regenSize;
        block_trace.compressed = compressed;
        if (compressed) {
            block_trace.symbolCount = symbol_count;
            block_trace.streamBytes = stream.size();
            block_trace.sequences = block.sequences;
            std::size_t match_bytes = 0;
            for (const auto &seq : block.sequences)
                match_bytes += seq.matchLength;
            block_trace.literalBytes = block.regenSize - match_bytes;
        }
    }
    return Status::okStatus();
}

} // namespace

Status
compressInto(ByteSpan input, Bytes &out, const CompressorConfig &config,
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
    const lz77::Parse parse =
        stats_out ? lz77::MatchFinder(mf_config).parse(input, stats_out)
                  : lz77::fastParse(input, mf_config);

    PendingBlock block;
    std::size_t cursor = 0;
    std::size_t block_start = 0;

    auto flush = [&](bool last) -> Status {
        CDPU_RETURN_IF_ERROR(
            encodeBlock(input, block_start, block, last, out, trace));
        block_start = cursor;
        block = PendingBlock{};
        return Status::okStatus();
    };

    for (const auto &seq : parse.sequences) {
        block.sequences.push_back(seq);
        block.regenSize += seq.literalLength + seq.matchLength;
        cursor += seq.literalLength + seq.matchLength;
        if (block.regenSize >= kBlockTarget)
            CDPU_RETURN_IF_ERROR(flush(false));
    }
    std::size_t tail = input.size() - cursor;
    block.regenSize += tail;
    cursor += tail;
    // Always emit a final block so the last-block flag is present; an
    // empty trailing block degenerates to a zero-length raw block.
    CDPU_RETURN_IF_ERROR(flush(true));

    if (trace)
        trace->compressedSize = out.size();
    return Status::okStatus();
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

#include "zstdlite/compress.h"

#include <algorithm>

#include "common/varint.h"
#include "lz77/fast_parse.h"
#include "zstdlite/literals.h"
#include "zstdlite/sequences.h"

namespace cdpu::zstdlite
{

lz77::MatchFinderConfig
levelParameters(int level, unsigned window_log)
{
    lz77::MatchFinderConfig config;
    config.windowSize = std::size_t{1} << window_log;
    config.minMatchLength = kMinMatchLength + 1; // 4-byte hash probes
    config.maxMatchLength = kMaxMatchLength;
    config.hashTable.hashFunction = lz77::HashFunction::fibonacci64;

    struct Tier
    {
        int maxLevel;
        unsigned hashLog;
        unsigned ways;
        bool lazy;
        bool skip;
    };
    // Effort tiers loosely mirroring zstd's fast -> lazy progression.
    static constexpr Tier kTiers[] = {
        {0, 12, 1, false, true},   // negative "fast" levels
        {1, 13, 1, false, true},
        {2, 14, 1, false, true},
        {3, 15, 2, true, true},    // default; dfast-like
        {4, 16, 2, true, true},
        {6, 16, 2, true, true},
        {8, 17, 4, true, true},
        {12, 17, 8, true, false},
        {16, 18, 8, true, false},
        {22, 18, 16, true, false},
    };
    for (const Tier &tier : kTiers) {
        if (level <= tier.maxLevel) {
            config.hashTable.log2Entries = tier.hashLog;
            config.hashTable.ways = tier.ways;
            config.lazyMatching = tier.lazy;
            config.skipAcceleration = tier.skip;
            return config;
        }
    }
    return config;
}

namespace
{

/** One block's worth of parse output, ready for section encoding. */
struct PendingBlock
{
    std::vector<lz77::Sequence> sequences;
    Bytes literals;
    std::size_t regenSize = 0;
};

/** Encodes and appends one block; falls back to raw when compression
 *  does not win. Records the block in @p trace when one is given. */
Status
flushBlock(PendingBlock &block, ByteSpan block_input, bool last,
           Bytes &out, FileTrace *trace)
{
    // Try a compressed block into a scratch buffer.
    Bytes scratch;
    LiteralsMode lit_mode = LiteralsMode::raw;
    std::size_t lit_stream = 0;
    encodeLiteralsSection(block.literals, scratch, &lit_mode,
                          &lit_stream);
    std::size_t seq_stream = 0;
    bool dynamic = false;
    CDPU_RETURN_IF_ERROR(encodeSequencesSection(
        block.sequences, scratch, &seq_stream, &dynamic));

    const bool uniform =
        !block_input.empty() &&
        std::all_of(block_input.begin(), block_input.end(),
                    [&](u8 b) { return b == block_input[0]; });

    BlockType type = BlockType::raw;
    if (uniform && block_input.size() > 8)
        type = BlockType::rle;
    else if (scratch.size() + varintSize(scratch.size()) <
             block_input.size())
        type = BlockType::compressed;
    out.push_back(
        static_cast<u8>((last ? 1 : 0) | (static_cast<u8>(type) << 1)));
    putVarint(out, block.regenSize);
    switch (type) {
      case BlockType::raw:
        out.insert(out.end(), block_input.begin(), block_input.end());
        break;
      case BlockType::rle:
        out.push_back(block_input[0]);
        break;
      case BlockType::compressed:
        putVarint(out, scratch.size());
        out.insert(out.end(), scratch.begin(), scratch.end());
        break;
    }

    if (trace) {
        BlockTrace &block_trace = trace->blocks.emplace_back();
        block_trace.type = type;
        block_trace.regenSize = block.regenSize;
        if (type == BlockType::compressed) {
            block_trace.literalsMode = lit_mode;
            block_trace.litCount = block.literals.size();
            block_trace.litStreamBytes = lit_stream;
            block_trace.numSequences = block.sequences.size();
            block_trace.seqStreamBytes = seq_stream;
            block_trace.dynamicTables = dynamic;
            block_trace.sequences = std::move(block.sequences);
        }
    }
    block = PendingBlock{};
    return Status::okStatus();
}

} // namespace

Status
compressInto(ByteSpan input, Bytes &out, const CompressorConfig &config,
             FileTrace *trace, lz77::MatchFinderStats *stats_out)
{
    if (config.level < kMinLevel || config.level > kMaxLevel)
        return Status::invalid("compression level out of range");
    if (config.windowLog < kMinWindowLog ||
        config.windowLog > kMaxWindowLog) {
        return Status::invalid("window log out of range");
    }

    out.clear();
    writeFrameHeader({config.windowLog, input.size()}, out);
    if (trace) {
        *trace = FileTrace{};
        trace->contentSize = input.size();
    }

    lz77::MatchFinderConfig mf_config =
        levelParameters(config.level, config.windowLog);
    if (config.overrideMatchFinder) {
        mf_config.hashTable = config.matchFinderOverride;
        mf_config.skipAcceleration = config.skipAccelerationOverride;
    }
    // Only a stats request needs MatchFinder, whose probe counts the
    // CDPU models read; the specialized parse gives the same sequences,
    // so a trace is the same from either.
    const lz77::Parse parse =
        stats_out ? lz77::MatchFinder(mf_config).parse(input, stats_out)
                  : lz77::fastParse(input, mf_config);

    // Partition the parse into blocks of ~kBlockTarget regenerated
    // bytes. Over-long literal runs are cut by flushing the pending
    // block with the run's head as its trailing literals.
    PendingBlock block;
    std::size_t cursor = 0;      // input position
    std::size_t block_start = 0; // first input byte of current block

    auto flush = [&](bool last) -> Status {
        ByteSpan block_input =
            input.subspan(block_start, cursor - block_start);
        CDPU_RETURN_IF_ERROR(
            flushBlock(block, block_input, last, out, trace));
        block_start = cursor;
        return Status::okStatus();
    };

    for (const auto &seq : parse.sequences) {
        u32 literal_len = seq.literalLength;
        while (literal_len > kMaxSeqLiteralRun) {
            // Move the head of the run into the current block as tail
            // literals and cut — in slabs of at most kBlockTarget, so
            // one giant run can never mint a block past the decoder's
            // kMaxBlockRegenSize bound.
            u32 head = literal_len - kMaxSeqLiteralRun;
            u32 take =
                std::min<u32>(head, static_cast<u32>(kBlockTarget));
            block.literals.insert(block.literals.end(),
                                  input.begin() + cursor,
                                  input.begin() + cursor + take);
            block.regenSize += take;
            cursor += take;
            literal_len -= take;
            CDPU_RETURN_IF_ERROR(flush(false));
        }
        block.literals.insert(block.literals.end(),
                              input.begin() + cursor,
                              input.begin() + cursor + literal_len);
        cursor += literal_len;
        lz77::Sequence adjusted = seq;
        adjusted.literalLength = literal_len;
        block.sequences.push_back(adjusted);
        block.regenSize += literal_len + seq.matchLength;
        cursor += seq.matchLength;
        if (block.regenSize >= kBlockTarget)
            CDPU_RETURN_IF_ERROR(flush(false));
    }

    // Trailing literals after the last sequence, in slabs that keep
    // every block under the decoder's kMaxBlockRegenSize bound.
    while (cursor < input.size()) {
        std::size_t room = block.regenSize < kBlockTarget
                               ? kBlockTarget - block.regenSize
                               : 0;
        if (room == 0) {
            CDPU_RETURN_IF_ERROR(flush(false));
            room = kBlockTarget;
        }
        std::size_t take = std::min(input.size() - cursor, room);
        block.literals.insert(block.literals.end(),
                              input.begin() + cursor,
                              input.begin() + cursor + take);
        block.regenSize += take;
        cursor += take;
    }
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

} // namespace cdpu::zstdlite

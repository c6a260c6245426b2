#include "zstdlite/compress.h"

#include <algorithm>

#include "common/varint.h"

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

/** Encodes and appends the pending block (@p scratch's block literals
 *  and sequences, @p regen_size bytes of @p block_input); falls back
 *  to raw when compression does not win. Records the block in
 *  @p trace when one is given. */
Status
flushBlock(Scratch &scratch, std::size_t regen_size, ByteSpan block_input,
           bool last, Bytes &out, FileTrace *trace)
{
    // Try a compressed block into the scratch body.
    Bytes &body = scratch.body;
    body.clear();
    LiteralsMode lit_mode = LiteralsMode::raw;
    std::size_t lit_stream = 0;
    encodeLiteralsSection(scratch.blockLiterals, body, scratch.literals,
                          &lit_mode, &lit_stream);
    std::size_t seq_stream = 0;
    bool dynamic = false;
    CDPU_RETURN_IF_ERROR(
        encodeSequencesSection(scratch.blockSequences, body,
                               scratch.sequences, &seq_stream, &dynamic));

    const bool uniform =
        !block_input.empty() &&
        std::all_of(block_input.begin(), block_input.end(),
                    [&](u8 b) { return b == block_input[0]; });

    BlockType type = BlockType::raw;
    if (uniform && block_input.size() > 8)
        type = BlockType::rle;
    else if (body.size() + varintSize(body.size()) < block_input.size())
        type = BlockType::compressed;
    out.push_back(
        static_cast<u8>((last ? 1 : 0) | (static_cast<u8>(type) << 1)));
    putVarint(out, regen_size);
    switch (type) {
      case BlockType::raw:
        out.insert(out.end(), block_input.begin(), block_input.end());
        break;
      case BlockType::rle:
        out.push_back(block_input[0]);
        break;
      case BlockType::compressed:
        putVarint(out, body.size());
        out.insert(out.end(), body.begin(), body.end());
        break;
    }

    if (trace) {
        BlockTrace &block_trace = trace->blocks.emplace_back();
        block_trace.type = type;
        block_trace.regenSize = regen_size;
        if (type == BlockType::compressed) {
            block_trace.literalsMode = lit_mode;
            block_trace.litCount = scratch.blockLiterals.size();
            block_trace.litStreamBytes = lit_stream;
            block_trace.numSequences = scratch.blockSequences.size();
            block_trace.seqStreamBytes = seq_stream;
            block_trace.dynamicTables = dynamic;
            block_trace.sequences = scratch.blockSequences;
        }
    }
    scratch.blockLiterals.clear();
    scratch.blockSequences.clear();
    return Status::okStatus();
}

} // namespace

Status
compressInto(ByteSpan input, Bytes &out, const CompressorConfig &config,
             lz77::ParseScratch &parse_scratch, Scratch &scratch,
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
    lz77::Parse &parse = parse_scratch.parse;
    if (stats_out)
        parse = lz77::MatchFinder(mf_config).parse(input, stats_out);
    else
        lz77::fastParse(input, mf_config, parse_scratch.table, parse);

    // Partition the parse into blocks of ~kBlockTarget regenerated
    // bytes. Over-long literal runs are cut by flushing the pending
    // block with the run's head as its trailing literals.
    Bytes &literals = scratch.blockLiterals;
    std::vector<lz77::Sequence> &sequences = scratch.blockSequences;
    literals.clear();
    sequences.clear();
    std::size_t regen_size = 0;  // of the pending block
    std::size_t cursor = 0;      // input position
    std::size_t block_start = 0; // first input byte of current block

    auto flush = [&](bool last) -> Status {
        ByteSpan block_input =
            input.subspan(block_start, cursor - block_start);
        CDPU_RETURN_IF_ERROR(flushBlock(scratch, regen_size, block_input,
                                        last, out, trace));
        regen_size = 0;
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
            literals.insert(literals.end(), input.begin() + cursor,
                            input.begin() + cursor + take);
            regen_size += take;
            cursor += take;
            literal_len -= take;
            CDPU_RETURN_IF_ERROR(flush(false));
        }
        literals.insert(literals.end(), input.begin() + cursor,
                        input.begin() + cursor + literal_len);
        cursor += literal_len;
        lz77::Sequence adjusted = seq;
        adjusted.literalLength = literal_len;
        sequences.push_back(adjusted);
        regen_size += literal_len + seq.matchLength;
        cursor += seq.matchLength;
        if (regen_size >= kBlockTarget)
            CDPU_RETURN_IF_ERROR(flush(false));
    }

    // Trailing literals after the last sequence, in slabs that keep
    // every block under the decoder's kMaxBlockRegenSize bound.
    while (cursor < input.size()) {
        std::size_t room =
            regen_size < kBlockTarget ? kBlockTarget - regen_size : 0;
        if (room == 0) {
            CDPU_RETURN_IF_ERROR(flush(false));
            room = kBlockTarget;
        }
        std::size_t take = std::min(input.size() - cursor, room);
        literals.insert(literals.end(), input.begin() + cursor,
                        input.begin() + cursor + take);
        regen_size += take;
        cursor += take;
    }
    CDPU_RETURN_IF_ERROR(flush(true));

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

} // namespace cdpu::zstdlite

/**
 * @file
 * The zstdlite and flatelite decode loops against their oracles, and
 * the traces they record.
 *
 * Each codec decodes every call, traced or not, with one loop that
 * executes each sequence or match as soon as it is decoded. The
 * materializing decoders it replaced live on here as its oracles:
 * zstdlite's decodes the whole sequences section into a list and then
 * executes the block, flatelite's reads one field at a time through
 * BitReader and pushes one byte at a time. Both share the production
 * header parsers (readSectionHeader, readBlockCodes, the literals
 * section). The loop must agree with its oracle in bytes and
 * FailureClass on clean frames across corpus classes, sizes
 * (multi-block included), levels and window logs, and on the harden
 * injector's truncations and mutations: untraced at every SIMD tier
 * the host runs (decode_battery.h), traced once per frame, where it
 * must also record the oracle's trace whenever both succeed. A decode's trace must also equal the trace
 * the compressor recorded, and both it and the PU models' cycles for
 * it are pinned by digest.
 */

#include <cstring>

#include "cdpu/flate_pu.h"
#include "cdpu/zstd_pu.h"
#include "common/bitio.h"
#include "common/mem.h"
#include "common/varint.h"
#include "decode_battery.h"
#include "flatelite/compress.h"
#include "flatelite/decompress.h"
#include "fse/decoder.h"
#include "huffman/decoder.h"
#include "zstdlite/compress.h"
#include "zstdlite/decompress.h"
#include "zstdlite/literals.h"
#include "zstdlite/sequences.h"

namespace cdpu::zstdlite
{
namespace
{

/** A sequences section decoded into a list, with its trace numbers. */
struct DecodedSequences
{
    std::vector<lz77::Sequence> sequences;
    std::size_t streamBytes = 0;
    bool dynamicTables = false;
};

/** Decodes the sequences section at @p pos (advanced) into a list,
 *  through fse::Decoder and BackwardBitReader, one Result per field. */
Result<DecodedSequences>
decodeSequencesSection(ByteSpan data, std::size_t &pos,
                       std::size_t max_sequences)
{
    DecodedSequences result;
    SectionHeader header;
    CDPU_RETURN_IF_ERROR(
        readSectionHeader(data, pos, max_sequences, header));
    if (header.count == 0)
        return result;
    result.dynamicTables =
        header.dynamic[kLL] || header.dynamic[kOF] || header.dynamic[kML];

    auto ll_table = fse::buildDecodeTable(header.norm(kLL));
    auto of_table = fse::buildDecodeTable(header.norm(kOF));
    auto ml_table = fse::buildDecodeTable(header.norm(kML));
    if (!ll_table.ok())
        return ll_table.status();
    if (!of_table.ok())
        return of_table.status();
    if (!ml_table.ok())
        return ml_table.status();

    result.streamBytes = header.stream.size();
    auto reader = BackwardBitReader::open(header.stream);
    if (!reader.ok())
        return reader.status();

    fse::Decoder ll_dec(ll_table.value());
    fse::Decoder of_dec(of_table.value());
    fse::Decoder ml_dec(ml_table.value());
    CDPU_RETURN_IF_ERROR(of_dec.initState(reader.value()));
    CDPU_RETURN_IF_ERROR(ml_dec.initState(reader.value()));
    CDPU_RETURN_IF_ERROR(ll_dec.initState(reader.value()));

    result.sequences.reserve(header.count);
    for (std::size_t i = 0; i < header.count; ++i) {
        auto ll_bin = literalLengthFromCode(ll_dec.peekSymbol());
        auto of_bin = offsetFromCode(of_dec.peekSymbol());
        auto ml_bin = matchLengthFromCode(ml_dec.peekSymbol());
        if (!ll_bin.ok())
            return ll_bin.status();
        if (!of_bin.ok())
            return of_bin.status();
        if (!ml_bin.ok())
            return ml_bin.status();

        CDPU_RETURN_IF_ERROR(ll_dec.update(reader.value()));
        CDPU_RETURN_IF_ERROR(ml_dec.update(reader.value()));
        CDPU_RETURN_IF_ERROR(of_dec.update(reader.value()));

        auto of_extra = reader.value().read(of_bin.value().extraBits);
        if (!of_extra.ok())
            return of_extra.status();
        auto ml_extra = reader.value().read(ml_bin.value().extraBits);
        if (!ml_extra.ok())
            return ml_extra.status();
        auto ll_extra = reader.value().read(ll_bin.value().extraBits);
        if (!ll_extra.ok())
            return ll_extra.status();

        lz77::Sequence seq;
        seq.literalLength =
            ll_bin.value().baseline + static_cast<u32>(ll_extra.value());
        seq.matchLength =
            ml_bin.value().baseline + static_cast<u32>(ml_extra.value());
        seq.offset =
            of_bin.value().baseline + static_cast<u32>(of_extra.value());
        result.sequences.push_back(seq);
    }

    if (reader.value().bitsLeft() != 0)
        return Status::corrupt("sequence stream has trailing bits");
    if (!ll_dec.atCleanEnd(reader.value()) ||
        !ml_dec.atCleanEnd(reader.value()) ||
        !of_dec.atCleanEnd(reader.value())) {
        return Status::corrupt("sequence decoders not at clean end");
    }
    return result;
}

/** Replays one block's decoded literals and sequence list into
 *  @p out, after checking that they produce exactly @p regen_size
 *  bytes. */
Status
executeBlock(const DecodedLiterals &literals,
             const std::vector<lz77::Sequence> &sequences,
             std::size_t regen_size, u64 window_size, Bytes &out)
{
    u64 produced = literals.bytes.size();
    for (const auto &seq : sequences)
        produced += seq.matchLength;
    if (produced != regen_size)
        return Status::corrupt("block regenerated size mismatch");

    const std::size_t base = out.size();
    const std::size_t end = base + regen_size;
    out.resize(end + mem::kWildCopySlop);
    u8 *dst = out.data();
    std::size_t op = base;
    std::size_t lit_cursor = 0;
    for (const auto &seq : sequences) {
        if (lit_cursor + seq.literalLength > literals.bytes.size())
            return Status::corrupt("sequence literal budget exceeded");
        if (op + seq.literalLength > end)
            return Status::corrupt("block regenerated size mismatch");
        if (seq.literalLength != 0) {
            std::memcpy(dst + op, literals.bytes.data() + lit_cursor,
                        seq.literalLength);
            op += seq.literalLength;
            lit_cursor += seq.literalLength;
        }

        if (seq.offset == 0 || seq.offset > op)
            return Status::corrupt("match offset exceeds history");
        if (seq.offset > window_size)
            return Status::corrupt("match offset exceeds window");
        if (op + seq.matchLength > end)
            return Status::corrupt("block regenerated size mismatch");
        if (seq.offset >= 8)
            mem::wildCopy(dst + op, dst + op - seq.offset,
                          seq.matchLength, dst + out.size());
        else
            mem::incrementalCopy(dst + op, seq.offset, seq.matchLength);
        op += seq.matchLength;
    }
    const std::size_t tail = literals.bytes.size() - lit_cursor;
    if (op + tail != end)
        return Status::corrupt("block regenerated size mismatch");
    if (tail != 0)
        std::memcpy(dst + op, literals.bytes.data() + lit_cursor, tail);
    out.resize(end);
    return Status::okStatus();
}

/** Decodes the block at @p pos (advanced past it) onto @p out and
 *  records its trace. */
Status
decodeBlockReference(ByteSpan data, std::size_t &pos, u64 window_size,
                     u64 content_size, Bytes &out, BlockTrace &trace,
                     bool &last)
{
    if (pos >= data.size())
        return Status::corrupt("missing last block");
    u8 block_header = data[pos++];
    last = block_header & 1;
    u8 type_bits = (block_header >> 1) & 3;
    if (type_bits > static_cast<u8>(BlockType::compressed))
        return Status::corrupt("bad block type");
    trace.type = static_cast<BlockType>(type_bits);

    auto regen = getVarint(data, pos);
    if (!regen.ok())
        return regen.status();
    if (regen.value() > kMaxBlockRegenSize)
        return Status::corrupt("block size exceeds format bound");
    if (out.size() + regen.value() > content_size)
        return Status::corrupt("blocks exceed content size");
    const std::size_t regen_size = regen.value();
    trace.regenSize = regen_size;

    switch (trace.type) {
      case BlockType::raw:
        if (pos + regen_size > data.size())
            return Status::corrupt("raw block truncated");
        out.insert(out.end(), data.begin() + pos,
                   data.begin() + pos + regen_size);
        pos += regen_size;
        return Status::okStatus();
      case BlockType::rle:
        if (pos >= data.size())
            return Status::corrupt("rle block truncated");
        out.insert(out.end(), regen_size, data[pos++]);
        return Status::okStatus();
      case BlockType::compressed:
        break;
    }

    auto comp_size = getVarint(data, pos);
    if (!comp_size.ok())
        return comp_size.status();
    if (pos + comp_size.value() > data.size())
        return Status::corrupt("compressed block truncated");
    ByteSpan body = data.subspan(pos, comp_size.value());
    pos += comp_size.value();

    std::size_t body_pos = 0;
    LiteralsScratch literals_scratch;
    DecodedLiterals literals;
    CDPU_RETURN_IF_ERROR(decodeLiteralsSection(
        body, body_pos, regen_size, literals_scratch, literals));
    auto sequences = decodeSequencesSection(
        body, body_pos, regen_size / kMinMatchLength + 1);
    if (!sequences.ok())
        return sequences.status();
    if (body_pos != body.size())
        return Status::corrupt("trailing bytes in block body");
    CDPU_RETURN_IF_ERROR(executeBlock(literals,
                                      sequences.value().sequences,
                                      regen_size, window_size, out));

    trace.literalsMode = literals.mode;
    trace.litCount = literals.bytes.size();
    trace.litStreamBytes = literals.streamBytes;
    trace.numSequences = sequences.value().sequences.size();
    trace.seqStreamBytes = sequences.value().streamBytes;
    trace.dynamicTables = sequences.value().dynamicTables;
    trace.sequences = std::move(sequences.value().sequences);
    return Status::okStatus();
}

/** The zstdlite oracle: decompress() through the materializing
 *  decoder, recording into @p trace when given. */
Result<Bytes>
referenceDecompress(ByteSpan data, FileTrace *trace = nullptr)
{
    std::size_t pos = 0;
    auto header = readFrameHeader(data, pos);
    if (!header.ok())
        return header.status();
    if (header.value().contentSize > (1ull << 32))
        return Status::corrupt("content size beyond 4 GiB bound");
    FileTrace local;
    FileTrace &file = trace ? *trace : local;
    file = FileTrace{};
    file.contentSize = header.value().contentSize;
    file.compressedSize = data.size();

    Bytes out;
    bool saw_last = false;
    while (!saw_last) {
        CDPU_RETURN_IF_ERROR(decodeBlockReference(
            data, pos, u64{1} << header.value().windowLog,
            header.value().contentSize, out, file.blocks.emplace_back(),
            saw_last));
    }
    if (out.size() != header.value().contentSize)
        return Status::corrupt("content size mismatch");
    if (pos != data.size())
        return Status::corrupt("trailing bytes after last block");
    return out;
}

} // namespace
} // namespace cdpu::zstdlite

namespace cdpu::flatelite
{
namespace
{

/** Table-driven decode of one lit/len or distance symbol. */
Result<u16>
decodeSymbol(const huffman::Decoder &decoder, BitReader &reader)
{
    u32 prefix = static_cast<u32>(reader.peek(decoder.maxBits()));
    const auto &entry = decoder.entryAt(prefix);
    if (entry.length == 0)
        return Status::corrupt("invalid flate code");
    CDPU_RETURN_IF_ERROR(reader.advance(entry.length));
    return entry.symbol;
}

/** Decodes one compressed block symbol by symbol, one push_back per
 *  output byte, recording its sequences and symbol counts. */
Status
decodeBlockReference(const BlockCodes &codes, ByteSpan stream,
                     u64 window, std::size_t regen_size, Bytes &out,
                     BlockTrace &block_trace)
{
    auto litlen_decoder = huffman::Decoder::build(codes.litlen);
    if (!litlen_decoder.ok())
        return litlen_decoder.status();
    huffman::Decoder dist_decoder;
    if (codes.hasDistances) {
        auto built = huffman::Decoder::build(codes.dist);
        if (!built.ok())
            return built.status();
        dist_decoder = std::move(built).value();
    }

    BitReader reader(stream);
    std::size_t produced_before = out.size();
    std::size_t pending_literals = 0;
    for (;;) {
        auto symbol = decodeSymbol(litlen_decoder.value(), reader);
        if (!symbol.ok())
            return symbol.status();
        ++block_trace.symbolCount;
        if (symbol.value() == kEndOfBlock)
            break;
        if (symbol.value() < 256) {
            out.push_back(static_cast<u8>(symbol.value()));
            ++pending_literals;
            ++block_trace.literalBytes;
            if (out.size() - produced_before > regen_size)
                return Status::corrupt("flate block overruns");
            continue;
        }
        auto len_bin = lengthFromCode(symbol.value());
        if (!len_bin.ok())
            return len_bin.status();
        auto len_extra = reader.read(len_bin.value().extraBits);
        if (!len_extra.ok())
            return len_extra.status();
        u32 length = len_bin.value().baseline +
                     static_cast<u32>(len_extra.value());

        if (!codes.hasDistances)
            return Status::corrupt("match without distance table");
        auto dist_symbol = decodeSymbol(dist_decoder, reader);
        if (!dist_symbol.ok())
            return dist_symbol.status();
        ++block_trace.symbolCount;
        auto dist_bin = distanceFromCode(dist_symbol.value());
        if (!dist_bin.ok())
            return dist_bin.status();
        auto dist_extra = reader.read(dist_bin.value().extraBits);
        if (!dist_extra.ok())
            return dist_extra.status();
        u32 distance = dist_bin.value().baseline +
                       static_cast<u32>(dist_extra.value());

        if (distance == 0 || distance > out.size())
            return Status::corrupt("flate distance exceeds history");
        if (distance > window)
            return Status::corrupt("flate distance exceeds window");
        if (out.size() - produced_before + length > regen_size)
            return Status::corrupt("flate block overruns");

        block_trace.sequences.push_back(
            {static_cast<u32>(pending_literals), length, distance});
        pending_literals = 0;

        std::size_t from = out.size() - distance;
        for (u32 i = 0; i < length; ++i)
            out.push_back(out[from + i]);
    }
    if (out.size() - produced_before != regen_size)
        return Status::corrupt("flate block size mismatch");
    return Status::okStatus();
}

/** The flatelite oracle: decompress() through the per-field decoder,
 *  recording into @p trace when given. */
Result<Bytes>
referenceDecompress(ByteSpan data, FileTrace *trace = nullptr)
{
    std::size_t pos = 0;
    auto header = readFrameHeader(data, pos);
    if (!header.ok())
        return header.status();
    if (header.value().contentSize > (1ull << 32))
        return Status::corrupt("implausible flate content size");
    const u64 window = 1ull << header.value().windowLog;
    FileTrace local;
    FileTrace &file = trace ? *trace : local;
    file = FileTrace{};
    file.contentSize = header.value().contentSize;
    file.compressedSize = data.size();

    Bytes out;
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

        BlockTrace &block_trace = file.blocks.emplace_back();
        block_trace.regenSize = regen_size;
        block_trace.compressed = compressed;
        if (!compressed) {
            if (pos + regen_size > data.size())
                return Status::corrupt("flate raw block truncated");
            out.insert(out.end(), data.begin() + pos,
                       data.begin() + pos + regen_size);
            pos += regen_size;
            continue;
        }

        BlockCodes codes;
        CDPU_RETURN_IF_ERROR(readBlockCodes(data, pos, codes));
        auto stream_bytes = getVarint(data, pos);
        if (!stream_bytes.ok())
            return stream_bytes.status();
        if (pos + stream_bytes.value() > data.size())
            return Status::corrupt("flate stream truncated");
        ByteSpan stream = data.subspan(pos, stream_bytes.value());
        pos += stream_bytes.value();
        block_trace.streamBytes = stream.size();
        CDPU_RETURN_IF_ERROR(decodeBlockReference(
            codes, stream, window, regen_size, out, block_trace));
    }

    if (out.size() != header.value().contentSize)
        return Status::corrupt("flate content size mismatch");
    if (pos != data.size())
        return Status::corrupt("trailing bytes after flate frame");
    return out;
}

} // namespace
} // namespace cdpu::flatelite

namespace cdpu
{
namespace
{

/** @p got must equal @p want field for field; @p what names the frame. */
void
expectSameTrace(const zstdlite::FileTrace &got,
                const zstdlite::FileTrace &want, const std::string &what)
{
    EXPECT_EQ(got.compressedSize, want.compressedSize) << what;
    EXPECT_EQ(got.contentSize, want.contentSize) << what;
    ASSERT_EQ(got.blocks.size(), want.blocks.size()) << what;
    for (std::size_t b = 0; b < got.blocks.size(); ++b) {
        const zstdlite::BlockTrace &g = got.blocks[b];
        const zstdlite::BlockTrace &w = want.blocks[b];
        const std::string where = what + ", block " + std::to_string(b);
        EXPECT_EQ(g.type, w.type) << where;
        EXPECT_EQ(g.regenSize, w.regenSize) << where;
        EXPECT_EQ(g.literalsMode, w.literalsMode) << where;
        EXPECT_EQ(g.litCount, w.litCount) << where;
        EXPECT_EQ(g.litStreamBytes, w.litStreamBytes) << where;
        EXPECT_EQ(g.numSequences, w.numSequences) << where;
        EXPECT_EQ(g.seqStreamBytes, w.seqStreamBytes) << where;
        EXPECT_EQ(g.dynamicTables, w.dynamicTables) << where;
        EXPECT_TRUE(g.sequences == w.sequences) << where;
    }
}

void
expectSameTrace(const flatelite::FileTrace &got,
                const flatelite::FileTrace &want, const std::string &what)
{
    EXPECT_EQ(got.compressedSize, want.compressedSize) << what;
    EXPECT_EQ(got.contentSize, want.contentSize) << what;
    ASSERT_EQ(got.blocks.size(), want.blocks.size()) << what;
    for (std::size_t b = 0; b < got.blocks.size(); ++b) {
        const flatelite::BlockTrace &g = got.blocks[b];
        const flatelite::BlockTrace &w = want.blocks[b];
        const std::string where = what + ", block " + std::to_string(b);
        EXPECT_EQ(g.compressed, w.compressed) << where;
        EXPECT_EQ(g.regenSize, w.regenSize) << where;
        EXPECT_EQ(g.symbolCount, w.symbolCount) << where;
        EXPECT_EQ(g.streamBytes, w.streamBytes) << where;
        EXPECT_EQ(g.literalBytes, w.literalBytes) << where;
        EXPECT_TRUE(g.sequences == w.sequences) << where;
    }
}

/**
 * The oracle as the battery sees it, with the traced production decode
 * beside it once per frame. A trace only observes, so the traced
 * decode must reach the oracle's verdict and bytes, and record the
 * oracle's trace. The battery runs the untraced decode at every tier.
 */
template <typename FileTrace>
battery::DecodeFn
oracleBesideTracedDecode(Result<Bytes> (*oracle)(ByteSpan, FileTrace *),
                         Result<Bytes> (*decompress)(ByteSpan, FileTrace *))
{
    return [oracle, decompress](ByteSpan frame) {
        FileTrace want;
        Result<Bytes> expected = oracle(frame, &want);
        FileTrace got;
        const Result<Bytes> traced = decompress(frame, &got);
        const std::string what =
            "traced decode of a " + std::to_string(frame.size()) +
            "-byte frame";
        EXPECT_EQ(failureClass(traced.status()),
                  failureClass(expected.status()))
            << what;
        if (traced.ok() && expected.ok()) {
            EXPECT_TRUE(traced.value() == expected.value()) << what;
            expectSameTrace(got, want, what);
        }
        return expected;
    };
}

/** A pool of frames to mutate: small frames of every class under each
 *  of @p configs, plus one frame of @p multi_block_bytes that spans
 *  several blocks. */
template <typename Config, typename Compress>
std::vector<Bytes>
mutationPool(const std::vector<Config> &configs, Compress compress,
             std::size_t multi_block_bytes)
{
    Rng rng(8191);
    std::vector<Bytes> pool;
    const auto classes = corpus::allDataClasses();
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const Bytes payload = corpus::generate(
            classes[i], std::size_t{64} << (2 * (i % 4)), rng);
        pool.push_back(compress(payload, configs[i % configs.size()]));
    }
    pool.push_back(compress(corpus::generateMixed(multi_block_bytes, rng),
                            configs.front()));
    return pool;
}

std::vector<zstdlite::CompressorConfig>
zstdliteConfigs()
{
    std::vector<zstdlite::CompressorConfig> configs;
    for (auto [level, window_log] :
         {std::pair{zstdlite::kMinLevel, zstdlite::kMinWindowLog},
          std::pair{zstdlite::kDefaultLevel, 17u},
          std::pair{zstdlite::kMaxLevel, zstdlite::kMaxWindowLog}}) {
        zstdlite::CompressorConfig config;
        config.level = level;
        config.windowLog = window_log;
        configs.push_back(config);
    }
    return configs;
}

Bytes
zstdliteCompress(ByteSpan payload,
                 const zstdlite::CompressorConfig &config)
{
    auto frame = zstdlite::compress(payload, config);
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    return frame.ok() ? std::move(frame).value() : Bytes{};
}

const battery::DecodeFn kZstdProduction = [](ByteSpan frame) {
    return zstdlite::decompress(frame);
};
const battery::DecodeFn kZstdOracle = oracleBesideTracedDecode(
    &zstdlite::referenceDecompress, &zstdlite::decompress);

TEST(ZstdLiteFusedDecode, CleanFramesMatchReference)
{
    std::vector<battery::CompressFn> compressors;
    for (const auto &config : zstdliteConfigs())
        compressors.push_back([config](ByteSpan payload) {
            return zstdliteCompress(payload, config);
        });
    battery::expectCleanFramesAgree(compressors, kZstdProduction,
                                    kZstdOracle);
}

TEST(ZstdLiteFusedDecode, MutatedFramesMatchReference)
{
    const auto pool = mutationPool(zstdliteConfigs(), zstdliteCompress,
                                   zstdlite::kBlockTarget + 16 * kKiB);
    battery::expectMutationsAgree(codec::CodecId::zstdlite, pool,
                                  kZstdProduction, kZstdOracle);
}

std::vector<flatelite::CompressorConfig>
flateliteConfigs()
{
    std::vector<flatelite::CompressorConfig> configs;
    for (auto [level, window_log] :
         {std::pair{1, flatelite::kMinWindowLog}, std::pair{6, 12u},
          std::pair{9, flatelite::kMaxWindowLog}}) {
        flatelite::CompressorConfig config;
        config.level = level;
        config.windowLog = window_log;
        configs.push_back(config);
    }
    return configs;
}

Bytes
flateliteCompress(ByteSpan payload,
                  const flatelite::CompressorConfig &config)
{
    auto frame = flatelite::compress(payload, config);
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    return frame.ok() ? std::move(frame).value() : Bytes{};
}

const battery::DecodeFn kFlateProduction = [](ByteSpan frame) {
    return flatelite::decompress(frame);
};
const battery::DecodeFn kFlateOracle = oracleBesideTracedDecode(
    &flatelite::referenceDecompress, &flatelite::decompress);

TEST(FlateLiteFusedDecode, CleanFramesMatchReference)
{
    std::vector<battery::CompressFn> compressors;
    for (const auto &config : flateliteConfigs())
        compressors.push_back([config](ByteSpan payload) {
            return flateliteCompress(payload, config);
        });
    battery::expectCleanFramesAgree(compressors, kFlateProduction,
                                    kFlateOracle);
}

TEST(FlateLiteFusedDecode, MutatedFramesMatchReference)
{
    const auto pool = mutationPool(flateliteConfigs(), flateliteCompress,
                                   flatelite::kBlockTarget + 16 * kKiB);
    battery::expectMutationsAgree(codec::CodecId::flatelite, pool,
                                  kFlateProduction, kFlateOracle);
}

/** Folds @p sequences into @p digest. */
void
addSequences(battery::Fnv1a &digest,
             const std::vector<lz77::Sequence> &sequences)
{
    digest.add(sequences.size());
    for (const lz77::Sequence &seq : sequences) {
        digest.add(seq.literalLength);
        digest.add(seq.matchLength);
        digest.add(seq.offset);
    }
}

/** The trace grid: calls @p body(payload, level, what) for every
 *  corpus class at 100 B, 4 KiB and 300 KB (past both codecs' block
 *  targets), at levels 1, 3 and 9, from a fixed seed. */
template <typename Body>
void
forEachTraceFrame(Body body)
{
    Rng rng(6151);
    for (corpus::DataClass cls : corpus::allDataClasses()) {
        for (std::size_t size : {std::size_t{100}, 4 * kKiB,
                                 std::size_t{300000}}) {
            const Bytes payload = corpus::generate(cls, size, rng);
            for (int level : {1, 3, 9})
                body(ByteSpan(payload), level,
                     corpus::dataClassName(cls) + " at " +
                         std::to_string(size) + " B, level " +
                         std::to_string(level));
        }
    }
}

void
addTrace(battery::Fnv1a &digest, const zstdlite::FileTrace &trace)
{
    digest.add(trace.compressedSize);
    digest.add(trace.contentSize);
    for (const zstdlite::BlockTrace &block : trace.blocks) {
        digest.add(static_cast<u64>(block.type));
        digest.add(block.regenSize);
        digest.add(static_cast<u64>(block.literalsMode));
        digest.add(block.litCount);
        digest.add(block.litStreamBytes);
        digest.add(block.numSequences);
        digest.add(block.seqStreamBytes);
        digest.add(block.dynamicTables);
        addSequences(digest, block.sequences);
    }
}

void
addTrace(battery::Fnv1a &digest, const flatelite::FileTrace &trace)
{
    digest.add(trace.compressedSize);
    digest.add(trace.contentSize);
    for (const flatelite::BlockTrace &block : trace.blocks) {
        digest.add(block.compressed);
        digest.add(block.regenSize);
        digest.add(block.symbolCount);
        digest.add(block.streamBytes);
        digest.add(block.literalBytes);
        addSequences(digest, block.sequences);
    }
}

/**
 * A codec's pinned trace-grid results. The digests were taken from the
 * materializing decoders, before the fused loops recorded traces, so
 * the figures that replay these traces cannot move unnoticed.
 */
struct TracePins
{
    std::size_t multiBlockFrames; ///< Frames of more than one block.
    u64 traceDigest;              ///< Every decode trace, in grid order.
    u64 cycleDigest;              ///< runFromTrace cycles per trace.
};

/**
 * Over the trace grid, decompress(frame, &trace) must equal the trace
 * @p compress recorded for the frame, field for field, and the traces
 * and the cycles a default-configured @p Pu charges for them must
 * match @p pins.
 */
template <typename Pu, typename Config, typename FileTrace>
void
expectDecodeRecordsCompressorTrace(
    Result<Bytes> (*compress)(ByteSpan, const Config &, FileTrace *,
                              lz77::MatchFinderStats *),
    Result<Bytes> (*decompress)(ByteSpan, FileTrace *),
    const TracePins &pins)
{
    battery::Fnv1a traces;
    battery::Fnv1a cycles;
    std::size_t multi_block = 0;
    forEachTraceFrame([&](ByteSpan payload, int level,
                          const std::string &what) {
        Config config;
        config.level = level;
        FileTrace want;
        auto frame = compress(payload, config, &want, nullptr);
        ASSERT_TRUE(frame.ok()) << what;
        FileTrace got;
        auto decoded = decompress(frame.value(), &got);
        ASSERT_TRUE(decoded.ok()) << what;
        EXPECT_TRUE(decoded.value() == Bytes(payload.begin(), payload.end()))
            << what;
        expectSameTrace(got, want, what);
        multi_block += got.blocks.size() > 1;
        addTrace(traces, got);
        Pu pu{hw::CdpuConfig{}};
        cycles.add(pu.runFromTrace(got, frame.value().size()).cycles);
    });
    EXPECT_EQ(multi_block, pins.multiBlockFrames);
    EXPECT_EQ(traces.state, pins.traceDigest) << std::hex << traces.state;
    EXPECT_EQ(cycles.state, pins.cycleDigest) << std::hex << cycles.state;
}

TEST(ZstdLiteTrace, DecodeRecordsTheCompressorTrace)
{
    // Every 300 KB frame spans several blocks.
    expectDecodeRecordsCompressorTrace<hw::ZstdDecompressorPU>(
        &zstdlite::compress, &zstdlite::decompress,
        {27, 0xfc36e2c0a68a8a6full, 0xb287540144a26ea2ull});
}

TEST(FlateLiteTrace, DecodeRecordsTheCompressorTrace)
{
    // Every 300 KB frame but the random ones spans several blocks:
    // flatelite cuts a block only after a match.
    expectDecodeRecordsCompressorTrace<hw::FlateDecompressorPU>(
        &flatelite::compress, &flatelite::decompress,
        {24, 0x3c8c1ca5994dc468ull, 0xcec9962d10fba696ull});
}

} // namespace
} // namespace cdpu

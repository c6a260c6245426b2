#include "zstdlite/literals.h"

#include <algorithm>
#include <array>

#include "common/varint.h"
#include "huffman/decoder.h"
#include "huffman/encoder.h"

namespace cdpu::zstdlite
{

namespace
{

/** Literal alphabet size; its 4-bit code lengths pack into 128 bytes. */
constexpr std::size_t kLiteralSymbols = 256;
constexpr std::size_t kLengthTableBytes = kLiteralSymbols / 2;

} // namespace

void
encodeLiteralsSection(ByteSpan literals, Bytes &out,
                      LiteralsScratch &scratch, LiteralsMode *mode_out,
                      std::size_t *stream_bytes_out)
{
    auto emit_header = [&](LiteralsMode mode) {
        out.push_back(static_cast<u8>(mode));
        putVarint(out, literals.size());
        if (mode_out)
            *mode_out = mode;
        if (stream_bytes_out)
            *stream_bytes_out = 0;
    };

    if (literals.empty()) {
        emit_header(LiteralsMode::raw);
        return;
    }

    // RLE: a uniform run of more than a few bytes.
    bool uniform = std::all_of(literals.begin(), literals.end(),
                               [&](u8 b) { return b == literals[0]; });
    if (uniform && literals.size() > 4) {
        emit_header(LiteralsMode::rle);
        out.push_back(literals[0]);
        return;
    }

    // Try Huffman; fall back to raw when it cannot win (including its
    // fixed 128-byte table and varint stream length).
    std::array<u64, kLiteralSymbols> freqs{};
    for (u8 b : literals)
        ++freqs[b];
    huffman::CodeTable &table = scratch.code;
    if (huffman::buildCodeTable(freqs, huffman::kDefaultMaxBits, table)
            .ok()) {
        auto bit_cost = huffman::encodedBitCost(table, freqs);
        if (bit_cost.ok()) {
            std::size_t stream_bytes = (bit_cost.value() + 1 + 7) / 8;
            std::size_t huff_total = kLengthTableBytes + stream_bytes +
                                     varintSize(stream_bytes);
            if (huff_total < literals.size()) {
                emit_header(LiteralsMode::huffman);
                huffman::packLengths(table.lengths, kLiteralSymbols, out);
                putVarint(out, stream_bytes);
                BitWriter &writer = scratch.stream;
                writer.clear();
                huffman::encode(table, literals, writer);
                const ByteSpan stream = writer.terminate();
                out.insert(out.end(), stream.begin(), stream.end());
                if (stream_bytes_out)
                    *stream_bytes_out = stream.size();
                return;
            }
        }
    }

    emit_header(LiteralsMode::raw);
    out.insert(out.end(), literals.begin(), literals.end());
}

Status
decodeLiteralsSection(ByteSpan data, std::size_t &pos,
                      std::size_t max_literals, LiteralsScratch &scratch,
                      DecodedLiterals &literals)
{
    if (pos >= data.size())
        return Status::corrupt("literals section truncated");
    u8 mode_byte = data[pos++];
    if (mode_byte > static_cast<u8>(LiteralsMode::huffman))
        return Status::corrupt("bad literals mode");
    literals = DecodedLiterals{};
    literals.mode = static_cast<LiteralsMode>(mode_byte);

    auto count = getVarint(data, pos);
    if (!count.ok())
        return count.status();
    // Checked before any mode allocates: RLE assigns and Huffman
    // reserves lit_count bytes, so the claim must fit the block bound
    // first.
    if (count.value() > max_literals)
        return Status::corrupt("literal count exceeds block bound");
    std::size_t lit_count = count.value();

    switch (literals.mode) {
      case LiteralsMode::raw: {
        if (pos + lit_count > data.size())
            return Status::corrupt("raw literals truncated");
        literals.bytes = data.subspan(pos, lit_count);
        pos += lit_count;
        return Status::okStatus();
      }
      case LiteralsMode::rle: {
        if (pos >= data.size())
            return Status::corrupt("rle literal truncated");
        scratch.bytes.assign(lit_count, data[pos++]);
        literals.bytes = ByteSpan(scratch.bytes.data(), lit_count);
        return Status::okStatus();
      }
      case LiteralsMode::huffman: {
        if (pos + kLengthTableBytes > data.size())
            return Status::corrupt("huffman table truncated");
        huffman::CodeTable &table = scratch.code;
        huffman::unpackLengths(data.subspan(pos, kLengthTableBytes),
                               kLiteralSymbols, table.lengths);
        pos += kLengthTableBytes;
        CDPU_RETURN_IF_ERROR(huffman::codesFromLengths(table));
        CDPU_RETURN_IF_ERROR(scratch.decoder.rebuild(table));

        auto stream_bytes = getVarint(data, pos);
        if (!stream_bytes.ok())
            return stream_bytes.status();
        if (pos + stream_bytes.value() > data.size())
            return Status::corrupt("huffman stream truncated");
        ByteSpan stream = data.subspan(pos, stream_bytes.value());
        pos += stream_bytes.value();
        literals.streamBytes = stream.size();

        BitReader reader(stream);
        scratch.bytes.clear();
        CDPU_RETURN_IF_ERROR(
            scratch.decoder.decode(reader, lit_count, scratch.bytes));
        literals.bytes = ByteSpan(scratch.bytes.data(), lit_count);
        return Status::okStatus();
      }
    }
    return Status::internal("unreachable literals mode");
}

} // namespace cdpu::zstdlite

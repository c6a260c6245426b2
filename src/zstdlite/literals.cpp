#include "zstdlite/literals.h"

#include <algorithm>

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
                      LiteralsMode *mode_out,
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
    auto freqs = huffman::countFrequencies(literals);
    auto table = huffman::buildCodeTable(freqs);
    if (table.ok()) {
        auto bit_cost = huffman::encodedBitCost(table.value(), freqs);
        if (bit_cost.ok()) {
            std::size_t stream_bytes = (bit_cost.value() + 1 + 7) / 8;
            std::size_t huff_total = kLengthTableBytes + stream_bytes +
                                     varintSize(stream_bytes);
            if (huff_total < literals.size()) {
                emit_header(LiteralsMode::huffman);
                huffman::packLengths(table.value().lengths, kLiteralSymbols,
                                     out);
                putVarint(out, stream_bytes);
                BitWriter writer;
                // Cannot fail: the table was built over these literals.
                (void)huffman::encode(table.value(), literals, writer);
                Bytes stream = writer.finish();
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

Result<DecodedLiterals>
decodeLiteralsSection(ByteSpan data, std::size_t &pos,
                      std::size_t max_literals)
{
    if (pos >= data.size())
        return Status::corrupt("literals section truncated");
    u8 mode_byte = data[pos++];
    if (mode_byte > static_cast<u8>(LiteralsMode::huffman))
        return Status::corrupt("bad literals mode");
    DecodedLiterals result;
    result.mode = static_cast<LiteralsMode>(mode_byte);

    auto count = getVarint(data, pos);
    if (!count.ok())
        return count.status();
    // Checked before any mode allocates: RLE assigns and Huffman
    // reserves lit_count bytes, so the claim must fit the block bound
    // first.
    if (count.value() > max_literals)
        return Status::corrupt("literal count exceeds block bound");
    std::size_t lit_count = count.value();

    switch (result.mode) {
      case LiteralsMode::raw: {
        if (pos + lit_count > data.size())
            return Status::corrupt("raw literals truncated");
        result.bytes.assign(data.begin() + pos,
                            data.begin() + pos + lit_count);
        pos += lit_count;
        return result;
      }
      case LiteralsMode::rle: {
        if (pos >= data.size())
            return Status::corrupt("rle literal truncated");
        result.bytes.assign(lit_count, data[pos++]);
        return result;
      }
      case LiteralsMode::huffman: {
        if (pos + kLengthTableBytes > data.size())
            return Status::corrupt("huffman table truncated");
        auto lengths =
            huffman::unpackLengths(data.subspan(pos, kLengthTableBytes),
                                   kLiteralSymbols);
        pos += kLengthTableBytes;
        auto table = huffman::codesFromLengths(lengths);
        if (!table.ok())
            return table.status();
        auto decoder = huffman::Decoder::build(table.value());
        if (!decoder.ok())
            return decoder.status();

        auto stream_bytes = getVarint(data, pos);
        if (!stream_bytes.ok())
            return stream_bytes.status();
        if (pos + stream_bytes.value() > data.size())
            return Status::corrupt("huffman stream truncated");
        ByteSpan stream = data.subspan(pos, stream_bytes.value());
        pos += stream_bytes.value();
        result.streamBytes = stream.size();

        BitReader reader(stream);
        result.bytes.reserve(lit_count);
        CDPU_RETURN_IF_ERROR(
            decoder.value().decode(reader, lit_count, result.bytes));
        return result;
      }
    }
    return Status::internal("unreachable literals mode");
}

} // namespace cdpu::zstdlite

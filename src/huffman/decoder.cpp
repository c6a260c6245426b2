#include "huffman/decoder.h"

#include <algorithm>

#include "common/mem.h"

namespace cdpu::huffman
{

Result<Decoder>
Decoder::build(const CodeTable &table)
{
    Decoder decoder;
    CDPU_RETURN_IF_ERROR(decoder.rebuild(table));
    return decoder;
}

Status
Decoder::rebuild(const CodeTable &table)
{
    if (table.maxBits == 0 || table.maxBits > 15)
        return Status::invalid("bad huffman table");
    maxBits_ = table.maxBits;
    table_.assign(std::size_t{1} << table.maxBits, Entry{});

    for (std::size_t sym = 0; sym < table.numSymbols(); ++sym) {
        u8 len = table.lengths[sym];
        if (len == 0)
            continue;
        // The stored code is already bit-reversed (LSB-first); every
        // index whose low `len` bits equal it decodes to this symbol.
        u32 stride = 1u << len;
        for (u32 idx = table.codes[sym]; idx < table_.size();
             idx += stride) {
            table_[idx] = {static_cast<u16>(sym), len};
        }
    }

    // Fuse a second symbol into each window where it provably fits.
    // Indexing table_ at prefix >> len0 zero-extends the high bits, so
    // the second entry is trustworthy exactly when its code lies
    // entirely inside the real (non-extended) bits: len0 + len1 <=
    // maxBits. Prefix-free codes make that low-bits lookup unambiguous.
    pairs_.assign(table_.size(), PairEntry{});
    for (u32 prefix = 0; prefix < table_.size(); ++prefix) {
        const Entry &first = table_[prefix];
        if (first.length == 0)
            continue;
        PairEntry pair;
        pair.sym0 = static_cast<u8>(first.symbol);
        pair.bits = first.length;
        pair.count = 1;
        const Entry &second = table_[prefix >> first.length];
        if (second.length != 0 &&
            first.length + second.length <= table.maxBits) {
            pair.sym1 = static_cast<u8>(second.symbol);
            pair.bits = static_cast<u8>(first.length + second.length);
            pair.count = 2;
        }
        pairs_[prefix] = pair;
    }
    return Status::okStatus();
}

Status
Decoder::decode(BitReader &reader, std::size_t count, Bytes &out) const
{
    // Resize once and write by index: the symbol count is known up
    // front, so per-symbol push_back capacity checks are pure waste.
    const std::size_t start = out.size();
    out.resize(start + count);
    u8 *dst = out.data() + start;
    const ByteSpan stream = reader.data();
    const u64 end_bit = u64{stream.size()} * 8;
    // Locals, not members: stores through dst may alias anything, so
    // member loads would repeat after every symbol.
    const PairEntry *const pairs = pairs_.data();
    const Entry *const table = table_.data();
    const u32 mask = (1u << maxBits_) - 1;
    // Every lookup consumes at most maxBits_ bits, so one bitWindow()
    // (>= 57 valid bits) serves this many lookups.
    const unsigned per_window = 56 / maxBits_;
    u64 pos = reader.bitPos();
    std::size_t i = 0;
    bool valid = true;

    // Lookups run on zero-padded bits near the stream end; the cursor
    // check after the last window rejects any symbol that crossed it.
    // Both failure modes (no code, or a code past the end) are the ones
    // a per-symbol decode reports, so verdicts match it exactly.
    //
    // The pair table emits two symbols per lookup where it fused them;
    // the one-symbol loop below finishes the tail, where a full window
    // of pairs could run past count.
    while (valid && i + 2 * per_window <= count) {
        const u64 window = bitWindow(stream.data(), stream.size(), pos);
        unsigned used = 0;
        for (unsigned k = 0; k < per_window; ++k) {
            const PairEntry &pair = pairs[(window >> used) & mask];
            valid &= pair.count != 0;
            dst[i] = pair.sym0;
            dst[i + 1] = pair.sym1;
            i += pair.count;
            used += pair.bits;
        }
        pos += used;
    }
    while (valid && i < count) {
        const u64 window = bitWindow(stream.data(), stream.size(), pos);
        const std::size_t n = std::min<std::size_t>(per_window, count - i);
        unsigned used = 0;
        for (std::size_t k = 0; k < n; ++k) {
            const Entry &entry = table[(window >> used) & mask];
            valid &= entry.length != 0;
            dst[i++] = static_cast<u8>(entry.symbol);
            used += entry.length;
        }
        pos += used;
    }
    if (!valid || pos > end_bit) {
        out.resize(start);
        return Status::corrupt(valid ? "bit stream truncated"
                                     : "invalid huffman code");
    }
    reader.seek(pos);
    // The same loops run at every tier: counted as scalar work.
    mem::kernelStats().tierHuffSymbols[0] += count;
    return Status::okStatus();
}

} // namespace cdpu::huffman

#include "huffman/encoder.h"

#include <cassert>

namespace cdpu::huffman
{

namespace
{

/** encode() with @p kPerPut codes per put(); kPerPut codes of the
 *  table's longest length fit put()'s 56 bits. */
template <unsigned kPerPut>
void
encodePacked(const CodeTable &table, ByteSpan symbols, BitWriter &writer)
{
    const u16 *const codes = table.codes.data();
    const u8 *const lengths = table.lengths.data();
    const u8 *const sym = symbols.data();
    const std::size_t count = symbols.size();
    std::size_t i = 0;
    for (; i + kPerPut <= count; i += kPerPut) {
        u64 bits = 0;
        unsigned used = 0;
        for (unsigned k = 0; k < kPerPut; ++k) {
            bits |= u64{codes[sym[i + k]]} << used;
            used += lengths[sym[i + k]];
        }
        writer.put(bits, used);
    }
    for (; i < count; ++i)
        writer.put(codes[sym[i]], lengths[sym[i]]);
}

} // namespace

void
encode(const CodeTable &table, ByteSpan symbols, BitWriter &writer)
{
    assert(table.maxBits <= 15);
    if (table.maxBits <= 14)
        encodePacked<4>(table, symbols, writer);
    else
        encodePacked<3>(table, symbols, writer);
}

Result<u64>
encodedBitCost(const CodeTable &table, std::span<const u64> freqs)
{
    u64 bits = 0;
    for (std::size_t sym = 0; sym < freqs.size(); ++sym) {
        if (freqs[sym] == 0)
            continue;
        if (sym >= table.numSymbols() || table.lengths[sym] == 0)
            return Status::invalid("symbol has no huffman code");
        bits += freqs[sym] * table.lengths[sym];
    }
    return bits;
}

std::vector<u64>
countFrequencies(ByteSpan symbols, std::size_t alphabet_size)
{
    std::vector<u64> freqs(alphabet_size, 0);
    for (u8 sym : symbols)
        ++freqs[sym];
    return freqs;
}

} // namespace cdpu::huffman

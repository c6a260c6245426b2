#include "huffman/encoder.h"

namespace cdpu::huffman
{

Status
encode(const CodeTable &table, ByteSpan symbols, BitWriter &writer)
{
    for (u8 sym : symbols) {
        if (sym >= table.numSymbols() || table.lengths[sym] == 0)
            return Status::invalid("symbol has no huffman code");
        writer.put(table.codes[sym], table.lengths[sym]);
    }
    return Status::okStatus();
}

Result<u64>
encodedBitCost(const CodeTable &table, const std::vector<u64> &freqs)
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

#include "fse/encoder.h"

namespace cdpu::fse
{

void
Encoder::flushState(BitWriter &writer)
{
    // State is in [size, 2*size); the high bit is implied, write the
    // low tableLog bits.
    writer.put(state_ & ((1u << table_->tableLog) - 1),
               table_->tableLog);
}

Result<u64>
encodeAll(const EncodeTable &table, ByteSpan symbols, BitWriter &writer)
{
    Encoder encoder(table);
    u64 start_bits = writer.bitCount();
    for (std::size_t i = symbols.size(); i-- > 0;) {
        const u8 sym = symbols[i];
        if (sym >= table.counts.size() || table.counts[sym] == 0)
            return Status::invalid("fse symbol has zero probability");
        encoder.encode(sym, writer);
    }
    encoder.flushState(writer);
    return writer.bitCount() - start_bits;
}

} // namespace cdpu::fse

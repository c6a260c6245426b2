#include "fse/table.h"

#include <algorithm>
#include <array>

#include "common/histogram.h"

namespace cdpu::fse
{

void
spreadSymbols(const NormalizedCounts &norm, u8 *spread)
{
    const std::size_t size = std::size_t{1} << norm.tableLog;
    const std::size_t mask = size - 1;
    const std::size_t step = (size >> 1) + (size >> 3) + 3;

    std::size_t pos = 0;
    for (std::size_t sym = 0; sym < norm.counts.size(); ++sym) {
        for (u32 i = 0; i < norm.counts[sym]; ++i) {
            spread[pos] = static_cast<u8>(sym);
            pos = (pos + step) & mask;
        }
    }
    // The step is coprime with the power-of-two size, so the walk visits
    // every slot exactly once and ends where it started.
}

std::vector<u8>
spreadSymbols(const NormalizedCounts &norm)
{
    std::vector<u8> spread(std::size_t{1} << norm.tableLog, 0);
    spreadSymbols(norm, spread.data());
    return spread;
}

Result<DecodeTable>
buildDecodeTable(const NormalizedCounts &norm)
{
    const std::size_t size = std::size_t{1} << norm.tableLog;
    u64 sum = 0;
    for (u32 c : norm.counts)
        sum += c;
    if (sum != size)
        return Status::invalid("fse counts do not sum to table size");

    std::vector<u8> spread = spreadSymbols(norm);
    DecodeTable table;
    table.tableLog = norm.tableLog;
    table.entries.resize(size);

    // symbolNext[s] tracks the sub-state x assigned to the next
    // occurrence of s, starting at count[s] and growing to 2*count[s].
    std::vector<u32> symbol_next(norm.counts.begin(), norm.counts.end());
    for (std::size_t state = 0; state < size; ++state) {
        u8 sym = spread[state];
        u32 x = symbol_next[sym]++;
        u8 nb_bits = static_cast<u8>(norm.tableLog - floorLog2(x));
        table.entries[state] = {
            sym, nb_bits,
            static_cast<u16>((static_cast<u32>(x) << nb_bits) - size),
        };
    }
    return table;
}

Status
buildEncodeTable(const NormalizedCounts &norm, EncodeTable &table)
{
    const std::size_t size = std::size_t{1} << norm.tableLog;
    u64 sum = 0;
    for (u32 c : norm.counts)
        sum += c;
    if (sum != size)
        return Status::invalid("fse counts do not sum to table size");
    // Spread entries are bytes, and the spread sits on the stack.
    if (norm.tableLog > kMaxTableLog || norm.counts.size() > 256)
        return Status::invalid("fse table too large");

    table.tableLog = norm.tableLog;
    table.counts.assign(norm.counts.begin(), norm.counts.end());
    table.cumul.assign(norm.counts.size() + 1, 0);
    for (std::size_t sym = 0; sym < norm.counts.size(); ++sym)
        table.cumul[sym + 1] = table.cumul[sym] + norm.counts[sym];

    // The i-th occurrence (in spread order) of symbol s corresponds to
    // sub-state x = count[s] + i and to global state (size + position).
    // The spread and each symbol's fill start at cumul[s] live on the
    // stack: every one of the first `size` spread slots is written.
    std::array<u8, std::size_t{1} << kMaxTableLog> spread;
    spreadSymbols(norm, spread.data());
    std::array<u32, 256> next;
    std::copy(table.cumul.begin(), table.cumul.end() - 1, next.begin());
    table.stateMap.resize(size);
    for (std::size_t state = 0; state < size; ++state)
        table.stateMap[next[spread[state]]++] =
            static_cast<u16>(size + state);
    return Status::okStatus();
}

Result<EncodeTable>
buildEncodeTable(const NormalizedCounts &norm)
{
    EncodeTable table;
    CDPU_RETURN_IF_ERROR(buildEncodeTable(norm, table));
    return table;
}

} // namespace cdpu::fse

#include "fse/normalize.h"

#include <algorithm>

#include "common/histogram.h"
#include "common/varint.h"

namespace cdpu::fse
{

Status
normalizeCounts(std::span<const u64> freqs, unsigned table_log,
                NormalizedCounts &norm)
{
    if (table_log < kMinTableLog || table_log > kMaxTableLog)
        return Status::invalid("fse table log out of range");
    const u64 table_size = 1ull << table_log;

    u64 total = 0;
    std::size_t used = 0;
    for (u64 f : freqs) {
        if (f > ~total) // Running sum would wrap.
            return Status::invalid("fse frequency total overflows");
        total += f;
        used += f != 0;
    }
    if (used == 0)
        return Status::invalid("fse alphabet is empty");
    if (used > table_size)
        return Status::invalid("fse alphabet larger than table");
    // The proportional-scaling product freqs[sym] * table_size must
    // not wrap u64 (table_size <= 2^kMaxTableLog): totals this large
    // cannot come from a real stream, so reject them cleanly instead
    // of normalizing garbage.
    if (total >= (1ull << (63 - kMaxTableLog)))
        return Status::invalid("fse frequency total too large");

    norm.tableLog = table_log;
    norm.counts.assign(freqs.size(), 0);

    // First pass: proportional scaling with a floor of 1.
    u64 assigned = 0;
    std::size_t largest = 0;
    for (std::size_t sym = 0; sym < freqs.size(); ++sym) {
        if (freqs[sym] == 0)
            continue;
        u64 scaled = (freqs[sym] * table_size + total / 2) / total;
        if (scaled == 0)
            scaled = 1;
        norm.counts[sym] = static_cast<u32>(scaled);
        assigned += scaled;
        if (freqs[sym] > freqs[largest] || norm.counts[largest] == 0)
            largest = sym;
    }

    // Absorb the residual into the most frequent symbol; if that would
    // drive it below 1, shave other symbols deterministically.
    if (assigned < table_size) {
        norm.counts[largest] += static_cast<u32>(table_size - assigned);
    } else if (assigned > table_size) {
        u64 excess = assigned - table_size;
        u64 slack = norm.counts[largest] - 1;
        u64 take = std::min(excess, slack);
        norm.counts[largest] -= static_cast<u32>(take);
        excess -= take;
        for (std::size_t sym = 0; excess > 0 && sym < freqs.size();
             ++sym) {
            if (norm.counts[sym] <= 1)
                continue;
            u64 shave = std::min<u64>(excess, norm.counts[sym] - 1);
            norm.counts[sym] -= static_cast<u32>(shave);
            excess -= shave;
        }
        if (excess > 0)
            return Status::internal("fse normalization cannot converge");
    }
    return Status::okStatus();
}

Result<NormalizedCounts>
normalizeCounts(const std::vector<u64> &freqs, unsigned table_log)
{
    NormalizedCounts norm;
    CDPU_RETURN_IF_ERROR(normalizeCounts(freqs, table_log, norm));
    return norm;
}

unsigned
suggestTableLog(std::span<const u64> freqs, u64 total, unsigned max_log)
{
    std::size_t used = 0;
    for (u64 f : freqs)
        used += f != 0;
    unsigned min_for_alphabet =
        std::max(kMinTableLog, ceilLog2(std::max<u64>(used, 2)));
    // Don't spend a table far larger than the stream itself.
    unsigned by_size = total > 2 ? ceilLog2(total) : kMinTableLog;
    unsigned log = std::min<unsigned>(max_log, std::max(by_size, 1u) + 1);
    log = std::max(log, min_for_alphabet);
    return std::clamp(log, kMinTableLog, kMaxTableLog);
}

void
serializeCounts(const NormalizedCounts &norm, Bytes &out)
{
    out.push_back(static_cast<u8>(norm.tableLog));
    putVarint(out, norm.counts.size());
    for (u32 c : norm.counts)
        putVarint(out, c);
}

Status
deserializeCounts(ByteSpan data, std::size_t &pos, NormalizedCounts &norm)
{
    if (pos >= data.size())
        return Status::corrupt("fse counts truncated");
    norm.tableLog = data[pos++];
    if (norm.tableLog < kMinTableLog || norm.tableLog > kMaxTableLog)
        return Status::corrupt("fse table log out of range");

    auto alphabet = getVarint(data, pos);
    if (!alphabet.ok())
        return alphabet.status();
    if (alphabet.value() > 256)
        return Status::corrupt("fse alphabet too large");

    norm.counts.resize(alphabet.value());
    u64 sum = 0;
    for (auto &count : norm.counts) {
        auto c = getVarint(data, pos);
        if (!c.ok())
            return c.status();
        if (c.value() > (1ull << norm.tableLog))
            return Status::corrupt("fse count exceeds table size");
        count = static_cast<u32>(c.value());
        sum += count;
    }
    if (sum != (1ull << norm.tableLog))
        return Status::corrupt("fse counts do not sum to table size");
    return Status::okStatus();
}

Result<NormalizedCounts>
deserializeCounts(ByteSpan data, std::size_t &pos)
{
    NormalizedCounts norm;
    CDPU_RETURN_IF_ERROR(deserializeCounts(data, pos, norm));
    return norm;
}

} // namespace cdpu::fse

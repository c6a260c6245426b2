#include "lz77/hash_table.h"

#include <algorithm>
#include <cassert>

namespace cdpu::lz77
{

MatchHashTable::MatchHashTable(const HashTableConfig &config)
    : config_(config),
      slots_(config.entries() * config.ways, kEmpty),
      nextVictim_(config.entries(), 0)
{
    assert(config.ways >= 1);
    assert(config.log2Entries >= 4 && config.log2Entries <= 24);
    assert(config.minMatch >= 4 && config.minMatch <= 8);
}

void
MatchHashTable::reset()
{
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    std::fill(nextVictim_.begin(), nextVictim_.end(), 0);
    probes_ = 0;
}

u32
MatchHashTable::hashAt(ByteSpan data, std::size_t pos) const
{
    const u8 *p = data.data() + pos;
    switch (config_.hashFunction) {
      case HashFunction::multiplicative:
        return multiplicativeHash(p, 32 - config_.log2Entries);
      case HashFunction::xorShift:
        return xorShiftHash(p, 32 - config_.log2Entries);
      case HashFunction::fibonacci64:
        return fibonacci64Hash(p, 64 - config_.log2Entries);
    }
    return 0;
}

void
MatchHashTable::lookupAndInsert(ByteSpan data, std::size_t pos,
                                std::vector<u32> &candidates_out)
{
    candidates_out.clear();
    const u32 hash = hashAt(data, pos);
    u32 *set = &slots_[static_cast<std::size_t>(hash) * config_.ways];
    // Most-recent-first: walk backwards from the slot before the FIFO
    // victim pointer.
    u8 victim = nextVictim_[hash];
    for (unsigned i = 0; i < config_.ways; ++i) {
        unsigned way = (victim + config_.ways - 1 - i) % config_.ways;
        if (set[way] != kEmpty) {
            candidates_out.push_back(set[way]);
            ++probes_;
        }
    }
    set[victim] = static_cast<u32>(pos);
    nextVictim_[hash] = static_cast<u8>((victim + 1) % config_.ways);
}

void
MatchHashTable::insert(ByteSpan data, std::size_t pos)
{
    u32 hash = hashAt(data, pos);
    u32 *set = &slots_[static_cast<std::size_t>(hash) * config_.ways];
    u8 victim = nextVictim_[hash];
    set[victim] = static_cast<u32>(pos);
    nextVictim_[hash] = static_cast<u8>((victim + 1) % config_.ways);
}

} // namespace cdpu::lz77

#include "lz77/hash_table.h"

#include <cassert>
#include <cstring>

#include "common/kernels.h"
#include "common/mem.h"

namespace cdpu::lz77
{

namespace
{

u32
load32(ByteSpan data, std::size_t pos)
{
    u32 v;
    std::memcpy(&v, data.data() + pos, sizeof(v));
    return v;
}

} // namespace

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
    unsigned shift = 32 - config_.log2Entries;
    switch (config_.hashFunction) {
      case HashFunction::multiplicative:
        return multiplicativeHash(data.data() + pos, shift);
      case HashFunction::xorShift: {
        u32 x = load32(data, pos);
        x ^= x >> 15;
        x *= 0x2c1b3c6du;
        x ^= x >> 12;
        return x >> shift;
      }
      case HashFunction::fibonacci64:
        return fibonacci64Hash(data.data() + pos,
                               64 - config_.log2Entries);
    }
    return 0;
}

void
MatchHashTable::hashRun(ByteSpan data, std::size_t pos,
                        std::size_t count, u32 *hashes_out) const
{
    const unsigned shift = 32 - config_.log2Entries;
    // The run kernels read up to 15 bytes past the final 4-byte
    // window; only dispatch to them when the buffer provides that
    // slack. Geometry-only condition: the same positions take the
    // same path at every tier, so hash values (and therefore parses)
    // are tier-invariant by construction, not by luck.
    const bool slack_ok = data.size() - pos >= count + 19;
    if (slack_ok && count > 0) {
        switch (config_.hashFunction) {
          case HashFunction::multiplicative:
            mem::kernelStats()
                .tierHashPositions[kernels::activeTierIndex()] += count;
            kernels::ops().hashMul32Run(data.data() + pos, count,
                                        kMultiplicativeHashMul, shift,
                                        hashes_out);
            return;
          case HashFunction::xorShift:
            mem::kernelStats()
                .tierHashPositions[kernels::activeTierIndex()] += count;
            kernels::ops().hashXorShiftRun(data.data() + pos, count,
                                           0x2c1b3c6du, shift,
                                           hashes_out);
            return;
          case HashFunction::fibonacci64:
            break; // 64-bit multiply: no vector lane for it; scalar.
        }
    }
    mem::kernelStats().tierHashPositions[0] += count;
    for (std::size_t i = 0; i < count; ++i)
        hashes_out[i] = hashAt(data, pos + i);
}

void
MatchHashTable::lookupAndInsert(ByteSpan data, std::size_t pos,
                                std::vector<u32> &candidates_out)
{
    lookupAndInsertHashed(hashAt(data, pos), pos, candidates_out);
}

void
MatchHashTable::lookupAndInsertHashed(u32 hash, std::size_t pos,
                                      std::vector<u32> &candidates_out)
{
    candidates_out.clear();
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

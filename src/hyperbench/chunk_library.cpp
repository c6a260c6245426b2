#include "hyperbench/chunk_library.h"

#include <algorithm>

#include "codec/registry.h"
#include "corpus/generators.h"

namespace cdpu::hcb
{

namespace
{

double
measureRatio(codec::CodecId codec, ByteSpan chunk, int level)
{
    const codec::CodecCaps &caps = codec::registry(codec).caps;
    const codec::CodecParams params =
        caps.clamp(level, caps.defaultWindowLog);
    Bytes out;
    // Synthetic chunks with clamped parameters cannot fail.
    Status status = codec::compressInto(codec, chunk, params, out);
    if (!status.ok() || out.empty())
        return 1.0;
    return static_cast<double>(chunk.size()) /
           static_cast<double>(out.size());
}

} // namespace

ChunkLibrary::ChunkLibrary(const ChunkLibraryConfig &config, Rng &rng)
    : level_(config.zstdLevel), tables_(codec::allCodecs().size()),
      rated_(std::make_unique<std::once_flag[]>(tables_.size()))
{
    // Fleet classes only: the library models the fleet's library mix,
    // and drawing from the fixed fleet set keeps seeded suites
    // byte-stable as the codec registry grows.
    for (corpus::DataClass cls : corpus::fleetDataClasses()) {
        Bytes buffer = corpus::generate(cls, config.perClassBytes, rng);
        for (auto &chunk : corpus::chunk(buffer, config.chunkBytes))
            chunks_.push_back(std::move(chunk.data));
    }
}

const std::vector<RatedChunk> &
ChunkLibrary::table(codec::CodecId codec) const
{
    const auto index = static_cast<std::size_t>(codec);
    std::call_once(rated_[index], [&] {
        std::vector<RatedChunk> &table = tables_[index];
        table.reserve(chunks_.size());
        for (const Bytes &chunk : chunks_)
            table.push_back({chunk, measureRatio(codec, chunk, level_)});
        std::sort(table.begin(), table.end(),
                  [](const RatedChunk &a, const RatedChunk &b) {
                      return a.ratio < b.ratio;
                  });
    });
    return tables_[index];
}

std::size_t
ChunkLibrary::closestIndex(codec::CodecId codec, double target) const
{
    const auto &chunks = table(codec);
    auto it = std::lower_bound(
        chunks.begin(), chunks.end(), target,
        [](const RatedChunk &chunk, double t) { return chunk.ratio < t; });
    if (it == chunks.end())
        return chunks.size() - 1;
    if (it == chunks.begin())
        return 0;
    // Pick the closer of the two neighbours.
    auto prev = std::prev(it);
    return (target - prev->ratio) <= (it->ratio - target)
               ? static_cast<std::size_t>(prev - chunks.begin())
               : static_cast<std::size_t>(it - chunks.begin());
}

std::pair<double, double>
ChunkLibrary::ratioRange(codec::CodecId codec) const
{
    const auto &chunks = table(codec);
    return {chunks.front().ratio, chunks.back().ratio};
}

} // namespace cdpu::hcb

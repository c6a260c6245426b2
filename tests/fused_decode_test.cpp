/**
 * @file
 * Fused decoders against their references.
 *
 * zstdlite and flatelite decode every untraced call with a fused loop
 * and every traced call with the reference decoder whose BlockTrace
 * the PU models read. decompress(frame) and decompress(frame, &trace)
 * must therefore agree in bytes and FailureClass on every frame: clean
 * ones across corpus classes, sizes (multi-block included), levels and
 * window logs, and the harden injector's truncations and mutations,
 * at every SIMD tier the host runs (decode_battery.h).
 */

#include "decode_battery.h"

#include "flatelite/compress.h"
#include "flatelite/decompress.h"
#include "zstdlite/compress.h"
#include "zstdlite/decompress.h"

namespace cdpu
{
namespace
{

/** A pool of frames to mutate: small frames of every class under each
 *  of @p configs, plus one frame of @p multi_block_bytes that spans
 *  several blocks. */
template <typename Config, typename Compress>
std::vector<Bytes>
mutationPool(const std::vector<Config> &configs, Compress compress,
             std::size_t multi_block_bytes)
{
    Rng rng(8191);
    std::vector<Bytes> pool;
    const auto classes = corpus::allDataClasses();
    for (std::size_t i = 0; i < classes.size(); ++i) {
        const Bytes payload = corpus::generate(
            classes[i], std::size_t{64} << (2 * (i % 4)), rng);
        pool.push_back(compress(payload, configs[i % configs.size()]));
    }
    pool.push_back(compress(corpus::generateMixed(multi_block_bytes, rng),
                            configs.front()));
    return pool;
}

std::vector<zstdlite::CompressorConfig>
zstdliteConfigs()
{
    std::vector<zstdlite::CompressorConfig> configs;
    for (auto [level, window_log] :
         {std::pair{zstdlite::kMinLevel, zstdlite::kMinWindowLog},
          std::pair{zstdlite::kDefaultLevel, 17u},
          std::pair{zstdlite::kMaxLevel, zstdlite::kMaxWindowLog}}) {
        zstdlite::CompressorConfig config;
        config.level = level;
        config.windowLog = window_log;
        configs.push_back(config);
    }
    return configs;
}

Bytes
zstdliteCompress(ByteSpan payload,
                 const zstdlite::CompressorConfig &config)
{
    auto frame = zstdlite::compress(payload, config);
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    return frame.ok() ? std::move(frame).value() : Bytes{};
}

const battery::DecodeFn kZstdFused = [](ByteSpan frame) {
    return zstdlite::decompress(frame);
};
const battery::DecodeFn kZstdReference = [](ByteSpan frame) {
    zstdlite::FileTrace trace;
    return zstdlite::decompress(frame, &trace);
};

TEST(ZstdLiteFusedDecode, CleanFramesMatchReference)
{
    std::vector<battery::CompressFn> compressors;
    for (const auto &config : zstdliteConfigs())
        compressors.push_back([config](ByteSpan payload) {
            return zstdliteCompress(payload, config);
        });
    battery::expectCleanFramesAgree(compressors, kZstdFused,
                                    kZstdReference);
}

TEST(ZstdLiteFusedDecode, MutatedFramesMatchReference)
{
    const auto pool = mutationPool(zstdliteConfigs(), zstdliteCompress,
                                   zstdlite::kBlockTarget + 16 * kKiB);
    battery::expectMutationsAgree(codec::CodecId::zstdlite, pool,
                                  kZstdFused, kZstdReference);
}

std::vector<flatelite::CompressorConfig>
flateliteConfigs()
{
    std::vector<flatelite::CompressorConfig> configs;
    for (auto [level, window_log] :
         {std::pair{1, flatelite::kMinWindowLog}, std::pair{6, 12u},
          std::pair{9, flatelite::kMaxWindowLog}}) {
        flatelite::CompressorConfig config;
        config.level = level;
        config.windowLog = window_log;
        configs.push_back(config);
    }
    return configs;
}

Bytes
flateliteCompress(ByteSpan payload,
                  const flatelite::CompressorConfig &config)
{
    auto frame = flatelite::compress(payload, config);
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    return frame.ok() ? std::move(frame).value() : Bytes{};
}

const battery::DecodeFn kFlateFused = [](ByteSpan frame) {
    return flatelite::decompress(frame);
};
const battery::DecodeFn kFlateReference = [](ByteSpan frame) {
    flatelite::FileTrace trace;
    return flatelite::decompress(frame, &trace);
};

TEST(FlateLiteFusedDecode, CleanFramesMatchReference)
{
    std::vector<battery::CompressFn> compressors;
    for (const auto &config : flateliteConfigs())
        compressors.push_back([config](ByteSpan payload) {
            return flateliteCompress(payload, config);
        });
    battery::expectCleanFramesAgree(compressors, kFlateFused,
                                    kFlateReference);
}

TEST(FlateLiteFusedDecode, MutatedFramesMatchReference)
{
    const auto pool = mutationPool(flateliteConfigs(), flateliteCompress,
                                   flatelite::kBlockTarget + 16 * kKiB);
    battery::expectMutationsAgree(codec::CodecId::flatelite, pool,
                                  kFlateFused, kFlateReference);
}

} // namespace
} // namespace cdpu

#include "dse/sweep_runner.h"

#include <cassert>

#include "codec/registry.h"
#include "zstdlite/compress.h"
#include "zstdlite/decompress.h"

namespace cdpu::dse
{

using codec::CodecId;
using Direction = codec::Direction;

SweepRunner::SweepRunner(const hcb::Suite &suite) : suite_(&suite)
{
    codec::Scratch scratch;
    for (const auto &file : suite.files) {
        totalBytes_ += file.data.size();

        // The registry's whole-buffer entry point is the software
        // reference for every codec; ZStd additionally records the
        // decode trace its PU model replays.
        const codec::CodecVTable &vtable = codec::registry(suite.codec);
        const codec::CodecParams params =
            vtable.caps.clamp(file.level, file.windowLog);
        Bytes compressed;
        Status status =
            vtable.compressInto(file.data, params, compressed, scratch);
        assert(status.ok());
        (void)status;

        if (suite.direction == Direction::decompress) {
            // Software-compress once: this is the accelerator input.
            compressedInputs_.push_back(std::move(compressed));
            if (suite.codec == CodecId::zstdlite) {
                zstdlite::FileTrace trace;
                auto decoded =
                    zstdlite::decompress(compressedInputs_.back(),
                                         &trace);
                assert(decoded.ok());
                traces_.push_back(std::move(trace));
            }
            totalSwCompressed_ += compressedInputs_.back().size();
        } else {
            // Compression suites: software-reference size for the
            // ratio-vs-SW series.
            totalSwCompressed_ += compressed.size();
        }
    }
}

double
SweepRunner::softwareRatio() const
{
    return totalSwCompressed_ > 0
               ? static_cast<double>(totalBytes_) /
                     static_cast<double>(totalSwCompressed_)
               : 0.0;
}

DsePoint
SweepRunner::run(const hw::CdpuConfig &config)
{
    // PU selection is inherently per-codec: the DSE models Snappy and
    // ZStd processing units (Figures 11-15).
    if (suite_->codec == CodecId::snappy) {
        return suite_->direction == Direction::decompress
                   ? runSnappyDecompress(config)
                   : runSnappyCompress(config);
    }
    assert(suite_->codec == CodecId::zstdlite);
    return suite_->direction == Direction::decompress
               ? runZstdDecompress(config)
               : runZstdCompress(config);
}

DsePoint
SweepRunner::runSnappyDecompress(const hw::CdpuConfig &config)
{
    DsePoint point;
    point.config = config;
    point.areaMm2 = hw::snappyDecompressorAreaMm2(config);

    hw::SnappyDecompressorPU pu(config);
    for (std::size_t i = 0; i < suite_->files.size(); ++i) {
        auto result = pu.run(compressedInputs_[i]);
        assert(result.ok());
        point.accelSeconds += result.value().seconds(config.clockGhz);
        point.accelCycles += result.value().cycles;
        point.historyFallbacks += result.value().historyFallbacks();
        point.xeonSeconds += xeon_.seconds(
            CodecId::snappy, Direction::decompress,
            suite_->files[i].data.size());
    }
    point.counters = pu.counters();
    return point;
}

DsePoint
SweepRunner::runSnappyCompress(const hw::CdpuConfig &config)
{
    DsePoint point;
    point.config = config;
    point.areaMm2 = hw::snappyCompressorAreaMm2(config);

    hw::SnappyCompressorPU pu(config);
    std::size_t hw_compressed = 0;
    for (const auto &file : suite_->files) {
        auto result = pu.run(file.data);
        assert(result.ok());
        point.accelSeconds += result.value().seconds(config.clockGhz);
        point.accelCycles += result.value().cycles;
        hw_compressed += result.value().outputBytes;
        point.xeonSeconds += xeon_.seconds(
            CodecId::snappy, Direction::compress, file.data.size());
    }
    point.counters = pu.counters();
    point.hwRatio = static_cast<double>(totalBytes_) /
                    static_cast<double>(hw_compressed);
    point.swRatio = softwareRatio();
    return point;
}

DsePoint
SweepRunner::runZstdDecompress(const hw::CdpuConfig &config)
{
    DsePoint point;
    point.config = config;
    point.areaMm2 = hw::zstdDecompressorAreaMm2(config);

    hw::ZstdDecompressorPU pu(config);
    for (std::size_t i = 0; i < suite_->files.size(); ++i) {
        hw::PuResult result =
            pu.runFromTrace(traces_[i], compressedInputs_[i].size());
        point.accelSeconds += result.seconds(config.clockGhz);
        point.accelCycles += result.cycles;
        point.historyFallbacks += result.historyFallbacks();
        point.xeonSeconds += xeon_.seconds(
            CodecId::zstdlite, Direction::decompress,
            suite_->files[i].data.size(), suite_->files[i].level);
    }
    point.counters = pu.counters();
    return point;
}

DsePoint
SweepRunner::runZstdCompress(const hw::CdpuConfig &config)
{
    DsePoint point;
    point.config = config;
    point.areaMm2 = hw::zstdCompressorAreaMm2(config);

    hw::ZstdCompressorPU pu(config);
    std::size_t hw_compressed = 0;
    for (const auto &file : suite_->files) {
        auto result = pu.run(file.data);
        assert(result.ok());
        point.accelSeconds += result.value().seconds(config.clockGhz);
        point.accelCycles += result.value().cycles;
        hw_compressed += result.value().outputBytes;
        point.xeonSeconds += xeon_.seconds(CodecId::zstdlite,
                                           Direction::compress,
                                           file.data.size(), file.level);
    }
    point.counters = pu.counters();
    point.hwRatio = static_cast<double>(totalBytes_) /
                    static_cast<double>(hw_compressed);
    point.swRatio = softwareRatio();
    return point;
}

} // namespace cdpu::dse

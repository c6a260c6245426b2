/**
 * @file
 * Google-benchmark microbenchmarks for the codec kernels on the host
 * machine: Snappy/ZstdLite compress+decompress across data classes,
 * plus the Huffman, FSE, and LZ77 stages in isolation (decode-only
 * variants isolate the word-wide fast paths). Every kernel reports an
 * MB/s rate counter alongside google-benchmark's bytes_per_second, and
 * the hot-path benchmarks attach mem::kernelStats() deltas (wild-copy
 * bytes, refills, fast-path hits) as per-iteration counters.
 *
 * These measure THIS machine (the honest lzbench analogue); the
 * paper's Xeon numbers come from baseline::XeonCostModel and are
 * printed by the figure benches.
 */

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "codec/registry.h"
#include "codec/session.h"
#include "common/kernels.h"
#include "common/mem.h"
#include "common/varint.h"
#include "corpus/generators.h"
#include "fse/decoder.h"
#include "fse/encoder.h"
#include "huffman/decoder.h"
#include "huffman/encoder.h"
#include "lz77/fast_parse.h"
#include "lz77/match_finder.h"
#include "snappy/compress.h"
#include "snappy/decompress.h"
#include "transform/transform.h"
#include "zstdlite/compress.h"
#include "zstdlite/decompress.h"

namespace
{

using namespace cdpu;

Bytes
makeData(int cls_index, std::size_t size)
{
    Rng rng(42 + cls_index);
    auto classes = corpus::allDataClasses();
    return corpus::generate(classes[cls_index], size, rng);
}

/** Reports throughput as an explicit MB/s counter (1 MB = 1e6 bytes),
 *  in addition to google-benchmark's bytes_per_second. */
void
setThroughput(benchmark::State &state, std::size_t bytes_per_iter)
{
    auto total =
        static_cast<i64>(state.iterations() * bytes_per_iter);
    state.SetBytesProcessed(total);
    state.counters["MBps"] = benchmark::Counter(
        static_cast<double>(total) * 1e-6, benchmark::Counter::kIsRate);
}

/** Attaches the mem::kernelStats() delta accumulated across the timed
 *  loop as per-iteration counters. */
void
attachKernelCounters(benchmark::State &state,
                     const mem::KernelStats &before)
{
    const mem::KernelStats &now = mem::kernelStats();
    const double iters = static_cast<double>(state.iterations());
    if (iters == 0)
        return;
    auto per_iter = [&](u64 after_v, u64 before_v) {
        return static_cast<double>(after_v - before_v) / iters;
    };
    state.counters["wild_copy_bytes"] =
        per_iter(now.wildCopyBytes, before.wildCopyBytes);
    state.counters["fast_refills"] =
        per_iter(now.bitioFastRefills + now.bitioBackwardFastRefills,
                 before.bitioFastRefills +
                     before.bitioBackwardFastRefills);
    state.counters["slow_refills"] =
        per_iter(now.bitioSlowRefills + now.bitioBackwardSlowRefills,
                 before.bitioSlowRefills +
                     before.bitioBackwardSlowRefills);
    state.counters["snappy_fast_path_hits"] = per_iter(
        now.snappyFastLiterals + now.snappyFastCopies,
        before.snappyFastLiterals + before.snappyFastCopies);
}

void
BM_SnappyCompress(benchmark::State &state)
{
    Bytes data = makeData(static_cast<int>(state.range(0)), 256 * kKiB);
    for (auto _ : state) {
        Bytes out = snappy::compress(data);
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
    state.SetLabel(corpus::dataClassName(
        corpus::allDataClasses()[state.range(0)]));
}
BENCHMARK(BM_SnappyCompress)->DenseRange(0, 8);

/** One 1 KiB call per iteration: the small-call regime (paper §3.5)
 *  where per-call setup, not the parse loop, sets the cost. The parse
 *  is kept across iterations, as a serving context keeps it. */
void
BM_SnappyCompressSmallCall(benchmark::State &state)
{
    Bytes data = makeData(static_cast<int>(state.range(0)), kKiB);
    Bytes out;
    lz77::ParseScratch parse;
    for (auto _ : state) {
        snappy::compressInto(data, out, parse);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    setThroughput(state, data.size());
    state.SetLabel(corpus::dataClassName(
        corpus::allDataClasses()[state.range(0)]));
}
BENCHMARK(BM_SnappyCompressSmallCall)->Arg(0);

void
BM_SnappyDecompress(benchmark::State &state)
{
    Bytes data = makeData(static_cast<int>(state.range(0)), 256 * kKiB);
    Bytes compressed = snappy::compress(data);
    mem::KernelStats before = mem::kernelStats();
    for (auto _ : state) {
        auto out = snappy::decompress(compressed);
        benchmark::DoNotOptimize(out.value().data());
    }
    setThroughput(state, data.size());
    attachKernelCounters(state, before);
    state.SetLabel(corpus::dataClassName(
        corpus::allDataClasses()[state.range(0)]));
}
BENCHMARK(BM_SnappyDecompress)->DenseRange(0, 8);

/** Reference two-pass decode (element stream + replay), kept for the
 *  hardware model: the honest before/after comparison for the
 *  single-pass fast path above. */
void
BM_SnappyDecompressElementPath(benchmark::State &state)
{
    Bytes data = makeData(static_cast<int>(state.range(0)), 256 * kKiB);
    Bytes compressed = snappy::compress(data);
    std::size_t preamble = 0;
    (void)getVarint(compressed, preamble);
    u64 expected = snappy::uncompressedLength(compressed).value();
    for (auto _ : state) {
        std::vector<snappy::Element> elements;
        if (!snappy::decodeElements(compressed, preamble, expected,
                                    elements)
                 .ok())
            state.SkipWithError("decodeElements failed");
        Bytes out;
        if (!snappy::applyElements(compressed, elements, expected, out)
                 .ok())
            state.SkipWithError("applyElements failed");
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
    state.SetLabel(corpus::dataClassName(
        corpus::allDataClasses()[state.range(0)]));
}
BENCHMARK(BM_SnappyDecompressElementPath)->DenseRange(0, 8);

void
BM_ZstdLiteCompress(benchmark::State &state)
{
    Bytes data = makeData(0, 256 * kKiB); // text
    zstdlite::CompressorConfig config;
    config.level = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto out = zstdlite::compress(data, config);
        benchmark::DoNotOptimize(out.value().data());
    }
    setThroughput(state, data.size());
}
BENCHMARK(BM_ZstdLiteCompress)->Arg(1)->Arg(3)->Arg(9)->Arg(19);

void
BM_ZstdLiteDecompress(benchmark::State &state)
{
    Bytes data = makeData(1, 256 * kKiB); // log
    auto compressed = zstdlite::compress(data);
    mem::KernelStats before = mem::kernelStats();
    for (auto _ : state) {
        auto out = zstdlite::decompress(compressed.value());
        benchmark::DoNotOptimize(out.value().data());
    }
    setThroughput(state, data.size());
    attachKernelCounters(state, before);
}
BENCHMARK(BM_ZstdLiteDecompress);

void
BM_Lz77Parse(benchmark::State &state)
{
    Bytes data = makeData(0, 256 * kKiB);
    lz77::MatchFinderConfig config;
    config.hashTable.log2Entries =
        static_cast<unsigned>(state.range(0));
    lz77::MatchFinder finder(config);
    for (auto _ : state) {
        lz77::Parse parse = finder.parse(data);
        benchmark::DoNotOptimize(parse.sequences.data());
    }
    setThroughput(state, data.size());
}
BENCHMARK(BM_Lz77Parse)->Arg(9)->Arg(14)->Arg(17);

/** The specialized parse the software codecs run, at BM_Lz77Parse's
 *  geometries: the same Parse, without MatchFinder's per-probe work. */
void
BM_Lz77FastParse(benchmark::State &state)
{
    Bytes data = makeData(0, 256 * kKiB);
    lz77::MatchFinderConfig config;
    config.hashTable.log2Entries =
        static_cast<unsigned>(state.range(0));
    for (auto _ : state) {
        lz77::Parse parse = lz77::fastParse(data, config);
        benchmark::DoNotOptimize(parse.sequences.data());
    }
    setThroughput(state, data.size());
}
BENCHMARK(BM_Lz77FastParse)->Arg(9)->Arg(14)->Arg(17);

void
BM_HuffmanRoundTrip(benchmark::State &state)
{
    Bytes data = makeData(0, 128 * kKiB);
    auto freqs = huffman::countFrequencies(data);
    auto table = huffman::buildCodeTable(freqs).value();
    auto decoder = huffman::Decoder::build(table).value();
    for (auto _ : state) {
        BitWriter writer;
        (void)huffman::encode(table, data, writer);
        Bytes stream = writer.finish();
        BitReader reader(stream);
        Bytes out;
        (void)decoder.decode(reader, data.size(), out);
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
}
BENCHMARK(BM_HuffmanRoundTrip);

/** Decode-only: isolates the table walk + word-wide bit refills. */
void
BM_HuffmanDecode(benchmark::State &state)
{
    Bytes data = makeData(0, 128 * kKiB);
    auto freqs = huffman::countFrequencies(data);
    auto table = huffman::buildCodeTable(freqs).value();
    auto decoder = huffman::Decoder::build(table).value();
    BitWriter writer;
    (void)huffman::encode(table, data, writer);
    Bytes stream = writer.finish();
    mem::KernelStats before = mem::kernelStats();
    for (auto _ : state) {
        BitReader reader(stream);
        Bytes out;
        (void)decoder.decode(reader, data.size(), out);
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
    attachKernelCounters(state, before);
}
BENCHMARK(BM_HuffmanDecode);

Bytes
makeSkewedSymbols()
{
    // Skewed 16-symbol stream.
    Rng rng(7);
    Bytes symbols;
    for (int i = 0; i < 64 * 1024; ++i) {
        double u = rng.uniform();
        symbols.push_back(static_cast<u8>(u * u * 16));
    }
    return symbols;
}

void
BM_FseRoundTrip(benchmark::State &state)
{
    Bytes symbols = makeSkewedSymbols();
    std::vector<u64> freqs(16, 0);
    for (u8 s : symbols)
        ++freqs[s];
    auto norm = fse::normalizeCounts(freqs, 9).value();
    auto enc = fse::buildEncodeTable(norm).value();
    auto dec = fse::buildDecodeTable(norm).value();
    for (auto _ : state) {
        BitWriter writer;
        (void)fse::encodeAll(enc, symbols, writer);
        Bytes stream = writer.finish();
        auto reader = BackwardBitReader::open(stream).value();
        Bytes out;
        (void)fse::decodeAll(dec, reader, symbols.size(), out);
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, symbols.size());
}
BENCHMARK(BM_FseRoundTrip);

/** Decode-only: isolates the tANS state walk + backward refills. */
void
BM_FseDecode(benchmark::State &state)
{
    Bytes symbols = makeSkewedSymbols();
    std::vector<u64> freqs(16, 0);
    for (u8 s : symbols)
        ++freqs[s];
    auto norm = fse::normalizeCounts(freqs, 9).value();
    auto enc = fse::buildEncodeTable(norm).value();
    auto dec = fse::buildDecodeTable(norm).value();
    BitWriter writer;
    (void)fse::encodeAll(enc, symbols, writer);
    Bytes stream = writer.finish();
    mem::KernelStats before = mem::kernelStats();
    for (auto _ : state) {
        auto reader = BackwardBitReader::open(stream).value();
        Bytes out;
        (void)fse::decodeAll(dec, reader, symbols.size(), out);
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, symbols.size());
    attachKernelCounters(state, before);
}
BENCHMARK(BM_FseDecode);

// --- Tier-pinned decode benchmarks -----------------------------------
//
// One decode benchmark per (codec, class, tier), with the tier forced
// inside the timed function: BM_TierDecode/<codec>/<class>/<tier>.
// The tier picks mem::wildCopy's store width (and the CRC-32C loop,
// which raw decodes do not run). Comparing the <tier> rows of one
// <codec>/<class> group gives the honest SIMD-vs-scalar speedup on
// identical inputs; the per-tier counters attached below prove the
// wide stores actually ran.

/** Attaches the per-tier attribution counters accumulated across the
 *  timed loop, proving which tier's kernels executed. */
void
attachTierCounters(benchmark::State &state, kernels::Tier tier,
                   const mem::KernelStats &before)
{
    const mem::KernelStats &now = mem::kernelStats();
    const double iters = static_cast<double>(state.iterations());
    if (iters == 0)
        return;
    const unsigned t = static_cast<unsigned>(tier);
    auto per_iter = [&](u64 after_v, u64 before_v) {
        return static_cast<double>(after_v - before_v) / iters;
    };
    state.counters["tier_wild_copy_bytes"] = per_iter(
        now.tierWildCopyBytes[t], before.tierWildCopyBytes[t]);
    state.counters["tier_crc32c_bytes"] =
        per_iter(now.tierCrc32cBytes[t], before.tierCrc32cBytes[t]);
}

/** Restores the entry tier when the benchmark body ends. */
class BenchTierGuard
{
  public:
    explicit BenchTierGuard(kernels::Tier tier)
        : saved_(kernels::activeTier())
    {
        (void)kernels::setActiveTier(tier);
    }
    ~BenchTierGuard() { (void)kernels::setActiveTier(saved_); }

  private:
    kernels::Tier saved_;
};

void
runSnappyDecompressAtTier(benchmark::State &state, kernels::Tier tier,
                          int cls_index)
{
    BenchTierGuard guard(tier);
    Bytes data = makeData(cls_index, 256 * kKiB);
    Bytes compressed = snappy::compress(data);
    mem::KernelStats before = mem::kernelStats();
    Bytes out;
    for (auto _ : state) {
        if (!snappy::decompressInto(compressed, out).ok())
            state.SkipWithError("decompress failed");
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
    attachTierCounters(state, tier, before);
}

void
runZstdLiteDecompressAtTier(benchmark::State &state,
                            kernels::Tier tier, int cls_index)
{
    BenchTierGuard guard(tier);
    Bytes data = makeData(cls_index, 256 * kKiB);
    auto compressed = zstdlite::compress(data);
    mem::KernelStats before = mem::kernelStats();
    Bytes out;
    for (auto _ : state) {
        if (!zstdlite::decompressInto(compressed.value(), out).ok())
            state.SkipWithError("decompress failed");
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
    attachTierCounters(state, tier, before);
}

void
registerTierBenchmarks()
{
    auto classes = corpus::allDataClasses();
    for (kernels::Tier tier : kernels::availableTiers()) {
        const std::string suffix = kernels::tierName(tier);
        for (std::size_t cls = 0; cls < classes.size(); ++cls) {
            std::string cls_name = corpus::dataClassName(classes[cls]);
            benchmark::RegisterBenchmark(
                ("BM_TierDecode/snappy/" + cls_name + "/" + suffix)
                    .c_str(),
                [tier, cls](benchmark::State &state) {
                    runSnappyDecompressAtTier(state, tier,
                                              static_cast<int>(cls));
                });
        }
        // ZstdLite replays its matches through wild copies too; text
        // and log are the compressible classes the CI speedup guard
        // watches.
        for (int cls : {0, 1}) {
            std::string cls_name = corpus::dataClassName(classes[cls]);
            benchmark::RegisterBenchmark(
                ("BM_TierDecode/zstdlite/" + cls_name + "/" + suffix)
                    .c_str(),
                [tier, cls](benchmark::State &state) {
                    runZstdLiteDecompressAtTier(state, tier, cls);
                });
        }
    }
}

/** Attaches the per-stage wall-time breakdown accumulated across the
 *  timed loop as `transform.<stage>.ns` per-iteration counters, so a
 *  pipeline's headline number is attributable to its stages. No-ops
 *  (adds nothing) for base codecs, whose deltas are all zero. */
void
attachStageCounters(benchmark::State &state,
                    const transform::StageStats &before)
{
    const transform::StageStats delta =
        transform::stageStats().diff(before);
    const double iters = static_cast<double>(state.iterations());
    if (iters == 0)
        return;
    for (transform::StageId stage : transform::allStages()) {
        const auto i = static_cast<std::size_t>(stage);
        const u64 ns = delta.applyNs[i] + delta.invertNs[i];
        if (ns == 0)
            continue;
        state.counters["transform." + transform::stageName(stage) +
                       ".ns"] = static_cast<double>(ns) / iters;
    }
}

/** Input size of the BM_Codec/<name>/small_* rows. */
constexpr std::size_t kSmallCallBytes = 2 * kKiB;

/** Whole-buffer round trip through the registry vtable at the codec's
 *  default parameters — the same entry points the serve layer uses,
 *  with one output buffer and one codec::Scratch kept across
 *  iterations as a serve::CodecContext keeps them — on @p bytes of
 *  text. */
void
runRegistryCompress(benchmark::State &state, codec::CodecId id,
                    std::size_t bytes)
{
    const codec::CodecVTable &vtable = codec::registry(id);
    Bytes data = makeData(0, bytes); // text
    const codec::CodecParams params = vtable.caps.clamp(
        vtable.caps.defaultLevel, vtable.caps.defaultWindowLog);
    const transform::StageStats stages_before =
        transform::stageStats();
    Bytes out;
    codec::Scratch scratch;
    for (auto _ : state) {
        if (!vtable.compressInto(data, params, out, scratch).ok())
            state.SkipWithError("compress failed");
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
    attachStageCounters(state, stages_before);
}

void
runRegistryDecompress(benchmark::State &state, codec::CodecId id,
                      std::size_t bytes)
{
    const codec::CodecVTable &vtable = codec::registry(id);
    Bytes data = makeData(0, bytes);
    const codec::CodecParams params = vtable.caps.clamp(
        vtable.caps.defaultLevel, vtable.caps.defaultWindowLog);
    Bytes compressed;
    codec::Scratch scratch;
    if (!vtable.compressInto(data, params, compressed, scratch).ok()) {
        state.SkipWithError("pre-compress failed");
        return;
    }
    const transform::StageStats stages_before =
        transform::stageStats();
    Bytes out;
    for (auto _ : state) {
        if (!vtable.decompressInto(compressed, out, scratch).ok())
            state.SkipWithError("decompress failed");
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
    attachStageCounters(state, stages_before);
}

/**
 * Ratio benchmark over one (codec, data class) cell: the headline
 * comparison for the preconditioner pipelines. A pipeline earns its
 * place by beating its bare terminal codec's ratio on a matching
 * class (delta+snappy on timeseries, shred+zstdlite on columnar, ...);
 * the committed BENCH_kernels.json carries these cells so the claim
 * is checkable. The `ratio` counter is uncompressed/compressed; the
 * stage counters break the compress time down per transform.
 */
void
runRegistryRatio(benchmark::State &state, codec::CodecId id,
                 int cls_index)
{
    const codec::CodecVTable &vtable = codec::registry(id);
    Bytes data = makeData(cls_index, 256 * kKiB);
    const codec::CodecParams params = vtable.caps.clamp(
        vtable.caps.defaultLevel, vtable.caps.defaultWindowLog);
    const transform::StageStats stages_before =
        transform::stageStats();
    Bytes compressed;
    codec::Scratch scratch;
    for (auto _ : state) {
        if (!vtable.compressInto(data, params, compressed, scratch).ok())
            state.SkipWithError("compress failed");
        benchmark::DoNotOptimize(compressed.data());
    }
    setThroughput(state, data.size());
    attachStageCounters(state, stages_before);
    if (!compressed.empty())
        state.counters["ratio"] =
            static_cast<double>(data.size()) /
            static_cast<double>(compressed.size());
    state.SetLabel(corpus::dataClassName(
        corpus::allDataClasses()[static_cast<std::size_t>(
            cls_index)]));
}

/** Session-API round trip fed in 4 KiB chunks: what streaming RPC
 *  traffic pays relative to the whole-buffer entry points. */
void
runRegistryStreamDecompress(benchmark::State &state, codec::CodecId id)
{
    const codec::CodecVTable &vtable = codec::registry(id);
    Bytes data = makeData(0, 256 * kKiB);
    const codec::CodecParams params = vtable.caps.clamp(
        vtable.caps.defaultLevel, vtable.caps.defaultWindowLog);
    // Streaming decoders consume the session container (for snappy it
    // differs from the raw buffer format), so produce it with one.
    Bytes compressed;
    {
        auto session = vtable.makeCompressSession(params);
        if (!codec::compressAll(*session, data, 0, compressed).ok()) {
            state.SkipWithError("session pre-compress failed");
            return;
        }
    }
    Bytes out;
    for (auto _ : state) {
        auto session = vtable.makeDecompressSession();
        out.clear();
        if (!codec::decompressAll(*session, compressed, 4 * kKiB, out)
                 .ok())
            state.SkipWithError("stream decompress failed");
        benchmark::DoNotOptimize(out.data());
    }
    setThroughput(state, data.size());
}

/** Registers the registry-driven benchmarks (one trio per codec, plus
 *  the ratio cells over the preconditioner data classes) and publishes
 *  each codec's capability metadata into the benchmark context so
 *  --json output is self-describing. */
void
registerRegistryBenchmarks()
{
    const auto classes = corpus::allDataClasses();
    for (codec::CodecId id : codec::allCodecs()) {
        std::string name = codec::codecName(id);
        benchmark::RegisterBenchmark(
            ("BM_Codec/" + name + "/compress").c_str(),
            [id](benchmark::State &state) {
                runRegistryCompress(state, id, 256 * kKiB);
            });
        benchmark::RegisterBenchmark(
            ("BM_Codec/" + name + "/decompress").c_str(),
            [id](benchmark::State &state) {
                runRegistryDecompress(state, id, 256 * kKiB);
            });
        // Small calls (the paper's §3.5 regime), where per-call table
        // and buffer setup outweighs the work on the bytes.
        benchmark::RegisterBenchmark(
            ("BM_Codec/" + name + "/small_compress").c_str(),
            [id](benchmark::State &state) {
                runRegistryCompress(state, id, kSmallCallBytes);
            });
        benchmark::RegisterBenchmark(
            ("BM_Codec/" + name + "/small_decompress").c_str(),
            [id](benchmark::State &state) {
                runRegistryDecompress(state, id, kSmallCallBytes);
            });
        benchmark::RegisterBenchmark(
            ("BM_Codec/" + name + "/stream_decompress").c_str(),
            [id](benchmark::State &state) {
                runRegistryStreamDecompress(state, id);
            });
        // Ratio cells: text as the legacy anchor plus the three
        // preconditioner classes the pipelines target.
        for (corpus::DataClass cls :
             {corpus::DataClass::textLike, corpus::DataClass::timeSeries,
              corpus::DataClass::columnarNumeric,
              corpus::DataClass::imagePlane}) {
            int cls_index = -1;
            for (std::size_t i = 0; i < classes.size(); ++i)
                if (classes[i] == cls)
                    cls_index = static_cast<int>(i);
            benchmark::RegisterBenchmark(
                ("BM_CodecRatio/" + name + "/" +
                 corpus::dataClassName(cls))
                    .c_str(),
                [id, cls_index](benchmark::State &state) {
                    runRegistryRatio(state, id, cls_index);
                });
        }
        benchmark::AddCustomContext("codec." + name,
                                    bench::codecCapsJson(id).dump(0));
    }
}

} // namespace

/**
 * Custom main so this binary honors the repo-wide `--json <path>`
 * telemetry flag (translated into google-benchmark's native
 * `--benchmark_out` / `--benchmark_out_format=json` pair before
 * benchmark::Initialize consumes argv), the registry-driven
 * `--codec <name>` filter, which resolves the name through
 * codec::codecFromName and narrows the run to that codec's
 * BM_Codec/<name>/ benchmarks, and `--kernel-tier <name>`, which
 * forces the SIMD kernel tier for every non-pinned benchmark
 * (overriding the CDPU_KERNEL_TIER environment override).
 */
int
main(int argc, char **argv)
{
    std::vector<std::string> arg_storage;
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        std::string path;
        if (arg.rfind("--kernel-tier=", 0) == 0 ||
            (arg == "--kernel-tier" && i + 1 < argc)) {
            std::string name = arg.rfind("--kernel-tier=", 0) == 0
                                   ? arg.substr(14)
                                   : std::string(argv[++i]);
            cdpu::Status status = cdpu::kernels::applyTierOverride(name);
            if (!status.ok()) {
                std::fprintf(stderr, "--kernel-tier %s: %s\n",
                             name.c_str(),
                             status.message().c_str());
                return 1;
            }
            continue;
        }
        if (arg.rfind("--codec=", 0) == 0 ||
            (arg == "--codec" && i + 1 < argc)) {
            std::string name = arg.rfind("--codec=", 0) == 0
                                   ? arg.substr(8)
                                   : std::string(argv[++i]);
            auto id = cdpu::codec::codecFromName(name);
            if (!id.ok()) {
                std::fprintf(stderr, "--codec %s: %s\n", name.c_str(),
                             id.status().message().c_str());
                return 1;
            }
            // The filter is a regex; escape the '+' in pipeline spec
            // names so "delta+snappy" matches literally. Matches both
            // the BM_Codec trio and the BM_CodecRatio cells.
            std::string escaped;
            for (char c : cdpu::codec::codecName(id.value())) {
                if (c == '+')
                    escaped += '\\';
                escaped += c;
            }
            arg_storage.push_back(
                "--benchmark_filter=BM_Codec(Ratio)?/" + escaped +
                "/");
            continue;
        }
        if (arg.rfind("--json=", 0) == 0) {
            path = arg.substr(7);
        } else if (arg == "--json" && i + 1 < argc) {
            path = argv[++i];
        } else {
            arg_storage.push_back(std::move(arg));
            continue;
        }
        arg_storage.push_back("--benchmark_out=" + path);
        arg_storage.push_back("--benchmark_out_format=json");
    }
    registerRegistryBenchmarks();
    registerTierBenchmarks();
    // Every --json record carries the kernel-tier provenance: which
    // tier the non-pinned benchmarks ran at, what the host detected,
    // and the raw CPU feature summary.
    benchmark::AddCustomContext(
        "kernel.active_tier",
        cdpu::kernels::tierName(cdpu::kernels::activeTier()));
    benchmark::AddCustomContext(
        "kernel.detected_tier",
        cdpu::kernels::tierName(cdpu::kernels::detectedTier()));
    benchmark::AddCustomContext("kernel.cpu_features",
                                cdpu::kernels::cpuFeatureSummary());
    {
        std::string tiers;
        for (cdpu::kernels::Tier tier :
             cdpu::kernels::availableTiers()) {
            if (!tiers.empty())
                tiers += ",";
            tiers += cdpu::kernels::tierName(tier);
        }
        benchmark::AddCustomContext("kernel.available_tiers", tiers);
    }
    std::vector<char *> args;
    for (std::string &arg : arg_storage)
        args.push_back(arg.data());
    int args_count = static_cast<int>(args.size());
    benchmark::Initialize(&args_count, args.data());
    if (benchmark::ReportUnrecognizedArguments(args_count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}

/**
 * @file
 * Codec registry: one vtable per codec behind one dynamic table.
 *
 * Modeled after tudocomp's modular registry of uniform compressor
 * interfaces (PAPERS.md): each codec contributes a CodecVTable —
 * whole-buffer entry points, capability metadata, and streaming
 * session factories — and every dispatch site (serve contexts, the
 * lzbench harness, the DSE runner, benches, examples) resolves
 * behaviour through registry() instead of a hand-rolled switch.
 *
 * The table is dynamic: the four base codecs occupy slots
 * 0..kNumBaseCodecs-1, a curated set of preconditioner pipelines
 * (spec.h) registers at startup, and codecFromName() admits new
 * pipeline specs at runtime. Entries are append-only and never move,
 * so a CodecId stays valid for the process lifetime.
 *
 * Adding a base codec is still a one-file registration:
 *   1. add the BaseCodecId/CodecId enumerators (codec.h) and bump
 *      kNumBaseCodecs;
 *   2. write src/codec/<name>_codec.cpp defining its vtable (and, if
 *      the format supports it, incremental sessions — otherwise use
 *      the buffering adapters in adapter_sessions.h);
 *   3. list the vtable accessor in registry.cpp's base table.
 * Pipelines need no files at all: they compose registered pieces.
 * Nothing above src/codec/ changes; a CI grep guard keeps it that way.
 */

#ifndef CDPU_CODEC_REGISTRY_H_
#define CDPU_CODEC_REGISTRY_H_

#include <functional>
#include <memory>
#include <vector>

#include "codec/codec.h"
#include "codec/scratch.h"
#include "codec/session.h"
#include "transform/transform.h"

namespace cdpu::codec
{

/** Clamped per-call parameters. Codecs without levels/windows ignore
 *  the fields they do not use. */
struct CodecParams
{
    int level = 0;
    unsigned windowLog = 0;
};

/**
 * Capability metadata: the registry's answer to "what can this codec
 * legally run?". Callers clamp fleet-sampled parameters against this
 * instead of hard-coding per-codec literals.
 */
struct CodecCaps
{
    CodecId id = CodecId::snappy;
    std::string name;        ///< Stable lowercase identifier.
    std::string displayName; ///< Table/report label.

    bool hasLevels = false;
    int minLevel = 0;
    int maxLevel = 0;
    int defaultLevel = 0;

    bool hasWindow = false;
    unsigned minWindowLog = 0;
    unsigned maxWindowLog = 0;
    unsigned defaultWindowLog = 0;

    /** Worst-case output growth bound: compressed size never exceeds
     *  input_size * maxExpansionNum / maxExpansionDen + maxExpansionSlop
     *  (the analytic form behind maxCompressedSize). Pipelines multiply
     *  their stages' fractions into the terminal's (DESIGN.md §15), so
     *  the fields are u64. */
    u64 maxExpansionNum = 1;
    u64 maxExpansionDen = 1;
    std::size_t maxExpansionSlop = 0;

    /** Whether each streaming direction is genuinely incremental
     *  (bounded scratch) or a whole-buffer adapter. ZstdLite decode is
     *  block-incremental while its compress session must buffer (the
     *  frame header carries contentSize up front). */
    bool incrementalCompress = false;
    bool incrementalDecompress = false;

    /** Whether session-produced streams use the same container as the
     *  whole-buffer entry points. Snappy streams are framed
     *  (framing_format.txt) while its buffer form is raw, mirroring
     *  the real library's two container formats. */
    bool streamingSharesBufferFormat = true;

    /** Pipeline metadata: stages applied (forward order) before the
     *  terminal base codec. Empty stages / isPipeline == false for the
     *  base codecs themselves. */
    bool isPipeline = false;
    BaseCodecId terminal = BaseCodecId::snappy;
    std::vector<transform::StageId> stages = {};

    /** Clamps fleet-sampled parameters into this codec's legal range,
     *  so any sampled call can execute on any codec. */
    CodecParams clamp(int level, unsigned window_log) const;
};

/** Uniform per-codec behaviour table. All callables are non-null for
 *  every registered codec (std::function so pipeline entries can
 *  capture their composed spec). */
struct CodecVTable
{
    CodecCaps caps;

    /** Compresses @p input into @p out (cleared first, capacity kept —
     *  the context-reuse contract of the per-codec *Into calls),
     *  rebuilding its tables and buffers in @p scratch. */
    std::function<Status(ByteSpan input, const CodecParams &params,
                         Bytes &out, Scratch &scratch)>
        compressInto;

    /** Decompresses a whole buffer produced by compressInto. */
    std::function<Status(ByteSpan input, Bytes &out, Scratch &scratch)>
        decompressInto;

    /** Upper bound on compressInto output for @p input_size bytes. */
    std::function<std::size_t(std::size_t input_size)> maxCompressedSize;

    /** Streaming session factories (session.h). */
    std::function<std::unique_ptr<CompressSession>(
        const CodecParams &params)>
        makeCompressSession;
    std::function<std::unique_ptr<DecompressSession>()>
        makeDecompressSession;
};

/** The vtable for @p id. Never fails for ids obtained from
 *  allCodecs()/codecFromName()/registerPipeline(). */
const CodecVTable &registry(CodecId id);

/** The terminal base codec of @p id: the pipeline's terminal, or the
 *  codec itself when it is a base codec. Cost models and structural
 *  walkers that reason about wire formats dispatch on this. */
BaseCodecId terminalBase(CodecId id);

/** Convenience wrappers over registry(id); the two whole-buffer calls
 *  run on a scratch of their own. */
Status compressInto(CodecId id, ByteSpan input,
                    const CodecParams &params, Bytes &out);
Status decompressInto(CodecId id, ByteSpan input, Bytes &out);
std::unique_ptr<CompressSession> makeCompressSession(
    CodecId id, const CodecParams &params);
std::unique_ptr<DecompressSession> makeDecompressSession(CodecId id);

} // namespace cdpu::codec

#endif // CDPU_CODEC_REGISTRY_H_

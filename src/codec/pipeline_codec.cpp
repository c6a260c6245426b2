/**
 * @file
 * Pipeline codec: transform stages composed in front of a terminal
 * base codec, registered as an ordinary CodecVTable so every layer —
 * codec_test properties, harden fuzz, container parallel decode,
 * serve differential, benches — inherits pipelines with no new code.
 *
 * Compression applies the spec's stages left to right (each wrapping
 * its output in the framed stage header, transform.h) and hands the
 * result to the terminal codec. Decompression undoes the terminal
 * codec and inverts the stages right to left; any stage-header
 * mismatch or size lie is corruptData from the transform layer, so
 * the decode-side hardening contract (fail closed, allocation bounded
 * by the validated claim) holds end to end.
 */

#include <numeric>

#include "codec/adapter_sessions.h"
#include "codec/spec.h"
#include "codec/vtables.h"

namespace cdpu::codec::detail
{

namespace
{

/** Composed expansion numerators/denominators are renormalised below
 *  this magnitude so downstream `size * num / den` checks cannot
 *  overflow u64 even for worst-case stage products. */
constexpr u64 kExpansionCap = u64{1} << 20;

u64
ceilDiv(u64 a, u64 b)
{
    return (a + b - 1) / b;
}

/**
 * Folds one component's expansion bound (x <= n*a/b + s) onto the
 * accumulated bound. The +1 absorbs the floor-division slack when the
 * downstream checker evaluates the composed bound with integer
 * arithmetic.
 */
void
foldExpansion(u64 &num, u64 &den, u64 &slop, u64 a, u64 b, u64 s)
{
    num *= a;
    den *= b;
    slop = ceilDiv(slop * a, b) + s + 1;
    u64 g = std::gcd(num, den);
    num /= g;
    den /= g;
    // Renormalise upward (num rounds up, den down) so the fraction
    // only grows: the bound stays sound while the magnitudes stay
    // multiplication-safe.
    while (num > kExpansionCap && den > 1) {
        num = ceilDiv(num, 2);
        den /= 2;
    }
}

CodecCaps
composeCaps(const CodecSpec &spec, const CodecCaps &terminal_caps)
{
    CodecCaps caps = terminal_caps;
    caps.name = spec.toString();
    caps.displayName = caps.name;
    caps.isPipeline = true;
    caps.terminal = spec.terminal;
    caps.stages = spec.stages;
    // The stage chain is applied/undone whole-buffer, so neither
    // direction is incremental, but the session wire format is the
    // buffer format (buffered adapters below).
    caps.incrementalCompress = false;
    caps.incrementalDecompress = false;
    caps.streamingSharesBufferFormat = true;

    u64 num = 1, den = 1, slop = 0;
    for (transform::StageId stage : spec.stages) {
        transform::StageExpansion e = transform::stageExpansion(stage);
        foldExpansion(num, den, slop, e.num, e.den, e.slop);
    }
    foldExpansion(num, den, slop, terminal_caps.maxExpansionNum,
                  terminal_caps.maxExpansionDen,
                  terminal_caps.maxExpansionSlop);
    caps.maxExpansionNum = num;
    caps.maxExpansionDen = den;
    caps.maxExpansionSlop = static_cast<std::size_t>(slop);
    return caps;
}

} // namespace

std::unique_ptr<CodecVTable>
makePipelineVTable(const CodecSpec &spec)
{
    const CodecVTable *terminal = &baseVTable(spec.terminal);
    auto vtable = std::make_unique<CodecVTable>();
    vtable->caps = composeCaps(spec, terminal->caps);

    std::vector<transform::StageId> stages = spec.stages;

    // The stage chain runs through the scratch's two staging buffers;
    // the terminal codec uses the rest of the scratch.
    vtable->compressInto = [stages, terminal](ByteSpan input,
                                              const CodecParams &params,
                                              Bytes &out,
                                              Scratch &scratch) -> Status {
        Bytes &staged = scratch.staged;
        Bytes &next = scratch.next;
        ByteSpan view = input;
        for (transform::StageId stage : stages) {
            CDPU_RETURN_IF_ERROR(transform::apply(stage, view, next));
            staged.swap(next);
            view = ByteSpan(staged.data(), staged.size());
        }
        return terminal->compressInto(view, params, out, scratch);
    };

    vtable->decompressInto = [stages, terminal](ByteSpan input, Bytes &out,
                                                Scratch &scratch) -> Status {
        Bytes &staged = scratch.staged;
        Bytes &next = scratch.next;
        CDPU_RETURN_IF_ERROR(
            terminal->decompressInto(input, staged, scratch));
        for (std::size_t i = stages.size(); i-- > 0;) {
            Bytes &target = i == 0 ? out : next;
            CDPU_RETURN_IF_ERROR(transform::invert(
                stages[i], ByteSpan(staged.data(), staged.size()),
                target));
            if (i != 0)
                staged.swap(next);
        }
        return Status::okStatus();
    };

    vtable->maxCompressedSize = [stages,
                                 terminal](std::size_t input_size) {
        std::size_t size = input_size;
        for (transform::StageId stage : stages)
            size = transform::maxEncodedSize(stage, size);
        return terminal->maxCompressedSize(size);
    };

    auto compress = vtable->compressInto;
    vtable->makeCompressSession =
        [compress](const CodecParams &params)
        -> std::unique_ptr<CompressSession> {
        return std::make_unique<BufferedCompressSession>(compress,
                                                         params);
    };
    auto decompress = vtable->decompressInto;
    vtable->makeDecompressSession =
        [decompress]() -> std::unique_ptr<DecompressSession> {
        return std::make_unique<BufferedDecompressSession>(decompress);
    };

    return vtable;
}

} // namespace cdpu::codec::detail

/**
 * @file
 * Registry-driven corruption injector.
 *
 * Decode paths in a hyperscale fleet see wire corruption and
 * attacker-shaped bytes millions of times per second (the paper's
 * Section 3 serving context; Section 5's units must reject malformed
 * input without wedging the pipeline). The injector turns any valid
 * frame into a structured family of invalid-or-damaged neighbours:
 * bit flips, truncation at structural boundaries, length-field/varint
 * tampering, CRC tampering, chunk-type swaps, and splices of two
 * frames. Every mutation is a pure function of the (codec, class,
 * seed) triple — no wall-clock, no global state — so a fuzz failure
 * replays from the triple its report names (DESIGN.md §11).
 *
 * One engine serves every grammar: a grammar's walk turns a frame into
 * a FieldMap, and mutateFrame() implements each class over any map.
 */

#ifndef CDPU_HARDEN_INJECTOR_H_
#define CDPU_HARDEN_INJECTOR_H_

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "codec/codec.h"
#include "common/types.h"

namespace cdpu::codec
{
struct CodecVTable;
} // namespace cdpu::codec

namespace cdpu::harden
{

/** Structured mutation families, ordered as the fuzz driver cycles
 *  through them. */
enum class MutationClass : u8
{
    bitFlip = 0,   ///< Flip 1..8 random bits anywhere in the frame.
    truncate,      ///< Cut at (or one byte around) a structural boundary.
    lengthTamper,  ///< Rewrite a length field / varint (zero, huge, ±1).
    crcTamper,     ///< Damage an integrity field (or trailing bytes for
                   ///< grammars without one).
    chunkTypeSwap, ///< Rewrite a chunk/block type discriminator.
    splice,        ///< Head of one frame + tail of another, cut at
                   ///< structural boundaries.
    stageHeaderTamper, ///< Pipeline codecs: decode the terminal frame,
                       ///< tamper the leading stage header (tag /
                       ///< claimed raw size), re-encode. Elsewhere:
                       ///< tamper a byte of the grammar's header.
};

inline constexpr std::size_t kNumMutationClasses = 7;

/** All classes, in enum order (iteration in drivers and tests). */
const std::vector<MutationClass> &allMutationClasses();

/** Stable lowercase class name for reports ("bit_flip", ...). */
std::string mutationClassName(MutationClass cls);

/**
 * Which container grammar a frame follows. For codecs whose streaming
 * sessions share the whole-buffer container the two are identical;
 * snappy's session output is framed (framing_format.txt) while its
 * buffer form is a raw preamble + element stream. `container` is the
 * block-parallel container (container/container.h, DESIGN.md §14):
 * the MutationSpec's codec is the inner block codec, and mutations
 * target the frame index — offset/size varints, the index CRC, the
 * version/codec/flags bytes, and block-boundary splices.
 */
enum class FrameKind
{
    buffer,
    stream,
    container,
};

/** The reproduction triple. Two equal specs over equal input frames
 *  produce byte-identical mutations. */
struct MutationSpec
{
    codec::CodecId codec = codec::CodecId::snappy;
    MutationClass cls = MutationClass::bitFlip;
    u64 seed = 0;
};

/** Mixes the triple into the RNG seed the mutation draws from. */
u64 mutationSeed(const MutationSpec &spec);

/** "codec=snappy class=bit_flip seed=42" — the replay line a failure
 *  report carries. */
std::string describeSpec(const MutationSpec &spec);

/** Bytes [start, start + size) of a frame. */
struct FieldRange
{
    std::size_t start = 0;
    std::size_t size = 0;
};

/**
 * What one skeleton walk of a frame finds: the fields each
 * MutationClass aims at. A walk never validates; it stops at the first
 * byte it cannot skeleton-parse, so damaged frames map too.
 */
struct FieldMap
{
    /** Offsets where one field or unit ends and the next begins,
     *  sorted and unique, always holding 0 and frame.size(). truncate
     *  and splice cut here. */
    std::vector<std::size_t> boundaries;
    /** Length fields in grammar order; lengthTamper rewrites one
     *  (sets a random byte to 0xff when there are none). */
    std::vector<FieldRange> lengths;
    /** Integrity fields; crcTamper flips a bit of one (of the last
     *  four bytes when there are none). */
    std::vector<FieldRange> checksums;
    /** Type-discriminator bytes; chunkTypeSwap rewrites one. */
    std::vector<std::size_t> discriminators;
    /** Values worth writing into a discriminator; when empty,
     *  chunkTypeSwap XORs 1..7 into its low bits instead. */
    std::span<const u8> discriminatorValues;
    /** The region stageHeaderTamper damages. */
    FieldRange header;
    /** Pipeline frames: the terminal codec wrapping the stage-framed
     *  bytes, through which stageHeaderTamper reaches the stage
     *  header. */
    const codec::CodecVTable *stagedTerminal = nullptr;
};

/** Maps @p frame under @p id's @p kind grammar (pipelines follow
 *  their terminal codec's; container frames the CDPC index's). */
FieldMap mapFrame(codec::CodecId id, FrameKind kind, ByteSpan frame);

/** Maps a cdpud request frame (serve/wire.h's RequestField layout). */
FieldMap mapWireRequest(ByteSpan frame);

/** One grammar's walk. */
using Grammar = std::function<FieldMap(ByteSpan)>;

/**
 * The engine: applies @p cls to a copy of @p frame, aimed by
 * @p grammar's map of it, drawing from an Rng seeded with
 * @p rng_seed. @p donor feeds splice (mapped by the same grammar);
 * when empty, splice folds the frame onto itself. Deterministic in
 * its arguments; the result may equal the input (e.g. an empty
 * frame), so callers treat "still decodes" as a legal outcome.
 */
Bytes mutateFrame(ByteSpan frame, const Grammar &grammar,
                  MutationClass cls, u64 rng_seed, ByteSpan donor = {});

class CorruptionInjector
{
  public:
    /** mapFrame(id, kind, frame).boundaries. */
    static std::vector<std::size_t> structuralOffsets(codec::CodecId id,
                                                      FrameKind kind,
                                                      ByteSpan frame);

    /** mutateFrame over @p spec.codec's @p kind grammar, seeded with
     *  mutationSeed(@p spec). */
    static Bytes mutate(ByteSpan frame, const MutationSpec &spec,
                        FrameKind kind, ByteSpan donor = {});
};

} // namespace cdpu::harden

#endif // CDPU_HARDEN_INJECTOR_H_

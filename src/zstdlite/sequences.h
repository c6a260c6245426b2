/**
 * @file
 * Sequences-section encode/decode: three interleaved FSE streams.
 *
 * Encoding walks the sequence list backward. Per sequence it writes
 * [ll extra bits, ml extra bits, of extra bits] then the state-
 * transition bits for [offset, match-length, literal-length] encoders;
 * after all sequences it flushes the ll, ml, of states. The decoder
 * therefore (reading the stream from its tail) reads the of, ml, ll
 * initial states, then per sequence takes the three symbols from the
 * current states, updates ll, ml, of, and reads of/ml/ll extra bits.
 */

#ifndef CDPU_ZSTDLITE_SEQUENCES_H_
#define CDPU_ZSTDLITE_SEQUENCES_H_

#include "fse/table.h"
#include "zstdlite/format.h"

namespace cdpu::zstdlite
{

/** The fixed table distributions shared by encoder and decoder. */
const fse::NormalizedCounts &predefinedLLCounts();
const fse::NormalizedCounts &predefinedOFCounts();
const fse::NormalizedCounts &predefinedMLCounts();

/** The three code streams, in the order their tables are transmitted. */
enum CodeStream : unsigned
{
    kLL = 0,
    kOF = 1,
    kML = 2,
};

/**
 * One FSE state with its code's value binning folded in (the idea of
 * zstd's ZSTD_seqSymbol): the state transition and the value's
 * baseline and extra bits in a single 8-byte load.
 */
struct SeqSymbol
{
    u32 baseline = 0;
    u8 extraBits = 0;
    u8 nbBits = 0;
    u16 nextStateBase = 0;

    bool operator==(const SeqSymbol &) const = default;
};

/** The fused decoder's table for one code stream, indexed by state. */
struct SeqTable
{
    std::vector<SeqSymbol> entries;
    unsigned tableLog = 0;
};

/**
 * Builds @p which's fused table from @p norm in one pass: the spread
 * on the stack, each symbol binned once, every entry written once.
 * Entry for entry it is fse::buildDecodeTable() with each symbol
 * replaced by its code's baseline and extra bits.
 * @pre @p norm sums to 1 << tableLog with tableLog <= fse::kMaxTableLog
 *      and its alphabet fits @p which's code range, as
 *      fse::deserializeCounts() and the section's alphabet check ensure.
 */
SeqTable buildSeqTable(const fse::NormalizedCounts &norm, CodeStream which);

/**
 * Encodes @p sequences as a sequences section appended to @p out.
 * Dynamic FSE tables are transmitted when the sequence count justifies
 * them. Reports the bitstream length and table mode for the trace.
 */
Status encodeSequencesSection(const std::vector<lz77::Sequence> &sequences,
                              Bytes &out,
                              std::size_t *stream_bytes_out = nullptr,
                              bool *dynamic_out = nullptr);

/** Decoded sequences plus trace numbers. */
struct DecodedSequences
{
    std::vector<lz77::Sequence> sequences;
    std::size_t streamBytes = 0;
    bool dynamicTables = false;
};

/**
 * Decodes one sequences section starting at @p pos (advanced).
 *
 * @p max_sequences bounds the claimed count before anything is
 * reserved: every sequence contributes a match of at least
 * kMinMatchLength bytes to the block, so the enclosing block's
 * regenerated size caps how many sequences it can legally carry
 * (regen / kMinMatchLength + 1).
 */
Result<DecodedSequences> decodeSequencesSection(
    ByteSpan data, std::size_t &pos, std::size_t max_sequences);

/**
 * The fused decoder behind every untraced decode: decodes the
 * sequences section at @p pos (advanced past it) and executes each
 * sequence as soon as it is decoded, its literal run from @p literals
 * and then its match, with no sequence list in between. Remaining
 * literals form the block's tail.
 *
 * The block occupies [@p op, @p block_end) of @p out, which must
 * already hold block_end + mem::kWildCopySlop bytes; everything
 * before @p op is history. Checks everything decodeSequencesSection()
 * and the reference block executor check, so the two paths accept
 * and reject the same blocks. On return @p op is one past the last
 * byte written.
 */
Status executeSequencesSection(ByteSpan data, std::size_t &pos,
                               ByteSpan literals, u64 window_size,
                               std::size_t block_end, Bytes &out,
                               std::size_t &op);

} // namespace cdpu::zstdlite

#endif // CDPU_ZSTDLITE_SEQUENCES_H_

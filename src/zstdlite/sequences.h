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

#include <span>

#include "common/bitio.h"
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
 * Builds @p which's fused table from @p norm into @p table (its storage
 * reused) in one pass: the spread on the stack, each symbol binned
 * once, every entry written once. Entry for entry it is
 * fse::buildDecodeTable() with each symbol replaced by its code's
 * baseline and extra bits.
 * @pre @p norm sums to 1 << tableLog with tableLog <= fse::kMaxTableLog
 *      and its alphabet fits @p which's code range, as
 *      fse::deserializeCounts() and the section's alphabet check ensure.
 */
void buildSeqTable(const fse::NormalizedCounts &norm, CodeStream which,
                   SeqTable &table);

/** The parsed front of a sequences section: what the decoder needs
 *  before it reads the first sequence. */
struct SectionHeader
{
    std::size_t count = 0;
    std::array<bool, 3> dynamic{};
    /** Transmitted distributions; unused where the table is predefined. */
    std::array<fse::NormalizedCounts, 3> counts;
    ByteSpan stream; ///< The backward FSE bitstream.

    /** @p which's distribution: transmitted or predefined. */
    const fse::NormalizedCounts &norm(CodeStream which) const;
};

/** What the sequences section rebuilds per block, kept across blocks
 *  and calls: each member is rebuilt in place, its capacity kept. */
struct SequencesScratch
{
    /** Encode: every sequence's binning, per code stream. */
    std::array<std::vector<CodeBin>, 3> bins;
    /** Encode: the transmitted distributions and their tables. */
    std::array<fse::NormalizedCounts, 3> counts;
    std::array<fse::EncodeTable, 3> encodeTables;
    BitWriter stream; ///< Encode: the backward FSE bitstream.

    /** Decode: the section's header and its transmitted tables. */
    SectionHeader header;
    std::array<SeqTable, 3> tables;
};

/**
 * Encodes @p sequences as a sequences section appended to @p out.
 * Dynamic FSE tables are transmitted when the sequence count justifies
 * them. Reports the bitstream length and table mode for the trace.
 */
Status encodeSequencesSection(std::span<const lz77::Sequence> sequences,
                              Bytes &out, SequencesScratch &scratch,
                              std::size_t *stream_bytes_out = nullptr,
                              bool *dynamic_out = nullptr);

/**
 * Parses a section's count, table modes, transmitted distributions and
 * stream span at @p pos into @p header (its storage reused), advancing
 * @p pos past the stream. A zero count ends the section after its
 * varint.
 *
 * @p max_sequences bounds the claimed count before anything is sized
 * from it: every sequence contributes a match of at least
 * kMinMatchLength bytes to the block, so the enclosing block's
 * regenerated size caps how many sequences it can legally carry
 * (regen / kMinMatchLength + 1). Every table's alphabet is checked
 * against its code range here, so no decoder range-checks a code per
 * sequence.
 */
Status readSectionHeader(ByteSpan data, std::size_t &pos,
                         std::size_t max_sequences, SectionHeader &header);

/**
 * Decodes the sequences section at @p pos (advanced past it) and
 * executes each sequence as soon as it is decoded, its literal run
 * from @p literals and then its match, with no sequence list in
 * between. Remaining literals form the block's tail. Every compressed
 * block of every decode runs through here; its header and dynamic
 * tables are rebuilt in @p scratch.
 *
 * The block occupies [@p op, @p block_end) of @p out, which must
 * already hold block_end + mem::kWildCopySlop bytes; everything
 * before @p op is history. On return @p op is one past the last byte
 * written.
 *
 * With @p trace, also records the section's numSequences,
 * seqStreamBytes and dynamicTables, and appends each sequence as it
 * is decoded: the BlockTrace the ZStd PU model replays.
 */
Status executeSequencesSection(ByteSpan data, std::size_t &pos,
                               ByteSpan literals, u64 window_size,
                               std::size_t block_end, Bytes &out,
                               std::size_t &op, SequencesScratch &scratch,
                               BlockTrace *trace = nullptr);

} // namespace cdpu::zstdlite

#endif // CDPU_ZSTDLITE_SEQUENCES_H_

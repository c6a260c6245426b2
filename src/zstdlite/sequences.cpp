#include "zstdlite/sequences.h"

#include <algorithm>
#include <cstring>

#include "common/bitio.h"
#include "common/histogram.h"
#include "common/mem.h"
#include "common/varint.h"
#include "fse/encoder.h"

namespace cdpu::zstdlite
{

namespace
{

/** Sequence counts below this use the predefined tables: a transmitted
 *  table cannot amortize over so few symbols. */
constexpr std::size_t kDynamicTableThreshold = 32;

/** Builds a fixed geometric-ish distribution over @p alphabet symbols.
 *  Both sides derive it identically, so it never travels in headers. */
fse::NormalizedCounts
makePredefined(std::size_t alphabet, unsigned table_log, double decay)
{
    std::vector<u64> pseudo(alphabet, 0);
    double weight = 1u << 16;
    for (std::size_t sym = 0; sym < alphabet; ++sym) {
        pseudo[sym] = static_cast<u64>(weight) + 1;
        weight *= decay;
    }
    auto norm = fse::normalizeCounts(pseudo, table_log);
    // Static inputs; cannot fail.
    return norm.value();
}

} // namespace

const fse::NormalizedCounts &
predefinedLLCounts()
{
    static const fse::NormalizedCounts counts =
        makePredefined(kNumLLCodes, 6, 0.80);
    return counts;
}

const fse::NormalizedCounts &
predefinedOFCounts()
{
    static const fse::NormalizedCounts counts =
        makePredefined(kNumOFCodes, 5, 0.85);
    return counts;
}

const fse::NormalizedCounts &
predefinedMLCounts()
{
    static const fse::NormalizedCounts counts =
        makePredefined(kNumMLCodes, 6, 0.82);
    return counts;
}

namespace
{

const fse::NormalizedCounts &
predefinedCounts(CodeStream which)
{
    return which == kLL   ? predefinedLLCounts()
           : which == kOF ? predefinedOFCounts()
                          : predefinedMLCounts();
}

/** @p which's predefined encode table, built once per process. */
const fse::EncodeTable &
predefinedEncodeTable(CodeStream which)
{
    // The predefined counts sum to their table size, so the builds
    // cannot fail.
    static const std::array<fse::EncodeTable, 3> tables = {
        fse::buildEncodeTable(predefinedCounts(kLL)).value(),
        fse::buildEncodeTable(predefinedCounts(kOF)).value(),
        fse::buildEncodeTable(predefinedCounts(kML)).value(),
    };
    return tables[which];
}

} // namespace

Status
encodeSequencesSection(std::span<const lz77::Sequence> sequences,
                       Bytes &out, SequencesScratch &scratch,
                       std::size_t *stream_bytes_out, bool *dynamic_out)
{
    putVarint(out, sequences.size());
    if (stream_bytes_out)
        *stream_bytes_out = 0;
    if (dynamic_out)
        *dynamic_out = false;
    if (sequences.empty())
        return Status::okStatus();

    // Bin every sequence once; the bins feed the tables and the stream.
    const std::size_t count = sequences.size();
    for (std::vector<CodeBin> &bins : scratch.bins)
        bins.resize(count);
    CodeBin *const ll_bins = scratch.bins[kLL].data();
    CodeBin *const of_bins = scratch.bins[kOF].data();
    CodeBin *const ml_bins = scratch.bins[kML].data();
    std::array<u64, kNumLLCodes> ll_freqs{};
    std::array<u64, kNumOFCodes> of_freqs{};
    std::array<u64, kNumMLCodes> ml_freqs{};
    for (std::size_t i = 0; i < count; ++i) {
        const auto &seq = sequences[i];
        if (seq.matchLength < kMinMatchLength ||
            seq.matchLength > kMaxMatchLength ||
            seq.literalLength > kMaxSeqLiteralRun || seq.offset == 0) {
            return Status::invalid("sequence out of encodable range");
        }
        ll_bins[i] = literalLengthBin(seq.literalLength);
        of_bins[i] = offsetBin(seq.offset);
        ml_bins[i] = matchLengthBin(seq.matchLength);
        ++ll_freqs[ll_bins[i].code];
        ++of_freqs[of_bins[i].code];
        ++ml_freqs[ml_bins[i].code];
    }

    const bool dynamic = count >= kDynamicTableThreshold;
    out.push_back(dynamic ? static_cast<u8>(
                                static_cast<u8>(TableMode::dynamic) |
                                (static_cast<u8>(TableMode::dynamic) << 2) |
                                (static_cast<u8>(TableMode::dynamic) << 4))
                          : 0);
    if (dynamic_out)
        *dynamic_out = dynamic;

    // Predefined tables come from the process-wide cache; dynamic ones
    // are normalized, transmitted and built for this section.
    std::array<const fse::EncodeTable *, 3> tables = {
        &predefinedEncodeTable(kLL), &predefinedEncodeTable(kOF),
        &predefinedEncodeTable(kML)};
    const auto transmit = [&](CodeStream which,
                              std::span<const u64> freqs) -> Status {
        fse::NormalizedCounts &norm = scratch.counts[which];
        CDPU_RETURN_IF_ERROR(fse::normalizeCounts(
            freqs, fse::suggestTableLog(freqs, count), norm));
        fse::serializeCounts(norm, out);
        fse::EncodeTable &table = scratch.encodeTables[which];
        CDPU_RETURN_IF_ERROR(fse::buildEncodeTable(norm, table));
        tables[which] = &table;
        return Status::okStatus();
    };
    if (dynamic) {
        CDPU_RETURN_IF_ERROR(transmit(kLL, ll_freqs));
        CDPU_RETURN_IF_ERROR(transmit(kOF, of_freqs));
        CDPU_RETURN_IF_ERROR(transmit(kML, ml_freqs));
    }

    BitWriter &writer = scratch.stream;
    writer.clear();
    fse::Encoder ll_enc(*tables[kLL]);
    fse::Encoder of_enc(*tables[kOF]);
    fse::Encoder ml_enc(*tables[kML]);
    for (std::size_t i = count; i-- > 0;) {
        const auto &seq = sequences[i];
        writer.put(seq.literalLength - ll_bins[i].baseline,
                   ll_bins[i].extraBits);
        writer.put(seq.matchLength - ml_bins[i].baseline,
                   ml_bins[i].extraBits);
        writer.put(seq.offset - of_bins[i].baseline, of_bins[i].extraBits);
        of_enc.encode(of_bins[i].code, writer);
        ml_enc.encode(ml_bins[i].code, writer);
        ll_enc.encode(ll_bins[i].code, writer);
    }
    ll_enc.flushState(writer);
    ml_enc.flushState(writer);
    of_enc.flushState(writer);
    const ByteSpan stream = writer.terminate();

    putVarint(out, stream.size());
    out.insert(out.end(), stream.begin(), stream.end());
    if (stream_bytes_out)
        *stream_bytes_out = stream.size();
    return Status::okStatus();
}

void
buildSeqTable(const fse::NormalizedCounts &norm, CodeStream which,
              SeqTable &table)
{
    const std::size_t size = std::size_t{1} << norm.tableLog;
    // Left uninitialized: the spread writes every one of the first
    // `size` slots, and no other slot is read.
    std::array<u8, std::size_t{1} << fse::kMaxTableLog> spread;
    fse::spreadSymbols(norm, spread.data());

    // Per symbol: its code's binning, and the sub-state x of its next
    // occurrence, counting up from count[s] as in fse::buildDecodeTable.
    constexpr std::size_t kMaxCodes =
        std::max({kNumLLCodes, kNumOFCodes, kNumMLCodes});
    std::array<CodeBin, kMaxCodes> bins{};
    std::array<u32, kMaxCodes> next{};
    for (std::size_t sym = 0; sym < norm.counts.size(); ++sym) {
        const u8 code = static_cast<u8>(sym);
        bins[sym] = which == kLL   ? literalLengthFromCode(code).value()
                    : which == kOF ? offsetFromCode(code).value()
                                   : matchLengthFromCode(code).value();
        next[sym] = norm.counts[sym];
    }

    table.tableLog = norm.tableLog;
    table.entries.resize(size);
    for (std::size_t state = 0; state < size; ++state) {
        const u8 sym = spread[state];
        const u32 x = next[sym]++;
        const u8 nb_bits = static_cast<u8>(norm.tableLog - floorLog2(x));
        table.entries[state] = {
            bins[sym].baseline, bins[sym].extraBits, nb_bits,
            static_cast<u16>((x << nb_bits) - size)};
    }
}

const fse::NormalizedCounts &
SectionHeader::norm(CodeStream which) const
{
    return dynamic[which] ? counts[which] : predefinedCounts(which);
}

Status
readSectionHeader(ByteSpan data, std::size_t &pos,
                  std::size_t max_sequences, SectionHeader &header)
{
    auto count = getVarint(data, pos);
    if (!count.ok())
        return count.status();
    // Checked before anything is sized from it: a tampered count once
    // forced a 2^30-entry reservation from a handful of bytes.
    if (count.value() > max_sequences)
        return Status::corrupt("sequence count exceeds block bound");
    header.count = count.value();
    header.dynamic = {};
    header.stream = {};
    if (header.count == 0)
        return Status::okStatus();

    if (pos >= data.size())
        return Status::corrupt("sequence modes truncated");
    const u8 modes = data[pos++];
    for (unsigned which : {kLL, kOF, kML}) {
        header.dynamic[which] = ((modes >> (2 * which)) & 3) ==
                                static_cast<u8>(TableMode::dynamic);
        if (!header.dynamic[which])
            continue;
        CDPU_RETURN_IF_ERROR(
            fse::deserializeCounts(data, pos, header.counts[which]));
    }
    // The alphabet bound is what makes every table symbol a valid code,
    // so no decoder range-checks codes per sequence.
    if (header.norm(kLL).alphabetSize() > kNumLLCodes ||
        header.norm(kOF).alphabetSize() > kNumOFCodes ||
        header.norm(kML).alphabetSize() > kNumMLCodes) {
        return Status::corrupt("sequence table alphabet too large");
    }

    auto stream_bytes = getVarint(data, pos);
    if (!stream_bytes.ok())
        return stream_bytes.status();
    if (pos + stream_bytes.value() > data.size())
        return Status::corrupt("sequence stream truncated");
    header.stream = data.subspan(pos, stream_bytes.value());
    pos += stream_bytes.value();
    return Status::okStatus();
}

namespace
{

/** The section's table for @p which: the process-wide predefined one,
 *  or one rebuilt in @p scratch from the transmitted counts. */
const SeqTable &
seqTableFor(const SectionHeader &header, CodeStream which,
            SeqTable &scratch)
{
    static const std::array<SeqTable, 3> predefined = [] {
        std::array<SeqTable, 3> tables;
        for (CodeStream which : {kLL, kOF, kML})
            buildSeqTable(predefinedCounts(which), which, tables[which]);
        return tables;
    }();
    if (!header.dynamic[which])
        return predefined[which];
    buildSeqTable(header.counts[which], which, scratch);
    return scratch;
}

/**
 * The decode loop of executeSequencesSection(), after the header.
 * Instantiated twice so the untraced loop carries no trace test:
 * with @p kTraced it appends each sequence to @p sequences.
 */
template <bool kTraced>
Status
executeSequences(const SectionHeader &header, ByteSpan literals,
                 u64 window_size, std::size_t block_end, Bytes &out,
                 std::size_t &op, std::array<SeqTable, 3> &tables,
                 std::vector<lz77::Sequence> *sequences)
{
    u8 *const dst = out.data();
    const u8 *const dst_end = dst + out.size();
    const u8 *lit = literals.data();
    std::size_t lit_left = literals.size();
    if (header.count != 0) {
        const SeqTable &ll = seqTableFor(header, kLL, tables[kLL]);
        const SeqTable &of = seqTableFor(header, kOF, tables[kOF]);
        const SeqTable &ml = seqTableFor(header, kML, tables[kML]);
        // Locals, not members: stores through dst may alias anything.
        const SeqSymbol *const ll_entries = ll.entries.data();
        const SeqSymbol *const of_entries = of.entries.data();
        const SeqSymbol *const ml_entries = ml.entries.data();

        // The BackwardBitReader contract: the stream ends in a byte
        // whose top set bit terminates it; bits below are the payload,
        // read from the end. `bits` counts those still unread.
        const ByteSpan stream = header.stream;
        if (stream.empty())
            return Status::corrupt("empty backward bit stream");
        if (stream.back() == 0)
            return Status::corrupt("missing bit stream terminator");
        u64 bits = u64{stream.size() - 1} * 8 + floorLog2(stream.back());
        const auto bits_at = [&](u64 at, unsigned n) {
            return static_cast<u32>(
                bitWindow(stream.data(), stream.size(), at) &
                ((u64{1} << n) - 1));
        };

        if (u64{of.tableLog} + ml.tableLog + ll.tableLog > bits)
            return Status::corrupt("backward bit stream underflow");
        bits -= of.tableLog;
        u32 of_state = bits_at(bits, of.tableLog);
        bits -= ml.tableLog;
        u32 ml_state = bits_at(bits, ml.tableLog);
        bits -= ll.tableLog;
        u32 ll_state = bits_at(bits, ll.tableLog);

        for (std::size_t i = 0; i < header.count; ++i) {
            const SeqSymbol &l = ll_entries[ll_state];
            const SeqSymbol &m = ml_entries[ml_state];
            const SeqSymbol &o = of_entries[of_state];
            // Every bit this sequence reads is known from its three
            // states, so one budget check covers all six reads, and one
            // load serves them whenever they fit a window.
            const unsigned need = l.nbBits + m.nbBits + o.nbBits +
                                  l.extraBits + m.extraBits + o.extraBits;
            if (need > bits)
                return Status::corrupt("backward bit stream underflow");
            bits -= need;
            const u64 window =
                need <= 56 ? bitWindow(stream.data(), stream.size(), bits)
                           : 0;
            unsigned rem = need;
            // Reads come off the top, in the encoder's reverse order.
            const auto take = [&](unsigned n) {
                rem -= n;
                if (need > 56)
                    return bits_at(bits + rem, n);
                return static_cast<u32>((window >> rem) &
                                        ((u64{1} << n) - 1));
            };
            ll_state = l.nextStateBase + take(l.nbBits);
            ml_state = m.nextStateBase + take(m.nbBits);
            of_state = o.nextStateBase + take(o.nbBits);
            const u32 offset = o.baseline + take(o.extraBits);
            const u32 match_len = m.baseline + take(m.extraBits);
            const u32 lit_len = l.baseline + take(l.extraBits);
            if constexpr (kTraced)
                sequences->push_back({lit_len, match_len, offset});

            if (lit_len > lit_left)
                return Status::corrupt("sequence literal budget exceeded");
            if (lit_len + match_len > block_end - op)
                return Status::corrupt("block regenerated size mismatch");
            // Short runs copy a fixed 16 bytes when the literal buffer
            // has them: the surplus lands inside this block's range or
            // its slop, ahead of the cursor, and is overwritten.
            if (lit_len <= 16 && lit_left >= 16)
                std::memcpy(dst + op, lit, 16);
            else if (lit_len != 0)
                std::memcpy(dst + op, lit, lit_len);
            op += lit_len;
            lit += lit_len;
            lit_left -= lit_len;

            if (offset > op)
                return Status::corrupt("match offset exceeds history");
            if (offset > window_size)
                return Status::corrupt("match offset exceeds window");
            if (offset >= 8)
                mem::wildCopy(dst + op, dst + op - offset, match_len,
                              dst_end);
            else
                mem::incrementalCopy(dst + op, offset, match_len);
            op += match_len;
        }
        if (bits != 0)
            return Status::corrupt("sequence stream has trailing bits");
        if ((ll_state | ml_state | of_state) != 0)
            return Status::corrupt("sequence decoders not at clean end");
    }
    // Remaining literals are the block's tail.
    if (op + lit_left != block_end)
        return Status::corrupt("block regenerated size mismatch");
    if (lit_left != 0)
        std::memcpy(dst + op, lit, lit_left);
    op += lit_left;
    return Status::okStatus();
}

} // namespace

Status
executeSequencesSection(ByteSpan data, std::size_t &pos,
                        ByteSpan literals, u64 window_size,
                        std::size_t block_end, Bytes &out,
                        std::size_t &op, SequencesScratch &scratch,
                        BlockTrace *trace)
{
    SectionHeader &header = scratch.header;
    CDPU_RETURN_IF_ERROR(readSectionHeader(
        data, pos, (block_end - op) / kMinMatchLength + 1, header));
    if (!trace)
        return executeSequences<false>(header, literals, window_size,
                                       block_end, out, op, scratch.tables,
                                       nullptr);
    trace->numSequences = header.count;
    trace->seqStreamBytes = header.stream.size();
    trace->dynamicTables =
        header.dynamic[kLL] || header.dynamic[kOF] || header.dynamic[kML];
    trace->sequences.reserve(header.count);
    return executeSequences<true>(header, literals, window_size, block_end,
                                  out, op, scratch.tables,
                                  &trace->sequences);
}

} // namespace cdpu::zstdlite

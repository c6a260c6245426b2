#include "transform/transform.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <numeric>

#include "common/varint.h"

namespace cdpu::transform
{

namespace
{

/** High nibble of every stage header's tag byte; the low nibble is the
 *  StageId. Distinct from all codec magics so a stage frame handed to
 *  the wrong decoder fails fast. */
constexpr u8 kStageTagBase = 0xA0;

/** Literal runs carry up to this many bytes per control byte. */
constexpr std::size_t kRleMaxLiteral = 128;
/** Repeat runs cover 3..130 bytes per two-byte (control, value) unit. */
constexpr std::size_t kRleMinRepeat = 3;
constexpr std::size_t kRleMaxRepeat = 130;
/** Tightest output-per-encoded-byte ratio: a 2-byte repeat unit can
 *  decode to kRleMaxRepeat bytes, so raw <= body * 65 always. */
constexpr std::size_t kRleMaxDecodePerByte = kRleMaxRepeat / 2;

/** Per-block index overhead: varint(blockLen <= 64Ki) + varint(primary
 *  < blockLen), three bytes each. */
constexpr std::size_t kBwtBlockOverhead = 6;

thread_local StageStats g_stats;

std::size_t
stageIndex(StageId stage)
{
    return static_cast<std::size_t>(stage);
}

/** Accumulates wall time into one StageStats cell on scope exit, so
 *  every early-error return in invert() is still attributed. */
class StageTimer
{
  public:
    explicit StageTimer(u64 &cell)
        : cell_(cell), start_(std::chrono::steady_clock::now())
    {}
    ~StageTimer()
    {
        cell_ += static_cast<u64>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
    }

    StageTimer(const StageTimer &) = delete;
    StageTimer &operator=(const StageTimer &) = delete;

  private:
    u64 &cell_;
    std::chrono::steady_clock::time_point start_;
};

/** Zig-zag maps the mod-256 difference so small magnitudes of either
 *  sign become small byte values (0, -1, 1, -2, ... -> 0, 1, 2, 3). */
u8
zigzag8(u8 diff)
{
    i32 n = static_cast<i8>(diff);
    return static_cast<u8>((static_cast<u32>(n) << 1) ^
                           static_cast<u32>(n >> 31));
}

u8
unzigzag8(u8 coded)
{
    u32 zz = coded;
    i32 n = static_cast<i32>(zz >> 1) ^ -static_cast<i32>(zz & 1);
    return static_cast<u8>(n);
}

void
deltaApply(ByteSpan input, Bytes &out)
{
    u8 prev = 0;
    for (u8 byte : input) {
        out.push_back(zigzag8(static_cast<u8>(byte - prev)));
        prev = byte;
    }
}

void
deltaInvert(ByteSpan body, Bytes &out)
{
    u8 prev = 0;
    for (u8 coded : body) {
        prev = static_cast<u8>(prev + unzigzag8(coded));
        out.push_back(prev);
    }
}

void
rleApply(ByteSpan input, Bytes &out)
{
    const std::size_t n = input.size();
    std::size_t i = 0;
    std::size_t literal_start = 0;
    auto flushLiterals = [&](std::size_t end) {
        std::size_t pos = literal_start;
        while (pos < end) {
            std::size_t len = std::min(end - pos, kRleMaxLiteral);
            out.push_back(static_cast<u8>(len - 1));
            out.insert(out.end(), input.begin() + pos,
                       input.begin() + pos + len);
            pos += len;
        }
    };
    while (i < n) {
        std::size_t run = 1;
        while (i + run < n && input[i + run] == input[i] &&
               run < kRleMaxRepeat) {
            ++run;
        }
        if (run >= kRleMinRepeat) {
            flushLiterals(i);
            out.push_back(static_cast<u8>(
                0x80 | (run - kRleMinRepeat)));
            out.push_back(input[i]);
            i += run;
            literal_start = i;
        } else {
            i += run;
        }
    }
    flushLiterals(n);
}

Status
rleInvert(ByteSpan body, u64 raw_size, Bytes &out)
{
    std::size_t pos = 0;
    while (pos < body.size()) {
        u8 control = body[pos++];
        if (control & 0x80) {
            std::size_t run = (control & 0x7f) + kRleMinRepeat;
            if (pos >= body.size())
                return Status::corrupt(
                    "rle: repeat run missing value byte");
            if (out.size() + run > raw_size)
                return Status::corrupt(
                    "rle: stream overruns claimed raw size");
            out.insert(out.end(), run, body[pos++]);
        } else {
            std::size_t len = static_cast<std::size_t>(control) + 1;
            if (body.size() - pos < len)
                return Status::corrupt(
                    "rle: literal run truncated");
            if (out.size() + len > raw_size)
                return Status::corrupt(
                    "rle: stream overruns claimed raw size");
            out.insert(out.end(), body.begin() + pos,
                       body.begin() + pos + len);
            pos += len;
        }
    }
    if (out.size() != raw_size)
        return Status::corrupt("rle: stream underruns claimed raw size");
    return Status::okStatus();
}

void
mtfApply(ByteSpan input, Bytes &out)
{
    // rank[b] is byte b's place in the move-to-front list, so a byte's
    // index is one load. Moving it to the front bumps every byte ranked
    // below it: one branch-free 256-byte pass that vectorizes.
    std::array<u8, 256> rank;
    std::iota(rank.begin(), rank.end(), 0);
    const std::size_t base = out.size();
    out.resize(base + input.size());
    u8 *dst = out.data() + base;
    for (std::size_t i = 0; i < input.size(); ++i) {
        const u8 byte = input[i];
        const u8 index = rank[byte];
        dst[i] = index;
        if (index == 0)
            continue;
        for (u8 &r : rank)
            r += r < index;
        rank[byte] = 0;
    }
}

void
mtfInvert(ByteSpan body, Bytes &out)
{
    // The list's first eight entries live in a register (byte i of
    // `front` is entry i), so the small indices that dominate BWT
    // output move to front with shifts and masks rather than a memmove
    // whose stores the next lookup would wait on. `table` holds
    // entries 8..255.
    std::array<u8, 256> table;
    std::iota(table.begin(), table.end(), 0);
    u64 front = 0x0706050403020100ull;
    const std::size_t base = out.size();
    out.resize(base + body.size());
    u8 *dst = out.data() + base;
    for (std::size_t i = 0; i < body.size(); ++i) {
        const unsigned index = body[i];
        u8 byte;
        if (index < 8) {
            const unsigned shift = 8 * index;
            byte = static_cast<u8>(front >> shift);
            const u64 below = (u64{1} << shift) - 1; // Entries 0..index-1.
            front = (front & ~(below << 8 | 0xff)) | (front & below) << 8 |
                    byte;
        } else {
            byte = table[index];
            std::memmove(&table[9], &table[8], index - 8);
            table[8] = static_cast<u8>(front >> 56);
            front = front << 8 | byte;
        }
        dst[i] = byte;
    }
}

/**
 * Sorts the cyclic rotations of @p block (prefix-doubling with
 * counting sorts, O(n log n) worst case — periodic inputs are the
 * common case for this stage, so a comparison sort's quadratic tie
 * behaviour is not acceptable) and emits the last column plus the row
 * index of the original string. Tied (identical) rotations land in the
 * order the stable sorts leave them, which fixes the primary index of
 * a periodic block; any change to the sorts must keep that order.
 */
void
bwtForward(ByteSpan block, Bytes &last, u32 &primary)
{
    const std::size_t n = block.size();
    last.resize(n);
    primary = 0;
    if (n == 0)
        return;
    if (n == 1) {
        last[0] = block[0];
        return;
    }
    const u32 n32 = static_cast<u32>(n);
    // p: rotations in sorted order; c: class of each rotation (rank of
    // its distinct h-prefix); ranked[i] == c[p[i]], kept in sorted
    // order so rounds read it sequentially. Positions and classes are
    // below the block size, so 16 bits hold them and halve the cache
    // footprint of the random accesses.
    static_assert(kBwtBlockBytes <= 65536);
    using Index = u16;
    std::vector<Index> p(n), c(n), ranked(n), pn(n), cn(n), tail(n);
    std::vector<u32> cnt(std::max<std::size_t>(n, 256), 0);
    for (std::size_t i = 0; i < n; ++i)
        cnt[block[i]]++;
    for (std::size_t i = 1; i < 256; ++i)
        cnt[i] += cnt[i - 1];
    for (std::size_t i = n; i-- > 0;)
        p[--cnt[block[i]]] = static_cast<Index>(i);
    c[p[0]] = 0;
    u32 classes = 1;
    for (std::size_t i = 1; i < n; ++i) {
        if (block[p[i]] != block[p[i - 1]])
            ++classes;
        c[p[i]] = static_cast<Index>(classes - 1);
        ranked[i] = static_cast<Index>(classes - 1);
    }
    for (u32 h = 1; h < n32 && classes < n32; h <<= 1) {
        // Sort the rotations starting h earlier by their head class,
        // stably, so the order of ranked[] breaks ties by tail class.
        // Shift and count in one pass, parking each head class in cn
        // (free until the reclassify) for the scatter to read in order.
        std::fill_n(cnt.begin(), classes, 0);
        for (std::size_t i = 0; i < n; ++i) {
            u32 q = p[i] - h;
            if (p[i] < h)
                q += n32;
            pn[i] = static_cast<Index>(q);
            cn[i] = c[q];
            ++cnt[cn[i]];
        }
        u32 start = 0;
        for (u32 k = 0; k < classes; ++k) {
            const u32 size = cnt[k];
            cnt[k] = start;
            start += size;
        }
        // Stable scatter (forward, into each class's first free slot);
        // a rotation's tail class is the class of the rotation it was
        // shifted from, ranked[i].
        for (std::size_t i = 0; i < n; ++i) {
            const u32 at = cnt[cn[i]]++;
            p[at] = pn[i];
            tail[at] = ranked[i];
        }
        // New classes: rotations differ when either h-long half does.
        // Head classes come in runs (every class is non-empty), whose
        // ends the scatter left in cnt.
        u32 head = 0;
        u32 head_end = cnt[0];
        u32 next_classes = 1;
        cn[p[0]] = 0;
        ranked[0] = 0;
        for (u32 i = 1; i < n32; ++i) {
            const bool new_head = i == head_end;
            if (new_head)
                head_end = cnt[++head];
            if (new_head || tail[i] != tail[i - 1])
                ++next_classes;
            cn[p[i]] = static_cast<Index>(next_classes - 1);
            ranked[i] = static_cast<Index>(next_classes - 1);
        }
        c.swap(cn);
        classes = next_classes;
    }
    for (std::size_t i = 0; i < n; ++i) {
        last[i] = block[p[i] == 0 ? n - 1 : p[i] - 1];
        if (p[i] == 0)
            primary = static_cast<u32>(i);
    }
}

/** LF-mapping backward reconstruction; appends the block to @p out. */
void
bwtInvertBlock(ByteSpan last, u32 primary, Bytes &out)
{
    const std::size_t n = last.size();
    std::array<u32, 256> freq{};
    for (u8 byte : last)
        freq[byte]++;
    std::array<u32, 256> starts{};
    u32 sum = 0;
    for (std::size_t s = 0; s < 256; ++s) {
        starts[s] = sum;
        sum += freq[s];
    }
    std::vector<u32> lf(n);
    std::array<u32, 256> seen{};
    for (std::size_t i = 0; i < n; ++i)
        lf[i] = starts[last[i]] + seen[last[i]]++;
    const std::size_t base = out.size();
    out.resize(base + n);
    u32 row = primary;
    for (std::size_t k = n; k-- > 0;) {
        out[base + k] = last[row];
        row = lf[row];
    }
}

void
bwtApply(ByteSpan input, Bytes &out)
{
    Bytes last;
    for (std::size_t pos = 0; pos < input.size();
         pos += kBwtBlockBytes) {
        std::size_t len =
            std::min(kBwtBlockBytes, input.size() - pos);
        u32 primary = 0;
        bwtForward(input.subspan(pos, len), last, primary);
        putVarint(out, len);
        putVarint(out, primary);
        out.insert(out.end(), last.begin(), last.end());
    }
}

Status
bwtInvert(ByteSpan body, u64 raw_size, Bytes &out)
{
    std::size_t pos = 0;
    while (pos < body.size()) {
        Result<u64> len = getVarint(body, pos);
        if (!len.ok())
            return Status::corrupt("bwt: block length truncated");
        Result<u64> primary = getVarint(body, pos);
        if (!primary.ok())
            return Status::corrupt("bwt: primary index truncated");
        u64 block_len = len.value();
        if (block_len == 0 || block_len > kBwtBlockBytes)
            return Status::corrupt("bwt: block length out of range");
        if (primary.value() >= block_len)
            return Status::corrupt("bwt: primary index out of range");
        if (body.size() - pos < block_len)
            return Status::corrupt("bwt: last column truncated");
        if (out.size() + block_len > raw_size)
            return Status::corrupt(
                "bwt: blocks overrun claimed raw size");
        bwtInvertBlock(
            body.subspan(pos, static_cast<std::size_t>(block_len)),
            static_cast<u32>(primary.value()), out);
        pos += static_cast<std::size_t>(block_len);
    }
    if (out.size() != raw_size)
        return Status::corrupt("bwt: blocks underrun claimed raw size");
    return Status::okStatus();
}

/** Fixed record width of the struct-of-arrays shredder. */
constexpr std::size_t kShredRecordBytes = 8;

void
shredApply(ByteSpan input, Bytes &out)
{
    const std::size_t records = input.size() / kShredRecordBytes;
    for (std::size_t plane = 0; plane < kShredRecordBytes; ++plane)
        for (std::size_t r = 0; r < records; ++r)
            out.push_back(input[r * kShredRecordBytes + plane]);
    out.insert(out.end(),
               input.begin() +
                   static_cast<std::ptrdiff_t>(records *
                                               kShredRecordBytes),
               input.end());
}

void
shredInvert(ByteSpan body, Bytes &out)
{
    const std::size_t records = body.size() / kShredRecordBytes;
    out.resize(body.size());
    for (std::size_t plane = 0; plane < kShredRecordBytes; ++plane)
        for (std::size_t r = 0; r < records; ++r)
            out[r * kShredRecordBytes + plane] =
                body[plane * records + r];
    std::copy(body.begin() +
                  static_cast<std::ptrdiff_t>(records *
                                              kShredRecordBytes),
              body.end(),
              out.begin() +
                  static_cast<std::ptrdiff_t>(records *
                                              kShredRecordBytes));
}

} // namespace

const std::vector<StageId> &
allStages()
{
    static const std::vector<StageId> kStages = {
        StageId::delta, StageId::rle, StageId::mtf, StageId::bwt,
        StageId::shred,
    };
    return kStages;
}

std::string
stageName(StageId stage)
{
    switch (stage) {
      case StageId::delta: return "delta";
      case StageId::rle: return "rle";
      case StageId::mtf: return "mtf";
      case StageId::bwt: return "bwt";
      case StageId::shred: return "shred";
    }
    return "unknown";
}

Result<StageId>
stageFromName(const std::string &name)
{
    for (StageId stage : allStages()) {
        if (stageName(stage) == name)
            return stage;
    }
    return Status::invalid("unknown transform stage \"" + name + "\"");
}

StageExpansion
stageExpansion(StageId stage)
{
    // Body bounds plus the worst-case framed header (tag byte + up to
    // a 10-byte varint raw size) folded into slop, so a pipeline's
    // multiplied caps bound covers the full stage frame.
    switch (stage) {
      case StageId::delta:
      case StageId::mtf:
      case StageId::shred: return {1, 1, 11};
      case StageId::rle: return {129, 128, 12};
      case StageId::bwt:
        return {kBwtBlockBytes + kBwtBlockOverhead, kBwtBlockBytes,
                kBwtBlockOverhead + 11};
    }
    return {1, 1, 11};
}

std::size_t
maxEncodedSize(StageId stage, std::size_t raw_size)
{
    std::size_t header = 1 + varintSize(raw_size);
    switch (stage) {
      case StageId::delta:
      case StageId::mtf:
      case StageId::shred: return header + raw_size;
      case StageId::rle:
        return header + raw_size + raw_size / kRleMaxLiteral + 1;
      case StageId::bwt: {
        std::size_t blocks =
            (raw_size + kBwtBlockBytes - 1) / kBwtBlockBytes;
        return header + raw_size + blocks * kBwtBlockOverhead;
      }
    }
    return header + raw_size;
}

Status
apply(StageId stage, ByteSpan input, Bytes &out)
{
    StageTimer timer(g_stats.applyNs[stageIndex(stage)]);
    g_stats.applyBytes[stageIndex(stage)] += input.size();
    out.clear();
    out.reserve(maxEncodedSize(stage, input.size()));
    out.push_back(static_cast<u8>(kStageTagBase |
                                  static_cast<u8>(stage)));
    putVarint(out, input.size());
    switch (stage) {
      case StageId::delta: deltaApply(input, out); break;
      case StageId::rle: rleApply(input, out); break;
      case StageId::mtf: mtfApply(input, out); break;
      case StageId::bwt: bwtApply(input, out); break;
      case StageId::shred: shredApply(input, out); break;
    }
    return Status::okStatus();
}

Status
invert(StageId stage, ByteSpan input, Bytes &out)
{
    StageTimer timer(g_stats.invertNs[stageIndex(stage)]);
    out.clear();
    if (input.empty())
        return Status::corrupt("transform: empty stage frame");
    u8 expected = static_cast<u8>(kStageTagBase |
                                  static_cast<u8>(stage));
    if (input[0] != expected)
        return Status::corrupt(
            "transform: stage tag mismatch (want " +
            stageName(stage) + ")");
    std::size_t pos = 1;
    Result<u64> raw = getVarint(input, pos);
    if (!raw.ok())
        return Status::corrupt("transform: raw size truncated");
    u64 raw_size = raw.value();
    ByteSpan body = input.subspan(pos);
    // Allocation guard: reject any claimed size the body cannot
    // plausibly decode to before reserving a byte.
    switch (stage) {
      case StageId::delta:
      case StageId::mtf:
      case StageId::shred:
        if (raw_size != body.size())
            return Status::corrupt(
                "transform: body size does not match claimed raw "
                "size");
        break;
      case StageId::rle:
        if (raw_size >
            static_cast<u64>(body.size()) * kRleMaxDecodePerByte)
            return Status::corrupt(
                "rle: claimed raw size exceeds decode bound");
        break;
      case StageId::bwt:
        if (raw_size > body.size())
            return Status::corrupt(
                "bwt: claimed raw size exceeds body size");
        break;
    }
    out.reserve(static_cast<std::size_t>(raw_size));
    Status status;
    switch (stage) {
      case StageId::delta: deltaInvert(body, out); break;
      case StageId::rle: status = rleInvert(body, raw_size, out); break;
      case StageId::mtf: mtfInvert(body, out); break;
      case StageId::bwt: status = bwtInvert(body, raw_size, out); break;
      case StageId::shred: shredInvert(body, out); break;
    }
    if (status.ok())
        g_stats.invertBytes[stageIndex(stage)] += out.size();
    else
        out.clear();
    return status;
}

StageStats
StageStats::diff(const StageStats &before) const
{
    StageStats delta;
    for (std::size_t i = 0; i < kNumStages; ++i) {
        delta.applyNs[i] = applyNs[i] - before.applyNs[i];
        delta.applyBytes[i] = applyBytes[i] - before.applyBytes[i];
        delta.invertNs[i] = invertNs[i] - before.invertNs[i];
        delta.invertBytes[i] = invertBytes[i] - before.invertBytes[i];
    }
    return delta;
}

const StageStats &
stageStats()
{
    return g_stats;
}

} // namespace cdpu::transform

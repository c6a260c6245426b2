#include "huffman/code_builder.h"

#include <algorithm>
#include <array>

namespace cdpu::huffman
{

void
packLengths(const std::vector<u8> &lengths, std::size_t count, Bytes &out)
{
    for (std::size_t i = 0; i < count; i += 2) {
        u8 lo = i < lengths.size() ? lengths[i] : 0;
        u8 hi = i + 1 < lengths.size() ? lengths[i + 1] : 0;
        out.push_back(static_cast<u8>(lo | (hi << 4)));
    }
}

void
unpackLengths(ByteSpan packed, std::size_t count, std::vector<u8> &lengths)
{
    lengths.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
        u8 byte = packed[i / 2];
        lengths[i] = (i % 2) ? (byte >> 4) : (byte & 0x0f);
    }
}

namespace
{

/** Every byte with its bits in reverse order. */
constexpr std::array<u8, 256> kReversedBytes = [] {
    std::array<u8, 256> table{};
    for (unsigned byte = 0; byte < 256; ++byte)
        for (unsigned bit = 0; bit < 8; ++bit)
            if (byte & (1u << bit))
                table[byte] |= static_cast<u8>(0x80u >> bit);
    return table;
}();

} // namespace

u16
reverseBits(u16 v, unsigned nbits)
{
    // Reverse all 16 bits, then drop the ones that came from above the
    // low nbits.
    const u32 reversed = (u32{kReversedBytes[v & 0xff]} << 8) |
                         kReversedBytes[v >> 8];
    return static_cast<u16>(reversed >> (16 - nbits));
}

namespace
{

/** Symbol bits of a packed (weight << kSymbolBits) | symbol key. */
constexpr unsigned kSymbolBits = 9;
static_assert(kMaxSymbols == std::size_t{1} << kSymbolBits);

/**
 * Computes raw (unlimited) Huffman code lengths of @p freqs into
 * @p lengths with the two-queue merge. Leaves are numbered in symbol
 * order and queue sorted by (weight, node number); internal nodes are
 * numbered after every leaf and queue in creation order, where merged
 * weights never decrease. The smaller (weight, node number) of the two
 * heads is therefore exactly what a min-heap over every live node
 * would pop, so the tree, and every length, is the heap construction's.
 * @pre 1 to kMaxSymbols symbols occur, each fewer than 2^55 times.
 */
void
rawLengths(std::span<const u64> freqs, std::vector<u8> &lengths)
{
    // Leaf numbers follow symbol order, so sorting the packed
    // (weight, symbol) keys with one integer compare is (weight, node
    // number) order.
    std::array<u64, kMaxSymbols> leaves;
    std::size_t count = 0;
    for (std::size_t sym = 0; sym < freqs.size(); ++sym)
        if (freqs[sym] != 0)
            leaves[count++] = (freqs[sym] << kSymbolBits) | sym;

    lengths.assign(freqs.size(), 0);
    const auto symbol_of = [&](std::size_t leaf) {
        return leaves[leaf] & (kMaxSymbols - 1);
    };
    if (count == 1) {
        // Degenerate single-symbol alphabet: one 1-bit code.
        lengths[symbol_of(0)] = 1;
        return;
    }
    std::sort(leaves.begin(), leaves.begin() + count);

    // Slots [0, count) are the sorted leaves, [count, 2 * count - 1)
    // the internal nodes in creation order; the root comes last.
    std::array<u64, 2 * kMaxSymbols> weight;
    std::array<u32, 2 * kMaxSymbols> parent;
    std::array<u8, 2 * kMaxSymbols> depth;
    const std::size_t nodes = 2 * count - 1;
    for (std::size_t i = 0; i < count; ++i)
        weight[i] = leaves[i] >> kSymbolBits;
    std::size_t next_leaf = 0;
    std::size_t next_internal = count;
    for (std::size_t created = count; created < nodes; ++created) {
        // At equal weights the leaf goes first: every leaf's node
        // number is below every internal node's.
        const auto pop = [&]() -> std::size_t {
            if (next_leaf < count &&
                (next_internal == created ||
                 weight[next_leaf] <= weight[next_internal]))
                return next_leaf++;
            return next_internal++;
        };
        const std::size_t a = pop();
        const std::size_t b = pop();
        weight[created] = weight[a] + weight[b];
        parent[a] = static_cast<u32>(created);
        parent[b] = static_cast<u32>(created);
    }

    // Depth of each leaf = code length. Parents sit above their
    // children, so walk down from the root.
    depth[nodes - 1] = 0;
    for (std::size_t i = nodes - 1; i-- > 0;)
        depth[i] = static_cast<u8>(depth[parent[i]] + 1);
    for (std::size_t i = 0; i < count; ++i)
        lengths[symbol_of(i)] = depth[i];
}

} // namespace

void
limitLengths(std::vector<u8> &lengths, unsigned max_bits)
{
    u64 kraft = 0; // scaled by 2^max_bits
    for (u8 &len : lengths) {
        if (len == 0)
            continue;
        if (len > max_bits)
            len = static_cast<u8>(max_bits);
        kraft += 1ull << (max_bits - len);
    }
    const u64 budget = 1ull << max_bits;
    // Overfull: lengthen the shortest over-cheap codes until it fits.
    // Deterministic scan keeps the table reproducible.
    while (kraft > budget) {
        // Find the symbol with the largest length < max_bits (cheapest
        // ratio loss per unit of Kraft mass released).
        std::size_t best = lengths.size();
        for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
            if (lengths[sym] == 0 || lengths[sym] >= max_bits)
                continue;
            if (best == lengths.size() || lengths[sym] > lengths[best])
                best = sym;
        }
        // Guaranteed to exist while overfull (all-at-max fits by
        // construction for alphabets <= 2^max_bits).
        kraft -= 1ull << (max_bits - lengths[best] - 1);
        ++lengths[best];
    }
    // The loop can overshoot below the budget when only short codes
    // remain below max_bits; shorten codes to restore completeness.
    while (kraft < budget) {
        u64 deficit = budget - kraft;
        // Decrementing length l adds 2^(max_bits - l); pick the symbol
        // giving the largest addition that still fits the deficit.
        std::size_t best = lengths.size();
        for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
            if (lengths[sym] <= 1)
                continue;
            u64 addition = 1ull << (max_bits - lengths[sym]);
            if (addition > deficit)
                continue;
            if (best == lengths.size() || lengths[sym] < lengths[best])
                best = sym;
        }
        // A max-length symbol always adds exactly 1 <= deficit, so this
        // terminates; `best` can only be missing for degenerate
        // single-symbol tables, which are complete by convention.
        if (best == lengths.size())
            break;
        kraft += 1ull << (max_bits - lengths[best]);
        --lengths[best];
    }
}

Status
buildCodeTable(std::span<const u64> freqs, unsigned max_bits,
               CodeTable &table)
{
    if (max_bits < 1 || max_bits > 15)
        return Status::invalid("huffman max_bits out of range");
    if (freqs.size() > kMaxSymbols)
        return Status::invalid("huffman alphabet exceeds kMaxSymbols");
    std::size_t used = 0;
    for (u64 f : freqs) {
        if (f >> (64 - kSymbolBits))
            return Status::invalid("huffman weight too large");
        used += f != 0;
    }
    if (used == 0)
        return Status::invalid("huffman alphabet is empty");
    if (used > (1ull << max_bits))
        return Status::invalid("alphabet too large for max_bits");

    rawLengths(freqs, table.lengths);
    limitLengths(table.lengths, max_bits);
    return codesFromLengths(table);
}

Result<CodeTable>
buildCodeTable(const std::vector<u64> &freqs, unsigned max_bits)
{
    CodeTable table;
    CDPU_RETURN_IF_ERROR(buildCodeTable(freqs, max_bits, table));
    return table;
}

Status
codesFromLengths(CodeTable &table)
{
    const std::vector<u8> &lengths = table.lengths;
    table.codes.assign(lengths.size(), 0);

    unsigned max_bits = 0;
    for (u8 len : lengths)
        max_bits = std::max<unsigned>(max_bits, len);
    if (max_bits == 0)
        return Status::corrupt("no huffman code lengths");
    if (max_bits > 15)
        return Status::corrupt("huffman length exceeds 15");
    table.maxBits = max_bits;

    // Canonical assignment: count lengths, derive first code per length.
    // Every length is at most 15 (checked above).
    std::array<u32, 16> bl_count{};
    for (u8 len : lengths)
        if (len)
            ++bl_count[len];

    std::array<u32, 16> next_code{};
    u32 code = 0;
    u64 kraft = 0;
    for (unsigned bits = 1; bits <= max_bits; ++bits) {
        code = (code + bl_count[bits - 1]) << 1;
        next_code[bits] = code;
        kraft += static_cast<u64>(bl_count[bits]) << (max_bits - bits);
    }
    // A single-symbol table (one 1-bit code) is deliberately incomplete;
    // everything else must satisfy Kraft with equality.
    const bool degenerate = bl_count[1] == 1 && kraft == (1ull << max_bits) / 2;
    if (!degenerate && kraft != (1ull << max_bits))
        return Status::corrupt("huffman lengths not a complete code");

    for (std::size_t sym = 0; sym < lengths.size(); ++sym) {
        if (lengths[sym] == 0)
            continue;
        u16 canonical = static_cast<u16>(next_code[lengths[sym]]++);
        table.codes[sym] = reverseBits(canonical, lengths[sym]);
    }
    return Status::okStatus();
}

Result<CodeTable>
codesFromLengths(const std::vector<u8> &lengths)
{
    CodeTable table;
    table.lengths = lengths;
    CDPU_RETURN_IF_ERROR(codesFromLengths(table));
    return table;
}

} // namespace cdpu::huffman

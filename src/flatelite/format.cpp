#include "flatelite/format.h"

#include <algorithm>

#include "common/varint.h"

namespace cdpu::flatelite
{

namespace
{

/** RFC 1951 length codes 257..285: (baseline, extra bits). */
struct Spec
{
    u32 baseline;
    u8 extraBits;
};

constexpr std::array<Spec, 29> kLengthSpecs = {{
    {3, 0},   {4, 0},   {5, 0},   {6, 0},   {7, 0},   {8, 0},
    {9, 0},   {10, 0},  {11, 1},  {13, 1},  {15, 1},  {17, 1},
    {19, 2},  {23, 2},  {27, 2},  {31, 2},  {35, 3},  {43, 3},
    {51, 3},  {59, 3},  {67, 4},  {83, 4},  {99, 4},  {115, 4},
    {131, 5}, {163, 5}, {195, 5}, {227, 5}, {258, 0},
}};

/** RFC 1951 distance codes 0..29: (baseline, extra bits). */
constexpr std::array<Spec, 30> kDistanceSpecs = {{
    {1, 0},     {2, 0},     {3, 0},     {4, 0},     {5, 1},
    {7, 1},     {9, 2},     {13, 2},    {17, 3},    {25, 3},
    {33, 4},    {49, 4},    {65, 5},    {97, 5},    {129, 6},
    {193, 6},   {257, 7},   {385, 7},   {513, 8},   {769, 8},
    {1025, 9},  {1537, 9},  {2049, 10}, {3073, 10}, {4097, 11},
    {6145, 11}, {8193, 12}, {12289, 12}, {16385, 13}, {24577, 13},
}};

/**
 * zlib's _length_code: entry length - 3 (lengths 3..258) holds the
 * index of that length's code in kLengthSpecs. Length 258 takes code
 * 285 even though code 284's extra bits could reach it.
 */
constexpr std::array<u8, 256> kLengthCode = [] {
    std::array<u8, 256> table{};
    for (std::size_t i = 0; i + 1 < kLengthSpecs.size(); ++i) {
        for (u32 len = kLengthSpecs[i].baseline;
             len < kLengthSpecs[i].baseline +
                       (1u << kLengthSpecs[i].extraBits) &&
             len < kMaxMatchLength;
             ++len)
            table[len - 3] = static_cast<u8>(i);
    }
    table[kMaxMatchLength - 3] = kLengthSpecs.size() - 1; // code 285
    return table;
}();

/**
 * zlib's _dist_code: with d = distance - 1, entry d (d < 256) or
 * 256 + (d >> 7) (d < 32768) holds the distance code. Codes from 16 up
 * span multiples of 128, so the coarse half loses nothing.
 */
constexpr std::array<u8, 512> kDistanceCode = [] {
    std::array<u8, 512> table{};
    for (std::size_t code = 0; code < kDistanceSpecs.size(); ++code) {
        const u32 first = kDistanceSpecs[code].baseline - 1;
        const u32 end = first + (1u << kDistanceSpecs[code].extraBits);
        for (u32 d = first; d < end; ++d)
            table[d < 256 ? d : 256 + (d >> 7)] = static_cast<u8>(code);
    }
    return table;
}();

} // namespace

FlateBin
lengthBin(u32 length)
{
    // Lengths outside 3..258 saturate: below to code 257, above to 285.
    const u8 index =
        kLengthCode[std::clamp(length, 3u, kMaxMatchLength) - 3];
    return {static_cast<u16>(257 + index), kLengthSpecs[index].extraBits,
            kLengthSpecs[index].baseline};
}

FlateBin
distanceBin(u32 distance)
{
    // Distances outside 1..32768 saturate to codes 0 and 29.
    const u32 d = std::clamp(distance, 1u, 32768u) - 1;
    const u8 code = kDistanceCode[d < 256 ? d : 256 + (d >> 7)];
    return {code, kDistanceSpecs[code].extraBits,
            kDistanceSpecs[code].baseline};
}

Result<FlateBin>
lengthFromCode(u16 code)
{
    if (code < 257 || code > 285)
        return Status::corrupt("length code out of range");
    const Spec &spec = kLengthSpecs[code - 257];
    return FlateBin{code, spec.extraBits, spec.baseline};
}

Result<FlateBin>
distanceFromCode(u16 code)
{
    if (code >= kDistanceAlphabet)
        return Status::corrupt("distance code out of range");
    const Spec &spec = kDistanceSpecs[code];
    return FlateBin{code, spec.extraBits, spec.baseline};
}

void
writeFrameHeader(const FrameHeader &header, Bytes &out)
{
    out.insert(out.end(), kMagic.begin(), kMagic.end());
    out.push_back(static_cast<u8>(header.windowLog));
    putVarint(out, header.contentSize);
}

Result<FrameHeader>
readFrameHeader(ByteSpan data, std::size_t &pos)
{
    if (data.size() < pos + kMagic.size() + 1)
        return Status::corrupt("flate frame header truncated");
    for (u8 expected : kMagic) {
        if (data[pos++] != expected)
            return Status::corrupt("bad flate magic");
    }
    FrameHeader header;
    header.windowLog = data[pos++];
    if (header.windowLog < kMinWindowLog ||
        header.windowLog > kMaxWindowLog) {
        return Status::corrupt("flate window log out of range");
    }
    auto size = getVarint(data, pos);
    if (!size.ok())
        return size.status();
    header.contentSize = size.value();
    return header;
}

} // namespace cdpu::flatelite

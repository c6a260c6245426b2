#include "harden/injector.h"

#include <algorithm>

#include "codec/registry.h"
#include "common/rng.h"
#include "container/container.h"
#include "flatelite/format.h"
#include "gipfeli/gipfeli.h"
#include "serve/wire.h"
#include "snappy/framing.h"
#include "zstdlite/format.h"

namespace cdpu::harden
{

const std::vector<MutationClass> &
allMutationClasses()
{
    static const std::vector<MutationClass> kAll = {
        MutationClass::bitFlip,       MutationClass::truncate,
        MutationClass::lengthTamper,  MutationClass::crcTamper,
        MutationClass::chunkTypeSwap, MutationClass::splice,
        MutationClass::stageHeaderTamper,
    };
    return kAll;
}

std::string
mutationClassName(MutationClass cls)
{
    switch (cls) {
      case MutationClass::bitFlip: return "bit_flip";
      case MutationClass::truncate: return "truncate";
      case MutationClass::lengthTamper: return "length_tamper";
      case MutationClass::crcTamper: return "crc_tamper";
      case MutationClass::chunkTypeSwap: return "chunk_type_swap";
      case MutationClass::splice: return "splice";
      case MutationClass::stageHeaderTamper:
        return "stage_header_tamper";
    }
    return "unknown";
}

u64
mutationSeed(const MutationSpec &spec)
{
    // SplitMix64-style finalizer over the packed triple, so adjacent
    // seeds (the driver uses seedBase + i) land far apart in Rng space.
    u64 x = spec.seed;
    x ^= ((static_cast<u64>(spec.codec) & 0xff) << 56) |
         (static_cast<u64>(spec.cls) << 48);
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::string
describeSpec(const MutationSpec &spec)
{
    return "codec=" + codec::codecName(spec.codec) +
           " class=" + mutationClassName(spec.cls) +
           " seed=" + std::to_string(spec.seed);
}

namespace
{

/** Snappy chunk types across the framing spec's ranges: data,
 *  reserved-unskippable, skippable, padding, stream identifier. */
constexpr u8 kSnappyChunkTypes[] = {0x00, 0x01, 0x02, 0x7f,
                                    0x80, 0xfe, 0xff};
/** CDPC version, codec-id and flags values. */
constexpr u8 kContainerDiscriminators[] = {0x00, 0x01, 0x02,
                                           0x03, 0x7f, 0xff};
/** Request version and direction values, and 'R', which turns the
 *  request magic into the response's. */
constexpr u8 kWireDiscriminators[] = {0x00, 0x01, 0x02, 'R', 0x7f, 0xff};

/** Reads the varint at @p pos and advances past it; false when the
 *  frame ends mid-varint or the encoding runs past 10 bytes. */
bool
readVarint(ByteSpan frame, std::size_t &pos, u64 &value)
{
    value = 0;
    for (unsigned n = 0; n < 10 && pos < frame.size(); ++n) {
        const u8 byte = frame[pos++];
        value |= static_cast<u64>(byte & 0x7f) << (7 * n);
        if (!(byte & 0x80))
            return true;
    }
    return false;
}

/** readVarint that records the varint as a length field and its end
 *  as a boundary. */
bool
lengthVarint(ByteSpan frame, std::size_t &pos, u64 &value, FieldMap &map)
{
    const std::size_t start = pos;
    if (!readVarint(frame, pos, value))
        return false;
    map.lengths.push_back({start, pos - start});
    map.boundaries.push_back(pos);
    return true;
}

/** Snappy raw: preamble length varint | element stream. */
void
walkSnappyRaw(ByteSpan frame, FieldMap &map)
{
    std::size_t pos = 0;
    u64 length = 0;
    (void)lengthVarint(frame, pos, length, map);
}

/** Snappy framed stream: per chunk a type byte, a 24-bit length and a
 *  body; data chunks open their body with a masked CRC-32C. */
void
walkSnappyStream(ByteSpan frame, FieldMap &map)
{
    map.discriminatorValues = kSnappyChunkTypes;
    std::size_t pos = 0;
    while (pos + 4 <= frame.size()) {
        map.boundaries.push_back(pos);
        map.discriminators.push_back(pos);
        map.lengths.push_back({pos + 1, 3});
        const u8 type = frame[pos];
        const std::size_t length =
            frame[pos + 1] |
            (static_cast<std::size_t>(frame[pos + 2]) << 8) |
            (static_cast<std::size_t>(frame[pos + 3]) << 16);
        const std::size_t body = pos + 4;
        if (length > frame.size() - body)
            break;
        map.boundaries.push_back(body);
        if ((type == static_cast<u8>(snappy::ChunkType::compressedData) ||
             type ==
                 static_cast<u8>(snappy::ChunkType::uncompressedData)) &&
            length >= 4) {
            map.checksums.push_back({body, 4});
            map.boundaries.push_back(body + 4);
        }
        pos = body + length;
    }
}

/** The magic | windowLog | contentSize header, then the block skeleton
 *  zstdlite and flatelite share: a u8 header (bit 0 last, bits 1-2
 *  type) and a regenSize varint ahead of a type-dependent body. Only
 *  zstdlite's compressed body (compSize varint) and each codec's raw
 *  and RLE bodies can be skipped without decoding. */
void
walkBlockFrame(ByteSpan frame, std::size_t magic_size, bool zstd_blocks,
               FieldMap &map)
{
    if (frame.size() <= magic_size + 1)
        return;
    map.boundaries.push_back(magic_size);
    map.boundaries.push_back(magic_size + 1);
    std::size_t pos = magic_size + 1;
    u64 content = 0;
    if (!lengthVarint(frame, pos, content, map))
        return;
    bool last = false;
    while (!last && pos < frame.size()) {
        const u8 header = frame[pos++];
        last = header & 1;
        const u8 type = (header >> 1) & 3;
        const std::size_t regen_start = pos;
        u64 regen = 0;
        if (!readVarint(frame, pos, regen))
            return;
        map.boundaries.push_back(regen_start);
        map.boundaries.push_back(pos);
        u64 body = regen;
        if (zstd_blocks && type == 1) {
            body = 1; // RLE.
        } else if (zstd_blocks && type >= 2) {
            if (!readVarint(frame, pos, body))
                return;
            map.boundaries.push_back(pos); // compSize | sections edge.
        } else if (!zstd_blocks && (header & 2)) {
            return; // A flatelite bitstream ends only when decoded.
        }
        if (body > frame.size() - pos)
            return;
        pos += body;
        map.boundaries.push_back(pos);
    }
}

/** gipfeli: magic | contentSize varint | per-call tables and stream. */
void
walkGipfeli(ByteSpan frame, FieldMap &map)
{
    std::size_t pos = gipfeli::kMagic.size();
    if (frame.size() <= pos)
        return;
    map.boundaries.push_back(pos);
    u64 content = 0;
    (void)lengthVarint(frame, pos, content, map);
}

/** The CDPC container (DESIGN.md §14): magic | version | codec | flags
 *  (plus a varint-length spec name behind the pipeline escape), the
 *  varint index (blockCount, totalRegen, then offset, compSize and
 *  regenSize per block), the index CRC, and the data section's block
 *  boundaries. Walks the claimed entry count but stops wherever the
 *  frame runs out. */
void
walkContainer(ByteSpan frame, FieldMap &map)
{
    const std::size_t magic = container::kMagic.size();
    if (frame.size() < magic + 3)
        return;
    for (std::size_t pos = magic; pos <= magic + 3; ++pos)
        map.boundaries.push_back(pos);
    map.discriminators = {magic, magic + 1, magic + 2};
    map.discriminatorValues = kContainerDiscriminators;
    std::size_t pos = magic + 3;
    if (frame[magic + 1] == container::kPipelineCodecByte) {
        // The spec name's length is a boundary but not a lengthTamper
        // target: the index varints are the fields under test.
        u64 spec_len = 0;
        if (!readVarint(frame, pos, spec_len))
            return;
        map.boundaries.push_back(pos);
        if (spec_len > frame.size() - pos)
            return;
        pos += static_cast<std::size_t>(spec_len);
    }
    if (pos >= frame.size())
        return;
    map.boundaries.push_back(pos);
    u64 block_count = 0;
    u64 total = 0;
    if (!lengthVarint(frame, pos, block_count, map) ||
        !lengthVarint(frame, pos, total, map))
        return;
    std::vector<u64> comp_sizes;
    for (u64 i = 0; i < block_count && pos < frame.size(); ++i) {
        u64 offset = 0;
        u64 comp = 0;
        u64 regen = 0;
        if (!lengthVarint(frame, pos, offset, map) ||
            !lengthVarint(frame, pos, comp, map) ||
            !lengthVarint(frame, pos, regen, map))
            return;
        comp_sizes.push_back(comp);
    }
    if (frame.size() - pos < 4)
        return;
    map.checksums.push_back({pos, 4});
    const std::size_t data = pos + 4;
    map.boundaries.push_back(data);
    std::size_t boundary = data;
    for (u64 comp : comp_sizes) {
        if (comp > frame.size() - boundary)
            break;
        boundary += static_cast<std::size_t>(comp);
        map.boundaries.push_back(boundary);
    }
}

/**
 * Completes a walk: sorts the boundaries; for codec frames, adds the
 * varint starting at each interior boundary as a length candidate
 * (block and chunk length fields surface there); falls back to the
 * byte at each boundary as the discriminators when the grammar names
 * none; and aims the header region at the leading bytes when the
 * grammar names none.
 */
FieldMap
finish(ByteSpan frame, FieldMap map, bool varints_at_boundaries)
{
    std::vector<std::size_t> &edges = map.boundaries;
    edges.push_back(0);
    edges.push_back(frame.size());
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end()), edges.end());
    for (std::size_t edge : edges) {
        u64 value = 0;
        std::size_t pos = edge;
        if (varints_at_boundaries && edge > 0 && edge < frame.size() &&
            readVarint(frame, pos, value))
            map.lengths.push_back({edge, pos - edge});
    }
    if (map.discriminators.empty() && !frame.empty()) {
        // Block frames keep their discriminator in the low bits of each
        // unit's first byte; elsewhere the byte after a boundary is the
        // nearest equivalent.
        map.discriminatorValues = {};
        for (std::size_t edge : edges)
            map.discriminators.push_back(
                std::min(edge, frame.size() - 1));
    }
    if (map.header.size == 0)
        map.header = {0, std::min<std::size_t>(frame.size(), 8)};
    return map;
}

/** Unwraps @p frame through @p terminal, damages the staged bytes'
 *  leading stage header (tag byte or claimed raw-size varint) and
 *  re-wraps them into @p out, so the damage survives a clean terminal
 *  decode and must be caught by the stage inverter. False when the
 *  frame does not unwrap or re-wrap. */
bool
tamperStageHeader(ByteSpan frame, const codec::CodecVTable &terminal,
                  Rng &rng, Bytes &out)
{
    codec::Scratch scratch;
    Bytes staged;
    if (!terminal.decompressInto(frame, staged, scratch).ok() ||
        staged.empty())
        return false;
    const std::size_t byte =
        rng.below(std::min<std::size_t>(staged.size(), 4));
    switch (rng.below(3)) {
      case 0: staged[byte] = 0xff; break;
      case 1: staged[byte] = 0x00; break;
      default: staged[byte] ^= static_cast<u8>(1 + rng.below(255)); break;
    }
    const codec::CodecParams params = terminal.caps.clamp(
        terminal.caps.defaultLevel, terminal.caps.defaultWindowLog);
    Bytes rewrapped;
    if (!terminal.compressInto(staged, params, rewrapped, scratch).ok())
        return false;
    out = std::move(rewrapped);
    return true;
}

} // namespace

FieldMap
mapFrame(codec::CodecId id, FrameKind kind, ByteSpan frame)
{
    FieldMap map;
    if (kind == FrameKind::container) {
        // The container grammar is the same for every inner codec;
        // intra-block fields are the inner codec's business and the
        // block-level fuzz legs already cover them.
        walkContainer(frame, map);
        return finish(frame, std::move(map), false);
    }
    // Pipelines wrap staged bytes in their terminal codec's wire
    // format, so the terminal grammar is the one with fields; codecs
    // whose sessions share the buffer format emit buffer frames even
    // under kind stream.
    const codec::CodecCaps &caps = codec::registry(id).caps;
    if (caps.isPipeline)
        map.stagedTerminal =
            &codec::registry(codec::toCodecId(caps.terminal));
    const bool stream =
        kind == FrameKind::stream && !caps.streamingSharesBufferFormat;
    switch (codec::terminalBase(id)) {
      case codec::BaseCodecId::snappy:
        if (stream)
            walkSnappyStream(frame, map);
        else
            walkSnappyRaw(frame, map);
        break;
      case codec::BaseCodecId::zstdlite:
        walkBlockFrame(frame, zstdlite::kMagic.size(), true, map);
        break;
      case codec::BaseCodecId::flatelite:
        walkBlockFrame(frame, flatelite::kMagic.size(), false, map);
        break;
      case codec::BaseCodecId::gipfeli:
        walkGipfeli(frame, map);
        break;
    }
    return finish(frame, std::move(map), true);
}

FieldMap
mapWireRequest(ByteSpan frame)
{
    using serve::RequestField;
    FieldMap map;
    for (std::size_t edge :
         {RequestField::magic, RequestField::version,
          RequestField::direction, RequestField::specBytes,
          RequestField::requestId, RequestField::tenantId,
          RequestField::level, RequestField::windowLog,
          RequestField::deadlineNs, RequestField::payloadBytes,
          serve::kRequestHeaderBytes}) {
        if (edge <= frame.size())
            map.boundaries.push_back(edge);
    }
    for (FieldRange field : {FieldRange{RequestField::specBytes, 2},
                             FieldRange{RequestField::payloadBytes, 4}}) {
        if (field.start + field.size <= frame.size())
            map.lengths.push_back(field);
    }
    map.discriminatorValues = kWireDiscriminators;
    for (std::size_t byte :
         {RequestField::magic + sizeof serve::kRequestMagic - 1,
          RequestField::version, RequestField::direction}) {
        if (byte < frame.size())
            map.discriminators.push_back(byte);
    }
    if (frame.size() >= serve::kRequestHeaderBytes) {
        // The codec spec is the one grammar-checked region, charset
        // [a-z0-9+_-]: stageHeaderTamper's target.
        const std::size_t spec_end =
            serve::kRequestHeaderBytes + frame[RequestField::specBytes] +
            (static_cast<std::size_t>(frame[RequestField::specBytes + 1])
             << 8);
        if (spec_end <= frame.size())
            map.boundaries.push_back(spec_end);
        map.header = {serve::kRequestHeaderBytes,
                      std::min(spec_end, frame.size()) -
                          serve::kRequestHeaderBytes};
    }
    return finish(frame, std::move(map), false);
}

Bytes
mutateFrame(ByteSpan frame, const Grammar &grammar, MutationClass cls,
            u64 rng_seed, ByteSpan donor)
{
    Rng rng(rng_seed);
    Bytes out(frame.begin(), frame.end());
    if (frame.empty() && cls != MutationClass::splice)
        return out;
    const FieldMap map = grammar(frame);
    auto pick = [&rng](const auto &items) {
        return items[rng.below(items.size())];
    };

    switch (cls) {
      case MutationClass::bitFlip: {
        const std::size_t flips = 1 + rng.below(8);
        for (std::size_t i = 0; i < flips; ++i) {
            const std::size_t bit = rng.below(out.size() * 8);
            out[bit / 8] ^= static_cast<u8>(1u << (bit % 8));
        }
        break;
      }
      case MutationClass::truncate: {
        std::size_t cut = pick(map.boundaries);
        // Half the time shift by one byte to land mid-field.
        if (rng.chance(0.5)) {
            if (rng.chance(0.5) && cut > 0)
                --cut;
            else if (cut < out.size())
                ++cut;
        }
        out.resize(cut);
        break;
      }
      case MutationClass::lengthTamper: {
        if (map.lengths.empty()) {
            out[rng.below(out.size())] = 0xff;
            break;
        }
        const FieldRange field = pick(map.lengths);
        u8 *bytes = out.data() + field.start;
        switch (rng.below(4)) {
          case 0: // Huge: varints grow, fixed-width fields max out.
            std::fill_n(bytes, field.size, u8{0xff});
            break;
          case 1: std::fill_n(bytes, field.size, u8{0}); break;
          case 2: ++bytes[0]; break; // Off by one in the low byte.
          default: // Random low byte (keeps varint shape half the time).
            bytes[0] = static_cast<u8>(rng.next());
            break;
        }
        break;
      }
      case MutationClass::crcTamper: {
        if (map.checksums.empty()) {
            // No integrity field: damage the tail, where content-size
            // and termination checks must catch it.
            const std::size_t byte =
                out.size() - 1 -
                rng.below(std::min<std::size_t>(out.size(), 4));
            out[byte] ^= static_cast<u8>(1u << rng.below(8));
            break;
        }
        // Draw order (field, bit, byte) is part of the replay contract.
        const FieldRange field = pick(map.checksums);
        const u8 bit = static_cast<u8>(1u << rng.below(8));
        out[field.start + rng.below(field.size)] ^= bit;
        break;
      }
      case MutationClass::chunkTypeSwap: {
        const std::size_t byte = pick(map.discriminators);
        if (map.discriminatorValues.empty())
            out[byte] ^= static_cast<u8>(1 + rng.below(7));
        else
            out[byte] = pick(map.discriminatorValues);
        break;
      }
      case MutationClass::splice: {
        const ByteSpan tail_source = donor.empty() ? frame : donor;
        const std::size_t head = pick(map.boundaries);
        const std::size_t tail = pick(grammar(tail_source).boundaries);
        out.resize(head);
        out.insert(out.end(),
                   tail_source.begin() + static_cast<std::ptrdiff_t>(tail),
                   tail_source.end());
        break;
      }
      case MutationClass::stageHeaderTamper: {
        if (map.stagedTerminal &&
            tamperStageHeader(frame, *map.stagedTerminal, rng, out))
            break;
        const std::size_t byte =
            map.header.start + rng.below(map.header.size);
        out[byte] ^= static_cast<u8>(1 + rng.below(255));
        break;
      }
    }
    return out;
}

std::vector<std::size_t>
CorruptionInjector::structuralOffsets(codec::CodecId id, FrameKind kind,
                                      ByteSpan frame)
{
    return mapFrame(id, kind, frame).boundaries;
}

Bytes
CorruptionInjector::mutate(ByteSpan frame, const MutationSpec &spec,
                           FrameKind kind, ByteSpan donor)
{
    return mutateFrame(
        frame,
        [&](ByteSpan bytes) { return mapFrame(spec.codec, kind, bytes); },
        spec.cls, mutationSeed(spec), donor);
}

} // namespace cdpu::harden

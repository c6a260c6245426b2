/**
 * @file
 * Hardening battery (tier 1): corruption-injector determinism and
 * structural awareness, plus the fuzz driver's full decode/compress
 * contract over every registered codec at a CI-sized iteration count.
 * The fuzz_smoke example runs the same battery at 10k+ iterations per
 * codec/direction under ASan/UBSan.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>

#include "codec/obs_bridge.h"
#include "codec/registry.h"
#include "codec/session.h"
#include "common/kernels.h"
#include "container/container.h"
#include "corpus/generators.h"
#include "harden/fuzz_driver.h"
#include "harden/injector.h"
#include "harden/wire_grammar.h"

namespace cdpu::harden
{
namespace
{

Bytes
sampleFrame(codec::CodecId id, FrameKind kind = FrameKind::buffer,
            std::size_t payload_bytes = 8 * kKiB)
{
    Rng rng(1234);
    Bytes payload = corpus::generate(corpus::DataClass::textLike,
                                     payload_bytes, rng);
    const codec::CodecVTable &vtable = codec::registry(id);
    codec::CodecParams params = vtable.caps.clamp(
        vtable.caps.defaultLevel, vtable.caps.defaultWindowLog);
    Bytes frame;
    if (kind == FrameKind::container) {
        container::WriteOptions options;
        options.blockBytes = 1 * kKiB;
        EXPECT_TRUE(container::write(id, payload, options, frame).ok());
    } else if (kind == FrameKind::buffer) {
        EXPECT_TRUE(codec::compressInto(id, payload, params, frame).ok());
    } else {
        auto session = vtable.makeCompressSession(params);
        EXPECT_TRUE(codec::compressAll(*session, payload, 0, frame).ok());
    }
    return frame;
}

TEST(InjectorTest, DescribeSpecNamesTheReproductionTriple)
{
    MutationSpec spec{codec::CodecId::snappy, MutationClass::bitFlip,
                      42};
    EXPECT_EQ(describeSpec(spec),
              "codec=snappy class=bit_flip seed=42");
    EXPECT_EQ(mutationClassName(MutationClass::lengthTamper),
              "length_tamper");
    EXPECT_EQ(allMutationClasses().size(), kNumMutationClasses);
    // The seed mix must separate the triple's fields.
    MutationSpec other = spec;
    other.cls = MutationClass::truncate;
    EXPECT_NE(mutationSeed(spec), mutationSeed(other));
}

/** FNV-1a 64 of @p bytes, folded into @p digest. */
u64
foldDigest(u64 digest, ByteSpan bytes)
{
    for (u8 byte : bytes) {
        digest ^= byte;
        digest *= 0x100000001b3ull;
    }
    return digest;
}

u64
foldDigest(u64 digest, u64 value)
{
    u8 bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<u8>(value >> (8 * i));
    return foldDigest(digest, ByteSpan(bytes, 8));
}

/**
 * Digests of the injector's output per (codec, grammar): the boundaries
 * of sampleFrame's 8 KiB frame and 2 KiB donor, then per class the
 * mutants of seeds 0-255 (the donor feeds splice). A battery finding
 * replays from its (codec, class, seed) triple only while the same
 * triple rebuilds the same mutant.
 */
struct PinnedDigests
{
    const char *codec;
    FrameKind kind;
    u64 offsets;
    u64 classes[kNumMutationClasses];
};

constexpr PinnedDigests kPinned[] = {
    {"snappy", FrameKind::buffer, 0x210a884580f21bd1ull,
     {0x95cbc0fd855081d2ull, 0x075c2c6270b251bbull, 0x9ad0af20e545f30eull,
      0x8736c88c99818d95ull, 0x7a7649e005f87ff2ull, 0x877685d2efef5ce0ull,
      0x8975646fc52304e7ull}},
    {"snappy", FrameKind::stream, 0xf9ffaa0d7679e8a1ull,
     {0x3dfb9d5076a9f2feull, 0xa8bd3964ce780aaeull, 0xf3f49954d1324dfaull,
      0xce60a49e68f03a65ull, 0x989286f8121106f8ull, 0x1d7b4b8911aed0feull,
      0x1c07b2dd01501c47ull}},
    {"snappy", FrameKind::container, 0xfcc3bb132baec8deull,
     {0x5ac416ab94e5db6aull, 0x05cf9f6efb9f16cfull, 0xa6bb83e4808cc885ull,
      0xc4a47c5528bd1cc1ull, 0x8d52c382849333aaull, 0xe312b2af43f32c59ull,
      0x48f719f8edc42347ull}},
    {"zstdlite", FrameKind::buffer, 0xea10d2433db457b5ull,
     {0xcd5c5084efa40d8bull, 0xc27f68b137d0b035ull, 0x7ee5178e1b5fdc6full,
      0xd3c627d20bd3074aull, 0x8306f9af1fbfd35eull, 0x9bb36c8559885cc7ull,
      0xa5fca06ef3113bcfull}},
    {"zstdlite", FrameKind::stream, 0xea10d2433db457b5ull,
     {0xcd5c5084efa40d8bull, 0xc27f68b137d0b035ull, 0x7ee5178e1b5fdc6full,
      0xd3c627d20bd3074aull, 0x8306f9af1fbfd35eull, 0x9bb36c8559885cc7ull,
      0xa5fca06ef3113bcfull}},
    {"zstdlite", FrameKind::container, 0x2f6dd045f424af89ull,
     {0xe201a833663711a7ull, 0xd09994734a69d1bcull, 0xd4f27608086a3be4ull,
      0x5589e09c47d71578ull, 0x759fdc80640ee777ull, 0x6a8b6937ddc9d2cfull,
      0xb1f6e52617ca752full}},
    {"flatelite", FrameKind::buffer, 0xcf6e3ec44c0d313full,
     {0x9003e97a4a85c883ull, 0x38557494a194bc36ull, 0x86d47574594c824cull,
      0x3edc465f64626d98ull, 0xf52ea3d5004d16fcull, 0x001a2702a9ab539full,
      0xe58257ec813fc89bull}},
    {"flatelite", FrameKind::stream, 0xcf6e3ec44c0d313full,
     {0x9003e97a4a85c883ull, 0x38557494a194bc36ull, 0x86d47574594c824cull,
      0x3edc465f64626d98ull, 0xf52ea3d5004d16fcull, 0x001a2702a9ab539full,
      0xe58257ec813fc89bull}},
    {"flatelite", FrameKind::container, 0x1520959d0962e9caull,
     {0x7d9c47ee26fc47ebull, 0x740f84aad029365eull, 0xcc94ae8a8c07f4bcull,
      0x33dd95753223a4baull, 0xd93c22b22fa317d3ull, 0xf7699b6826c785f5ull,
      0xb42126a11bfe113full}},
    {"gipfeli", FrameKind::buffer, 0x32f00debaccc4cf1ull,
     {0xb9f48ccf0c142d9aull, 0x5fa62e100d1e4029ull, 0x85fcff54adb588ecull,
      0xd2a4808fbb6fa729ull, 0xf0ffd789a4b31c30ull, 0x559fa3e6252b207aull,
      0xfe2f5dbfd9e77c24ull}},
    {"gipfeli", FrameKind::stream, 0x32f00debaccc4cf1ull,
     {0xb9f48ccf0c142d9aull, 0x5fa62e100d1e4029ull, 0x85fcff54adb588ecull,
      0xd2a4808fbb6fa729ull, 0xf0ffd789a4b31c30ull, 0x559fa3e6252b207aull,
      0xfe2f5dbfd9e77c24ull}},
    {"gipfeli", FrameKind::container, 0x1e8dcba15a0a43a4ull,
     {0x08b9aff2777ec126ull, 0xabc42a8b6b8f857aull, 0xd7ef69464b0aa3adull,
      0x5b552d5277afcd9full, 0xfcd7a55c2258ddaaull, 0x23836fec8fc19cf4ull,
      0x94b74620cdb7a9f4ull}},
    {"delta+snappy", FrameKind::buffer, 0x113e671acd7cd6e3ull,
     {0xa7a9c4cae4d2cc9full, 0xb2a943e517f9f55bull, 0xee054f6c3346aa2aull,
      0xabadc1c1d60694ebull, 0xbfa26cb182fb1e88ull, 0x8a9b12c05cac8204ull,
      0x5a3bc1a58fc713e9ull}},
    {"delta+snappy", FrameKind::stream, 0x113e671acd7cd6e3ull,
     {0xa7a9c4cae4d2cc9full, 0xb2a943e517f9f55bull, 0xee054f6c3346aa2aull,
      0xabadc1c1d60694ebull, 0xbfa26cb182fb1e88ull, 0x8a9b12c05cac8204ull,
      0x5a3bc1a58fc713e9ull}},
    {"delta+snappy", FrameKind::container, 0xbcad762f89242d9bull,
     {0xef4eda84c8934bf7ull, 0xc6177b82fe77cbdeull, 0x9c5cabc49ad20f7cull,
      0x1c9852320aa954c5ull, 0x9c82e33406e1ae5eull, 0xd9e74a8a510151dbull,
      0x47694e06d974bb37ull}},
    {"bwt+mtf+flatelite", FrameKind::buffer, 0xae9430a2db7a89b0ull,
     {0x5c0bed185ee2894eull, 0x24db8639fe27b599ull, 0x4d5acaf4bba48519ull,
      0xb5c7c3feb3f4f602ull, 0xadd307aec843d568ull, 0xd81c7ea321ee66eaull,
      0x132901f61e6ef7dbull}},
    {"bwt+mtf+flatelite", FrameKind::stream, 0xae9430a2db7a89b0ull,
     {0x5c0bed185ee2894eull, 0x24db8639fe27b599ull, 0x4d5acaf4bba48519ull,
      0xb5c7c3feb3f4f602ull, 0xadd307aec843d568ull, 0xd81c7ea321ee66eaull,
      0x132901f61e6ef7dbull}},
    {"bwt+mtf+flatelite", FrameKind::container, 0x00bc0955cdb578afull,
     {0x132f428c213c06f2ull, 0x721db0fb5748144dull, 0x4aafa6010635ed46ull,
      0x8a879940bd774abaull, 0x74d2619260d334d7ull, 0xabe6ced27b031871ull,
      0x663a4f5a938ae48aull}},
    {"shred+zstdlite", FrameKind::buffer, 0x5576b0e0bf020771ull,
     {0x154a18c2b7730dd9ull, 0x6835c995c17722d5ull, 0xc42af224fd841f52ull,
      0xd7aa5ccb7cf77114ull, 0xca0f5854ccb603d7ull, 0x17a7d41f80c70e15ull,
      0xdd57a6904ab8dd0full}},
    {"shred+zstdlite", FrameKind::stream, 0x5576b0e0bf020771ull,
     {0x154a18c2b7730dd9ull, 0x6835c995c17722d5ull, 0xc42af224fd841f52ull,
      0xd7aa5ccb7cf77114ull, 0xca0f5854ccb603d7ull, 0x17a7d41f80c70e15ull,
      0xdd57a6904ab8dd0full}},
    {"shred+zstdlite", FrameKind::container, 0x9ec08dbd078f80d2ull,
     {0xd2bd575ae42b994full, 0xc3f1b4a52ae1373full, 0xb50c18cafff864e2ull,
      0x46d5003d53b7310eull, 0xb9a4517a4cd0f11bull, 0xaba0c6097b18f7f2ull,
      0x5abce9fe0816700full}},
};

/** Every registered base codec and curated pipeline. */
constexpr const char *kCodecs[] = {"snappy",         "zstdlite",
                                   "flatelite",      "gipfeli",
                                   "delta+snappy",   "bwt+mtf+flatelite",
                                   "shred+zstdlite"};

/** One grammar with a frame and a splice donor it maps. */
struct GrammarCase
{
    std::string name;
    Grammar grammar;
    Bytes frame;
    Bytes donor;
};

/** Every grammar: snappy raw and framed, the zstdlite and flatelite
 *  block frames, gipfeli, pipeline frames, the CDPC container, and the
 *  cdpud request. */
std::vector<GrammarCase>
allGrammars()
{
    std::vector<GrammarCase> cases;
    for (const char *name : kCodecs) {
        const codec::CodecId id = codec::codecFromName(name).value();
        for (FrameKind kind : {FrameKind::buffer, FrameKind::stream,
                               FrameKind::container}) {
            cases.push_back(
                {std::string(name) + " kind " +
                     std::to_string(static_cast<int>(kind)),
                 [id, kind](ByteSpan frame) {
                     return mapFrame(id, kind, frame);
                 },
                 sampleFrame(id, kind), sampleFrame(id, kind, 2 * kKiB)});
        }
    }
    serve::WireRequest request;
    request.codecSpec = "delta+rle+snappy";
    request.payload = Bytes(512, 0xa5);
    serve::WireRequest donor;
    donor.codecSpec = "zstdlite";
    donor.payload = Bytes(64, 0x3c);
    cases.push_back({"wire", mapWireRequest, serve::encodeRequest(request),
                     serve::encodeRequest(donor)});
    return cases;
}

bool
covers(FieldRange field, std::size_t pos)
{
    return pos >= field.start && pos < field.start + field.size;
}

/** Positions where equal-length @p a and @p b differ. */
std::vector<std::size_t>
changedBytes(ByteSpan a, ByteSpan b)
{
    std::vector<std::size_t> changed;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i] != b[i])
            changed.push_back(i);
    return changed;
}

/** Whether every changed byte lies inside one of @p fields. */
bool
insideOneField(const std::vector<std::size_t> &changed,
               const std::vector<FieldRange> &fields)
{
    return changed.empty() ||
           std::any_of(fields.begin(), fields.end(), [&](FieldRange f) {
               return std::all_of(changed.begin(), changed.end(),
                                  [&](std::size_t pos) {
                                      return covers(f, pos);
                                  });
           });
}

bool
isBoundary(const FieldMap &map, std::size_t offset)
{
    return std::binary_search(map.boundaries.begin(),
                              map.boundaries.end(), offset);
}

/** Checks that @p mutant differs from the case's frame only where
 *  @p cls aims under the frame's map. */
void
expectAimed(const GrammarCase &c, MutationClass cls, const Bytes &mutant)
{
    const ByteSpan frame(c.frame);
    const FieldMap map = c.grammar(frame);
    if (cls == MutationClass::truncate) {
        ASSERT_LE(mutant.size(), frame.size());
        EXPECT_TRUE(std::equal(mutant.begin(), mutant.end(), frame.begin()));
        EXPECT_TRUE(isBoundary(map, mutant.size()) ||
                    isBoundary(map, mutant.size() + 1) ||
                    (mutant.size() > 0 && isBoundary(map, mutant.size() - 1)))
            << "cut at " << mutant.size();
        return;
    }
    if (cls == MutationClass::splice) {
        // head = frame[0, h) and tail = donor[t, end) for boundaries h, t.
        const FieldMap donor_map = c.grammar(c.donor);
        bool found = false;
        for (std::size_t h : map.boundaries) {
            if (h > mutant.size() || mutant.size() - h > c.donor.size())
                continue;
            const std::size_t t = c.donor.size() - (mutant.size() - h);
            found = found ||
                    (isBoundary(donor_map, t) &&
                     std::equal(mutant.begin(), mutant.begin() + h,
                                frame.begin()) &&
                     std::equal(mutant.begin() + h, mutant.end(),
                                c.donor.begin() + t));
        }
        EXPECT_TRUE(found) << "no boundary pair rebuilds the splice";
        return;
    }
    if (cls == MutationClass::stageHeaderTamper && map.stagedTerminal) {
        // A re-wrapped pipeline frame: its staged bytes differ from the
        // frame's only in the leading stage header.
        codec::Scratch scratch;
        Bytes staged;
        Bytes tampered;
        ASSERT_TRUE(
            map.stagedTerminal->decompressInto(frame, staged, scratch).ok());
        ASSERT_TRUE(map.stagedTerminal->decompressInto(mutant, tampered,
                                                       scratch)
                        .ok());
        ASSERT_EQ(staged.size(), tampered.size());
        const auto changed = changedBytes(staged, tampered);
        EXPECT_LE(changed.size(), 1u);
        EXPECT_TRUE(insideOneField(changed, {{0, 4}}));
        return;
    }
    ASSERT_EQ(mutant.size(), frame.size());
    const auto changed = changedBytes(frame, mutant);
    switch (cls) {
      case MutationClass::bitFlip: {
        unsigned bits = 0;
        for (std::size_t pos : changed)
            bits += std::popcount(static_cast<unsigned>(frame[pos] ^
                                                        mutant[pos]));
        EXPECT_LE(bits, 8u);
        break;
      }
      case MutationClass::lengthTamper:
        if (map.lengths.empty())
            EXPECT_LE(changed.size(), 1u);
        else
            EXPECT_TRUE(insideOneField(changed, map.lengths));
        break;
      case MutationClass::crcTamper: {
        ASSERT_EQ(changed.size(), 1u);
        EXPECT_EQ(std::popcount(static_cast<unsigned>(
                      frame[changed[0]] ^ mutant[changed[0]])),
                  1);
        const std::size_t tail = std::min<std::size_t>(frame.size(), 4);
        EXPECT_TRUE(map.checksums.empty()
                        ? changed[0] >= frame.size() - tail
                        : insideOneField(changed, map.checksums));
        break;
      }
      case MutationClass::chunkTypeSwap:
        ASSERT_LE(changed.size(), 1u);
        for (std::size_t pos : changed)
            EXPECT_NE(std::find(map.discriminators.begin(),
                                map.discriminators.end(), pos),
                      map.discriminators.end());
        break;
      case MutationClass::stageHeaderTamper:
        EXPECT_EQ(changed.size(), 1u);
        EXPECT_TRUE(insideOneField(changed, {map.header}));
        break;
      default: break;
    }
}

/** The shape every walk keeps on any bytes: sorted unique boundaries
 *  from 0 to the end, and every field inside the frame. */
void
expectWellFormedMap(const Grammar &grammar, ByteSpan bytes)
{
    const FieldMap map = grammar(bytes);
    ASSERT_FALSE(map.boundaries.empty());
    EXPECT_EQ(map.boundaries.front(), 0u);
    EXPECT_EQ(map.boundaries.back(), bytes.size());
    EXPECT_EQ(std::adjacent_find(map.boundaries.begin(),
                                 map.boundaries.end(),
                                 std::greater_equal<>()),
              map.boundaries.end());
    for (const auto *fields : {&map.lengths, &map.checksums})
        for (FieldRange field : *fields)
            EXPECT_LE(field.start + field.size, bytes.size());
    for (std::size_t byte : map.discriminators)
        EXPECT_LT(byte, bytes.size());
    EXPECT_LE(map.header.start + map.header.size, bytes.size());
}

TEST(InjectorTest, EveryClassChangesOnlyWhatItAims)
{
    const Bytes garbage(64, u8{0xff}); // Must not wedge any walk.
    for (const GrammarCase &c : allGrammars()) {
        SCOPED_TRACE(c.name);
        for (ByteSpan bytes : {ByteSpan(c.frame), ByteSpan(c.donor),
                               ByteSpan(garbage), ByteSpan()})
            expectWellFormedMap(c.grammar, bytes);
        // A walk of a well-formed frame sees more than its two ends.
        EXPECT_GT(c.grammar(c.frame).boundaries.size(), 2u);
        for (MutationClass cls : allMutationClasses()) {
            SCOPED_TRACE(mutationClassName(cls));
            Bytes first; // Seed 0's mutant.
            bool steered = false;
            u64 unchanged = 0;
            for (u64 seed = 0; seed < 64 && !HasFatalFailure(); ++seed) {
                const Bytes mutant =
                    mutateFrame(c.frame, c.grammar, cls, seed, c.donor);
                EXPECT_EQ(mutant, mutateFrame(c.frame, c.grammar, cls,
                                              seed, c.donor));
                if (seed == 0)
                    first = mutant;
                steered = steered || mutant != first;
                unchanged += mutant == c.frame;
                expectAimed(c, cls, mutant);
            }
            // Seeds steer every class, and none leaves most frames
            // alone.
            EXPECT_TRUE(steered);
            EXPECT_LT(unchanged, 32u);
        }
    }
}

TEST(InjectorTest, MutantsMatchThePinnedDigests)
{
    constexpr u64 kFnvBasis = 0xcbf29ce484222325ull;
    for (const PinnedDigests &pin : kPinned) {
        const codec::CodecId id = codec::codecFromName(pin.codec).value();
        const Bytes frame = sampleFrame(id, pin.kind);
        const Bytes donor = sampleFrame(id, pin.kind, 2 * kKiB);
        SCOPED_TRACE(testing::Message() << pin.codec << " kind "
                                        << static_cast<int>(pin.kind));
        u64 offsets = kFnvBasis;
        for (ByteSpan bytes : {ByteSpan(frame), ByteSpan(donor)})
            for (std::size_t offset :
                 CorruptionInjector::structuralOffsets(id, pin.kind, bytes))
                offsets = foldDigest(offsets, u64{offset});
        EXPECT_EQ(offsets, pin.offsets) << std::hex << "0x" << offsets;
        for (MutationClass cls : allMutationClasses()) {
            u64 digest = kFnvBasis;
            for (u64 seed = 0; seed < 256; ++seed) {
                const Bytes mutant = CorruptionInjector::mutate(
                    frame, {id, cls, seed}, pin.kind, donor);
                digest = foldDigest(foldDigest(digest, u64{mutant.size()}),
                                    mutant);
            }
            EXPECT_EQ(digest, pin.classes[static_cast<std::size_t>(cls)])
                << mutationClassName(cls) << ": 0x" << std::hex << digest;
        }
    }
}

void
expectClean(const FuzzConfig &config)
{
    FuzzReport report = runFuzz(config);
    EXPECT_EQ(report.iterations, config.iterations);
    for (const FuzzFailure &failure : report.failures)
        ADD_FAILURE() << describeSpec(failure.spec) << ": "
                      << failure.what;
    EXPECT_LE(report.maxOutputBytes, kMaxFuzzOutputBytes);
}

TEST(FuzzDriverTest, DecodeBatteryIsCleanForEveryCodec)
{
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        FuzzConfig config;
        config.codec = id;
        config.direction = codec::Direction::decompress;
        config.iterations = 1200;
        config.maxPayloadBytes = 2 * kKiB;
        expectClean(config);
    }
}

TEST(FuzzDriverTest, CompressBatteryIsCleanForEveryCodec)
{
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        FuzzConfig config;
        config.codec = id;
        config.direction = codec::Direction::compress;
        config.iterations = 300;
        config.maxPayloadBytes = 2 * kKiB;
        expectClean(config);
    }
}

TEST(FuzzDriverTest, ContainerBatteryIsCleanForEveryCodec)
{
    // Acceptance floor: >= 1000 container-grammar iterations with zero
    // contract violations; snappy carries the full thousand, the rest
    // keep the battery broad at CI cost.
    for (codec::CodecId id : codec::allCodecs()) {
        SCOPED_TRACE(codec::codecName(id));
        FuzzConfig config;
        config.codec = id;
        config.direction = codec::Direction::decompress;
        config.frameKind = FrameKind::container;
        config.iterations =
            id == codec::CodecId::snappy ? 1000 : 350;
        config.maxPayloadBytes = 2 * kKiB;
        expectClean(config);
    }
}

TEST(FuzzDriverTest, ContainerBatteryIsDeterministic)
{
    FuzzConfig config;
    config.codec = codec::CodecId::zstdlite;
    config.direction = codec::Direction::decompress;
    config.frameKind = FrameKind::container;
    config.iterations = 200;
    config.seedBase = 77;
    FuzzReport first = runFuzz(config);
    FuzzReport second = runFuzz(config);
    EXPECT_EQ(first.survivors, second.survivors);
    EXPECT_EQ(first.cleanRejects, second.cleanRejects);
    EXPECT_EQ(first.maxOutputBytes, second.maxOutputBytes);
    EXPECT_EQ(first.failures.size(), second.failures.size());
}

TEST(FuzzDriverTest, DecodeBatteryVerdictsAreTierInvariant)
{
    // Each iteration's verdict (survive vs clean reject, and the
    // decoded bytes behind a survivor) is a pure function of the
    // mutation triple — so the whole report must be identical at every
    // SIMD kernel tier. A diverging survivors/cleanRejects count means
    // a vector kernel decoded mutated input differently from scalar.
    const kernels::Tier entry_tier = kernels::activeTier();
    for (codec::CodecId id : codec::allCodecs()) {
        FuzzConfig config;
        config.codec = id;
        config.direction = codec::Direction::decompress;
        config.iterations = 400;
        config.maxPayloadBytes = 2 * kKiB;

        ASSERT_TRUE(
            kernels::setActiveTier(kernels::Tier::scalar).ok());
        FuzzReport reference = runFuzz(config);
        EXPECT_TRUE(reference.ok());
        for (kernels::Tier tier : kernels::availableTiers()) {
            SCOPED_TRACE(testing::Message()
                         << codec::codecName(id) << " tier "
                         << kernels::tierName(tier));
            ASSERT_TRUE(kernels::setActiveTier(tier).ok());
            FuzzReport report = runFuzz(config);
            for (const FuzzFailure &failure : report.failures)
                ADD_FAILURE() << describeSpec(failure.spec) << ": "
                              << failure.what;
            EXPECT_EQ(report.survivors, reference.survivors);
            EXPECT_EQ(report.cleanRejects, reference.cleanRejects);
            EXPECT_EQ(report.maxOutputBytes, reference.maxOutputBytes);
        }
    }
    ASSERT_TRUE(kernels::setActiveTier(entry_tier).ok());
}

TEST(FuzzDriverTest, ReportsAreDeterministic)
{
    FuzzConfig config;
    config.codec = codec::CodecId::zstdlite;
    config.direction = codec::Direction::decompress;
    config.iterations = 200;
    FuzzReport first = runFuzz(config);
    FuzzReport second = runFuzz(config);
    EXPECT_EQ(first.survivors, second.survivors);
    EXPECT_EQ(first.cleanRejects, second.cleanRejects);
    EXPECT_EQ(first.maxOutputBytes, second.maxOutputBytes);
    EXPECT_EQ(first.failures.size(), second.failures.size());
    EXPECT_EQ(first.summary(config), second.summary(config));
    // A battery that never rejects anything is not mutating.
    EXPECT_GT(first.cleanRejects, 0u);
}

TEST(FuzzDriverTest, TripwireViolationFreezesFaultDump)
{
    // A 1-byte output tripwire makes the first successful decode a
    // deterministic contract violation; the attached hub must capture
    // the flight history around it.
    obs::TelemetryConfig tc;
    obs::Telemetry telemetry(tc, 1, codec::codecFlightNamer());

    FuzzConfig config;
    config.codec = codec::CodecId::snappy;
    config.direction = codec::Direction::decompress;
    config.iterations = 200;
    config.outputTripwireBytes = 1;
    config.telemetry = &telemetry;
    FuzzReport report = runFuzz(config);
    EXPECT_FALSE(report.ok());
    EXPECT_GE(telemetry.faultCount(), 1u);
    ASSERT_TRUE(telemetry.hasFaultDump());

    const obs::JsonValue dump = telemetry.faultDump();
    ASSERT_TRUE(dump.has("flight_events"));
    EXPECT_GT(dump.at("flight_events").size(), 0u);
    ASSERT_TRUE(dump.has("fault"));
    EXPECT_NE(dump.at("fault").at("what").asString().find("tripwire"),
              std::string::npos)
        << dump.at("fault").at("what").asString();
}

TEST(FuzzDriverTest, FlightRingRecordsEveryIteration)
{
    obs::TelemetryConfig tc;
    obs::Telemetry telemetry(tc, 1, codec::codecFlightNamer());

    FuzzConfig config;
    config.codec = codec::CodecId::snappy;
    config.direction = codec::Direction::decompress;
    config.iterations = 150;
    config.telemetry = &telemetry;
    FuzzReport report = runFuzz(config);
    EXPECT_TRUE(report.ok());
    EXPECT_FALSE(telemetry.hasFaultDump());
    // One flight event per iteration, clean run or not.
    EXPECT_EQ(telemetry.flight().ring(0).recorded(),
              config.iterations);
}

// --- Wire-request grammar (the daemon's first parser) -----------------

TEST(WireGrammarTest, MapAimsAtTheNamedRequestFields)
{
    serve::WireRequest request;
    request.codecSpec = "snappy";
    request.direction = codec::Direction::decompress;
    request.payload = Bytes(300, 0x3c);
    const Bytes frame = serve::encodeRequest(request);
    const FieldMap map = mapWireRequest(frame);
    EXPECT_TRUE(isBoundary(map, serve::kRequestHeaderBytes));
    EXPECT_TRUE(isBoundary(map, serve::kRequestHeaderBytes + 6));

    // The length fields hold what parseRequestHeader reads.
    auto header = serve::parseRequestHeader(
        ByteSpan(frame).first(serve::kRequestHeaderBytes), {});
    ASSERT_TRUE(header.ok());
    auto read = [&](FieldRange field) {
        u64 value = 0;
        for (std::size_t i = field.size; i-- > 0;)
            value = value << 8 | frame[field.start + i];
        return value;
    };
    ASSERT_EQ(map.lengths.size(), 2u);
    EXPECT_EQ(read(map.lengths[0]), header.value().specBytes);
    EXPECT_EQ(read(map.lengths[1]), header.value().payloadBytes);
    // Discriminators: the magic's last byte, version and direction.
    ASSERT_EQ(map.discriminators.size(), 3u);
    EXPECT_EQ(frame[map.discriminators[0]], 'Q');
    EXPECT_EQ(frame[map.discriminators[1]], serve::kWireVersion);
    EXPECT_EQ(frame[map.discriminators[2]], 1);
    // stageHeaderTamper aims at the codec spec.
    EXPECT_EQ(map.header.start, serve::kRequestHeaderBytes);
    EXPECT_EQ(map.header.size, request.codecSpec.size());
}

TEST(WireGrammarTest, FuzzBatteryIsCleanAtCiScale)
{
    WireFuzzConfig config;
    config.iterations = 150;
    config.seedBase = 7;
    WireFuzzReport report = runWireFuzz(config);
    EXPECT_TRUE(report.ok()) << report.summary(config);
    // One trial per (iteration, mutation class).
    EXPECT_EQ(report.trials,
              config.iterations * allMutationClasses().size());
    // The battery must exercise both verdicts: grammar rejections and
    // canonical acceptances (a mutator that only ever breaks frames
    // is not probing the accept path).
    EXPECT_GT(report.mutantsRejected, 0u);
    EXPECT_GT(report.mutantsAccepted, 0u);
    EXPECT_GT(report.prefixesChecked, 0u);
}

TEST(WireGrammarTest, FuzzReportsAreDeterministic)
{
    WireFuzzConfig config;
    config.iterations = 60;
    config.seedBase = 11;
    WireFuzzReport first = runWireFuzz(config);
    WireFuzzReport second = runWireFuzz(config);
    EXPECT_EQ(first.mutantsRejected, second.mutantsRejected);
    EXPECT_EQ(first.mutantsAccepted, second.mutantsAccepted);
    EXPECT_EQ(first.prefixesChecked, second.prefixesChecked);
}

} // namespace
} // namespace cdpu::harden

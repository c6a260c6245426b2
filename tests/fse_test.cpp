/**
 * @file
 * FSE/tANS tests: normalization invariants, spread coverage, decode/
 * encode table duality, stream round-trips, interleaved streams, and
 * corruption rejection.
 */

#include <gtest/gtest.h>

#include "corpus/generators.h"
#include "fse/decoder.h"
#include "fse/encoder.h"

namespace cdpu::fse
{
namespace
{

std::vector<u64>
frequencies(ByteSpan data, std::size_t alphabet)
{
    std::vector<u64> freqs(alphabet, 0);
    for (u8 b : data)
        ++freqs[b];
    return freqs;
}

TEST(NormalizeTest, CountsSumToTableSize)
{
    std::vector<u64> freqs = {100, 50, 25, 10, 3, 1};
    for (unsigned log : {5u, 7u, 9u, 12u}) {
        auto norm = normalizeCounts(freqs, log);
        ASSERT_TRUE(norm.ok()) << log;
        u64 sum = 0;
        for (u32 c : norm.value().counts)
            sum += c;
        EXPECT_EQ(sum, 1ull << log);
    }
}

TEST(NormalizeTest, EverySymbolKeepsAtLeastOneSlot)
{
    // Highly skewed: rare symbols must still get a slot.
    std::vector<u64> freqs = {1000000, 1, 1, 1};
    auto norm = normalizeCounts(freqs, 6);
    ASSERT_TRUE(norm.ok());
    for (std::size_t sym = 0; sym < freqs.size(); ++sym)
        EXPECT_GE(norm.value().counts[sym], 1u) << sym;
}

TEST(NormalizeTest, ZeroFrequencyStaysZero)
{
    std::vector<u64> freqs = {10, 0, 5};
    auto norm = normalizeCounts(freqs, 5);
    ASSERT_TRUE(norm.ok());
    EXPECT_EQ(norm.value().counts[1], 0u);
}

TEST(NormalizeTest, RejectsEmptyAndOversized)
{
    std::vector<u64> empty(8, 0);
    EXPECT_FALSE(normalizeCounts(empty, 6).ok());
    std::vector<u64> too_many(100, 1);
    EXPECT_FALSE(normalizeCounts(too_many, 5).ok()); // 100 > 32 slots
}

TEST(NormalizeTest, SingleSymbolTakesWholeTable)
{
    std::vector<u64> freqs = {0, 0, 1000, 0};
    auto norm = normalizeCounts(freqs, 6);
    ASSERT_TRUE(norm.ok());
    EXPECT_EQ(norm.value().counts[2], 64u);
    EXPECT_EQ(norm.value().counts[0], 0u);
    EXPECT_TRUE(buildEncodeTable(norm.value()).ok());
    EXPECT_TRUE(buildDecodeTable(norm.value()).ok());
}

TEST(NormalizeTest, AllEqualFrequenciesSplitEvenly)
{
    // Exactly one slot per symbol: the tightest legal fit.
    std::vector<u64> freqs(32, 7);
    auto norm = normalizeCounts(freqs, 5);
    ASSERT_TRUE(norm.ok());
    for (u32 c : norm.value().counts)
        EXPECT_EQ(c, 1u);
    EXPECT_TRUE(buildDecodeTable(norm.value()).ok());
}

TEST(NormalizeTest, HugeTotalsScaleOrFailCleanly)
{
    // Totals far above the table size still normalize: sum exact,
    // every present symbol >= 1.
    std::vector<u64> freqs = {u64{1} << 40, u64{1} << 39, 123};
    auto norm = normalizeCounts(freqs, 6);
    ASSERT_TRUE(norm.ok());
    u64 sum = 0;
    for (u32 c : norm.value().counts) {
        EXPECT_GE(c, 1u);
        sum += c;
    }
    EXPECT_EQ(sum, 64u);

    // Totals that would wrap the accumulator or the scaling multiply
    // must fail cleanly instead of producing a wrapped table.
    // Regression: both used to wrap silently.
    std::vector<u64> wrap = {~u64{0}, ~u64{0}};
    auto wrapped = normalizeCounts(wrap, 6);
    ASSERT_FALSE(wrapped.ok());
    EXPECT_EQ(wrapped.status().code(), StatusCode::invalidArgument);

    std::vector<u64> too_big = {u64{1} << 55, 1};
    auto big = normalizeCounts(too_big, 6);
    ASSERT_FALSE(big.ok());
    EXPECT_EQ(big.status().code(), StatusCode::invalidArgument);
}

TEST(NormalizeTest, SerializationRoundTrips)
{
    std::vector<u64> freqs = {7, 0, 3, 900, 22, 0, 1};
    auto norm = normalizeCounts(freqs, 8);
    ASSERT_TRUE(norm.ok());
    Bytes buf;
    serializeCounts(norm.value(), buf);
    std::size_t pos = 0;
    auto parsed = deserializeCounts(buf, pos);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().counts, norm.value().counts);
    EXPECT_EQ(parsed.value().tableLog, norm.value().tableLog);
    EXPECT_EQ(pos, buf.size());
}

TEST(NormalizeTest, DeserializeRejectsBadSum)
{
    std::vector<u64> freqs = {8, 8};
    auto norm = normalizeCounts(freqs, 5);
    ASSERT_TRUE(norm.ok());
    Bytes buf;
    serializeCounts(norm.value(), buf);
    buf.back() += 1; // corrupt last count
    std::size_t pos = 0;
    EXPECT_FALSE(deserializeCounts(buf, pos).ok());
}

TEST(NormalizeTest, SuggestTableLogBounds)
{
    std::vector<u64> small = {1, 1};
    EXPECT_GE(suggestTableLog(small, 2), kMinTableLog);
    std::vector<u64> big(64, 1000);
    unsigned log = suggestTableLog(big, 64000, 9);
    EXPECT_LE(log, 9u);
    EXPECT_GE(log, 6u); // must fit 64 symbols
}

TEST(TableTest, SpreadCoversEveryStateOnce)
{
    std::vector<u64> freqs = {60, 30, 8, 2};
    auto norm = normalizeCounts(freqs, 7);
    ASSERT_TRUE(norm.ok());
    auto spread = spreadSymbols(norm.value());
    ASSERT_EQ(spread.size(), 128u);
    std::vector<u32> seen(freqs.size(), 0);
    for (u8 sym : spread)
        ++seen[sym];
    for (std::size_t sym = 0; sym < freqs.size(); ++sym)
        EXPECT_EQ(seen[sym], norm.value().counts[sym]) << sym;
}

TEST(TableTest, DecodeEntriesHaveValidTransitions)
{
    std::vector<u64> freqs = {100, 60, 20, 10, 5, 1};
    auto norm = normalizeCounts(freqs, 8);
    ASSERT_TRUE(norm.ok());
    auto table = buildDecodeTable(norm.value());
    ASSERT_TRUE(table.ok());
    for (const auto &entry : table.value().entries) {
        EXPECT_LE(entry.nbBits, 8u);
        // The reachable state range must stay inside the table.
        u32 max_next = entry.nextStateBase + (1u << entry.nbBits) - 1;
        EXPECT_LT(max_next, table.value().size());
    }
}

TEST(StreamTest, SingleSymbolStreamCostsZeroBitsPerSymbol)
{
    // A one-symbol alphabet normalizes to count == tableSize and the
    // state machine never emits bits.
    std::vector<u64> freqs = {0, 0, 42};
    auto norm = normalizeCounts(freqs, 5);
    ASSERT_TRUE(norm.ok());
    auto enc_table = buildEncodeTable(norm.value());
    ASSERT_TRUE(enc_table.ok());

    Bytes symbols(1000, 2);
    BitWriter writer;
    auto bits = encodeAll(enc_table.value(), symbols, writer);
    ASSERT_TRUE(bits.ok());
    EXPECT_EQ(bits.value(), norm.value().tableLog); // only the state

    auto dec_table = buildDecodeTable(norm.value());
    ASSERT_TRUE(dec_table.ok());
    Bytes stream = writer.finish();
    auto reader = BackwardBitReader::open(stream);
    ASSERT_TRUE(reader.ok());
    Bytes out;
    ASSERT_TRUE(decodeAll(dec_table.value(), reader.value(),
                          symbols.size(), out)
                    .ok());
    EXPECT_EQ(out, symbols);
}

TEST(StreamTest, ApproachesEntropyOnSkewedData)
{
    // 90/10 binary source: entropy ~0.469 bits/symbol. FSE should get
    // close, far below Huffman's 1 bit/symbol floor.
    Rng rng(4242);
    Bytes symbols;
    for (int i = 0; i < 50000; ++i)
        symbols.push_back(rng.chance(0.9) ? 0 : 1);

    auto freqs = frequencies(symbols, 2);
    auto norm = normalizeCounts(freqs, 9);
    ASSERT_TRUE(norm.ok());
    auto enc_table = buildEncodeTable(norm.value());
    ASSERT_TRUE(enc_table.ok());
    BitWriter writer;
    auto bits = encodeAll(enc_table.value(), symbols, writer);
    ASSERT_TRUE(bits.ok());
    double bits_per_symbol =
        static_cast<double>(bits.value()) / symbols.size();
    EXPECT_LT(bits_per_symbol, 0.60);
    EXPECT_GT(bits_per_symbol, 0.40);
}

struct FseCase
{
    std::size_t alphabet;
    unsigned tableLog;
    std::size_t count;
    u64 seed;
};

class FseRoundTrip : public ::testing::TestWithParam<FseCase>
{};

TEST_P(FseRoundTrip, EncodeDecodeIsIdentity)
{
    const auto &param = GetParam();
    Rng rng(param.seed);

    // Skewed random symbol stream over the alphabet.
    Bytes symbols;
    symbols.reserve(param.count);
    for (std::size_t i = 0; i < param.count; ++i) {
        double u = rng.uniform();
        auto sym = static_cast<std::size_t>(u * u * param.alphabet);
        symbols.push_back(
            static_cast<u8>(std::min(sym, param.alphabet - 1)));
    }

    auto freqs = frequencies(symbols, param.alphabet);
    auto norm = normalizeCounts(freqs, param.tableLog);
    ASSERT_TRUE(norm.ok());
    auto enc_table = buildEncodeTable(norm.value());
    auto dec_table = buildDecodeTable(norm.value());
    ASSERT_TRUE(enc_table.ok());
    ASSERT_TRUE(dec_table.ok());

    BitWriter writer;
    ASSERT_TRUE(encodeAll(enc_table.value(), symbols, writer).ok());
    Bytes stream = writer.finish();

    auto reader = BackwardBitReader::open(stream);
    ASSERT_TRUE(reader.ok());
    Bytes out;
    ASSERT_TRUE(decodeAll(dec_table.value(), reader.value(),
                          symbols.size(), out)
                    .ok());
    EXPECT_EQ(out, symbols);
}

INSTANTIATE_TEST_SUITE_P(
    AlphabetsAndLogs, FseRoundTrip,
    ::testing::Values(FseCase{2, 5, 1000, 1}, FseCase{2, 12, 1000, 2},
                      FseCase{16, 6, 5000, 3}, FseCase{36, 6, 5000, 4},
                      FseCase{53, 7, 5000, 5}, FseCase{29, 5, 333, 6},
                      FseCase{200, 9, 20000, 7},
                      FseCase{256, 10, 20000, 8},
                      FseCase{5, 8, 1, 9}, FseCase{7, 6, 2, 10}));

TEST(StreamTest, InterleavedStreamsRoundTrip)
{
    // Three independent FSE streams interleaved into one bit stream,
    // the structure ZstdLite's sequences section uses.
    Rng rng(99);
    const std::size_t n = 500;
    Bytes a, b, c;
    for (std::size_t i = 0; i < n; ++i) {
        a.push_back(static_cast<u8>(rng.below(8)));
        b.push_back(static_cast<u8>(rng.below(16)));
        c.push_back(static_cast<u8>(rng.below(4)));
    }

    auto make_tables = [](const Bytes &syms, std::size_t alphabet) {
        auto freqs = frequencies(syms, alphabet);
        auto norm = normalizeCounts(freqs, 6);
        EXPECT_TRUE(norm.ok());
        return std::pair(buildEncodeTable(norm.value()).value(),
                         buildDecodeTable(norm.value()).value());
    };
    auto [ea, da] = make_tables(a, 8);
    auto [eb, db] = make_tables(b, 16);
    auto [ec, dc] = make_tables(c, 4);

    // Encode backward: per step, encode c then b then a.
    BitWriter writer;
    Encoder enc_a(ea);
    Encoder enc_b(eb);
    Encoder enc_c(ec);
    for (std::size_t i = n; i-- > 0;) {
        enc_c.encode(c[i], writer);
        enc_b.encode(b[i], writer);
        enc_a.encode(a[i], writer);
    }
    enc_a.flushState(writer);
    enc_b.flushState(writer);
    enc_c.flushState(writer);
    Bytes stream = writer.finish();

    // Decode forward: init states in reverse write order (c, b, a).
    auto reader = BackwardBitReader::open(stream);
    ASSERT_TRUE(reader.ok());
    Decoder dec_c(dc);
    Decoder dec_b(db);
    Decoder dec_a(da);
    ASSERT_TRUE(dec_c.initState(reader.value()).ok());
    ASSERT_TRUE(dec_b.initState(reader.value()).ok());
    ASSERT_TRUE(dec_a.initState(reader.value()).ok());
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dec_a.peekSymbol(), a[i]);
        EXPECT_EQ(dec_b.peekSymbol(), b[i]);
        EXPECT_EQ(dec_c.peekSymbol(), c[i]);
        ASSERT_TRUE(dec_a.update(reader.value()).ok());
        ASSERT_TRUE(dec_b.update(reader.value()).ok());
        ASSERT_TRUE(dec_c.update(reader.value()).ok());
    }
    EXPECT_TRUE(dec_a.atCleanEnd(reader.value()));
}

TEST(CorruptionTest, TruncatedStreamRejected)
{
    Rng rng(31337);
    Bytes symbols;
    for (int i = 0; i < 4000; ++i)
        symbols.push_back(static_cast<u8>(rng.below(10)));
    auto freqs = frequencies(symbols, 10);
    auto norm = normalizeCounts(freqs, 7);
    ASSERT_TRUE(norm.ok());
    auto enc = buildEncodeTable(norm.value());
    auto dec = buildDecodeTable(norm.value());
    BitWriter writer;
    ASSERT_TRUE(encodeAll(enc.value(), symbols, writer).ok());
    Bytes stream = writer.finish();

    for (std::size_t cut = 1; cut < 10; ++cut) {
        Bytes truncated(stream.begin(), stream.end() - cut);
        if (truncated.empty() || truncated.back() == 0)
            continue; // backward reader rejects these at open()
        auto reader = BackwardBitReader::open(truncated);
        if (!reader.ok())
            continue;
        Bytes out;
        Status status = decodeAll(dec.value(), reader.value(),
                                  symbols.size(), out);
        // FSE carries no checksum, so a truncated stream may decode
        // "cleanly" by coincidence -- but it must never silently
        // reproduce the original data.
        EXPECT_FALSE(status.ok() && out == symbols) << cut;
    }
}

TEST(CorruptionTest, WrongSymbolCountFailsCleanEndCheck)
{
    Bytes symbols(100, 1);
    for (int i = 0; i < 50; ++i)
        symbols[i * 2] = 0;
    auto freqs = frequencies(symbols, 2);
    auto norm = normalizeCounts(freqs, 6);
    auto enc = buildEncodeTable(norm.value());
    auto dec = buildDecodeTable(norm.value());
    BitWriter writer;
    ASSERT_TRUE(encodeAll(enc.value(), symbols, writer).ok());
    Bytes stream = writer.finish();

    auto reader = BackwardBitReader::open(stream);
    ASSERT_TRUE(reader.ok());
    Bytes out;
    // Ask for fewer symbols than encoded: bits remain -> not clean.
    EXPECT_FALSE(
        decodeAll(dec.value(), reader.value(), 50, out).ok());
}

} // namespace
} // namespace cdpu::fse

/**
 * @file
 * Unit tests for the common utilities: bit I/O, varints, histograms,
 * RNG determinism, CLI parsing, and table rendering.
 */

#include <gtest/gtest.h>

#include "common/bitio.h"
#include "common/cli.h"
#include "common/error.h"
#include "common/histogram.h"
#include "common/kernels.h"
#include "common/mem.h"
#include "common/rng.h"
#include "common/table.h"
#include "common/varint.h"

namespace cdpu
{
namespace
{

TEST(StatusTest, DefaultIsOk)
{
    Status s;
    EXPECT_TRUE(s.ok());
    EXPECT_EQ(s.toString(), "OK");
}

TEST(StatusTest, CorruptCarriesMessage)
{
    Status s = Status::corrupt("bad tag");
    EXPECT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::corruptData);
    EXPECT_EQ(s.toString(), "CORRUPT_DATA: bad tag");
}

TEST(ResultTest, ValueAndErrorPaths)
{
    Result<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);

    Result<int> bad(Status::invalid("nope"));
    EXPECT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::invalidArgument);
}

TEST(VarintTest, RoundTripsBoundaryValues)
{
    const u64 cases[] = {0, 1, 127, 128, 255, 16383, 16384,
                         0xffffffffull, 0xffffffffffffffffull};
    for (u64 v : cases) {
        Bytes buf;
        putVarint(buf, v);
        EXPECT_EQ(buf.size(), varintSize(v));
        std::size_t pos = 0;
        auto decoded = getVarint(buf, pos);
        ASSERT_TRUE(decoded.ok()) << v;
        EXPECT_EQ(decoded.value(), v);
        EXPECT_EQ(pos, buf.size());
    }
}

TEST(VarintTest, TruncatedFails)
{
    Bytes buf;
    putVarint(buf, 1u << 20);
    buf.pop_back();
    std::size_t pos = 0;
    EXPECT_FALSE(getVarint(buf, pos).ok());
}

TEST(VarintTest, OverlongFails)
{
    Bytes buf(11, 0x80);
    std::size_t pos = 0;
    EXPECT_FALSE(getVarint(buf, pos).ok());
}

TEST(Varint32Test, AcceptsCanonicalEncodingsUpToMax)
{
    const u32 cases[] = {0, 1, 127, 128, 16384, 0xffffu, 0xffffffffu};
    for (u32 v : cases) {
        Bytes buf;
        putVarint(buf, v);
        std::size_t pos = 0;
        auto decoded = getVarint32(buf, pos);
        ASSERT_TRUE(decoded.ok()) << v;
        EXPECT_EQ(decoded.value(), v);
        EXPECT_EQ(pos, buf.size());
    }
}

TEST(Varint32Test, RejectsValuesPast32Bits)
{
    // 2^32 exactly: five bytes with payload bit 32 set. Regression:
    // the 64-bit reader accepted this and callers compared `> 2^32`,
    // letting 2^32 itself through.
    Bytes four_gib = {0x80, 0x80, 0x80, 0x80, 0x10};
    std::size_t pos = 0;
    auto out = getVarint32(four_gib, pos);
    ASSERT_FALSE(out.ok());
    EXPECT_EQ(out.status().code(), StatusCode::corruptData);

    Bytes big;
    putVarint(big, u64{1} << 40);
    pos = 0;
    EXPECT_FALSE(getVarint32(big, pos).ok());
}

TEST(Varint32Test, RejectsNonCanonicalOverlongEncodings)
{
    // The value 1 padded to six bytes: a continuation bit on the fifth
    // byte can never be canonical for a 32-bit value.
    Bytes overlong = {0x81, 0x80, 0x80, 0x80, 0x80, 0x00};
    std::size_t pos = 0;
    EXPECT_FALSE(getVarint32(overlong, pos).ok());
}

TEST(Varint32Test, TruncatedFails)
{
    Bytes buf = {0x80, 0x80};
    std::size_t pos = 0;
    EXPECT_FALSE(getVarint32(buf, pos).ok());
}

TEST(FailureClassTest, PartitionsEveryStatusCode)
{
    EXPECT_EQ(failureClass(StatusCode::ok), FailureClass::none);
    EXPECT_EQ(failureClass(StatusCode::corruptData),
              FailureClass::dataError);
    EXPECT_EQ(failureClass(StatusCode::invalidArgument),
              FailureClass::usageError);
    EXPECT_EQ(failureClass(StatusCode::unsupported),
              FailureClass::usageError);
    EXPECT_EQ(failureClass(StatusCode::bufferTooSmall),
              FailureClass::resourceError);
    EXPECT_EQ(failureClass(StatusCode::internal), FailureClass::fault);
    EXPECT_EQ(failureClass(StatusCode::ioError), FailureClass::fault);

    EXPECT_EQ(failureClass(Status::corrupt("x")),
              FailureClass::dataError);
    EXPECT_EQ(failureClass(Status::okStatus()), FailureClass::none);
    EXPECT_STREQ(failureClassName(FailureClass::dataError),
                 "data_error");
}

TEST(BitIoTest, ForwardRoundTrip)
{
    BitWriter writer;
    writer.put(0b101, 3);
    writer.put(0xffff, 16);
    writer.put(0, 5);
    writer.put(0x123456789abull, 48);
    Bytes stream = writer.finish();

    BitReader reader(stream);
    EXPECT_EQ(reader.read(3).value(), 0b101u);
    EXPECT_EQ(reader.read(16).value(), 0xffffu);
    EXPECT_EQ(reader.read(5).value(), 0u);
    EXPECT_EQ(reader.read(48).value(), 0x123456789abull);
}

TEST(BitIoTest, ForwardTruncationDetected)
{
    BitWriter writer;
    writer.put(0xff, 8);
    Bytes stream = writer.finish();
    BitReader reader(stream);
    ASSERT_TRUE(reader.read(8).ok());
    // Terminator adds < 8 further bits; a 64-bit read must fail.
    EXPECT_FALSE(reader.read(56).ok());
}

TEST(BitIoTest, BackwardReaderReversesWriteOrder)
{
    BitWriter writer;
    writer.put(0x5, 4);   // first written
    writer.put(0x3a, 7);
    writer.put(0x1, 2);   // last written
    Bytes stream = writer.finish();

    auto reader = BackwardBitReader::open(stream);
    ASSERT_TRUE(reader.ok());
    // Backward reader returns most recently written first.
    EXPECT_EQ(reader.value().read(2).value(), 0x1u);
    EXPECT_EQ(reader.value().read(7).value(), 0x3au);
    EXPECT_EQ(reader.value().read(4).value(), 0x5u);
    EXPECT_EQ(reader.value().bitsLeft(), 0u);
}

TEST(BitIoTest, BackwardUnderflowDetected)
{
    BitWriter writer;
    writer.put(0x7, 3);
    Bytes stream = writer.finish();
    auto reader = BackwardBitReader::open(stream);
    ASSERT_TRUE(reader.ok());
    EXPECT_FALSE(reader.value().read(10).ok());
}

/** The oracle for BitWriter: the writer it replaced, which appended
 *  each completed byte with push_back. */
class ByteAtATimeWriter
{
  public:
    void
    put(u64 value, unsigned nbits)
    {
        acc_ |= value << filled_;
        filled_ += nbits;
        while (filled_ >= 8) {
            bytes_.push_back(static_cast<u8>(acc_));
            acc_ >>= 8;
            filled_ -= 8;
        }
    }

    u64 bitCount() const { return bytes_.size() * 8 + filled_; }

    Bytes
    finish()
    {
        put(1, 1);
        if (filled_ > 0) {
            bytes_.push_back(static_cast<u8>(acc_));
            acc_ = 0;
            filled_ = 0;
        }
        Bytes out = std::move(bytes_);
        bytes_.clear();
        return out;
    }

  private:
    Bytes bytes_;
    u64 acc_ = 0;
    unsigned filled_ = 0;
};

TEST(BitIoTest, WriterMatchesByteAtATimeOracle)
{
    Rng rng(77);
    for (int trial = 0; trial < 400; ++trial) {
        BitWriter writer;
        ByteAtATimeWriter oracle;
        // Two streams per writer: the second checks reuse after finish().
        for (int stream = 0; stream < 2; ++stream) {
            const std::size_t puts = rng.below(trial % 4 == 0 ? 2000 : 40);
            for (std::size_t i = 0; i < puts; ++i) {
                const auto nbits = static_cast<unsigned>(rng.below(57));
                const u64 value =
                    nbits == 0 ? 0 : rng.next() >> (64 - nbits);
                writer.put(value, nbits);
                oracle.put(value, nbits);
                ASSERT_EQ(writer.bitCount(), oracle.bitCount())
                    << "trial " << trial << " put " << i;
            }
            ASSERT_EQ(writer.finish(), oracle.finish())
                << "trial " << trial << " stream " << stream;
            ASSERT_EQ(writer.bitCount(), 0u);
        }
    }
}

TEST(BitIoTest, BackwardRejectsMissingTerminator)
{
    Bytes zeros(4, 0);
    EXPECT_FALSE(BackwardBitReader::open(zeros).ok());
    EXPECT_FALSE(BackwardBitReader::open({}).ok());
}

TEST(MemTest, UnalignedLoadsReadLittleEndian)
{
    const u8 bytes[] = {0x01, 0x02, 0x03, 0x04, 0x05,
                        0x06, 0x07, 0x08, 0x09};
    EXPECT_EQ(mem::loadU16(bytes + 1), 0x0302u);
    EXPECT_EQ(mem::loadU32(bytes + 1), 0x05040302u);
    EXPECT_EQ(mem::loadU64(bytes + 1), 0x0908070605040302ull);
}

TEST(MemTest, CountMatchingBytesFindsFirstMismatch)
{
    // Mismatch inside the first word, inside a later word, and at no
    // position (full agreement up to the limit).
    Bytes a(40, 0x5a);
    Bytes b = a;
    EXPECT_EQ(mem::countMatchingBytes(a.data(), b.data(), 40), 40u);
    EXPECT_EQ(mem::countMatchingBytes(a.data(), b.data(), 13), 13u);
    b[3] = 0;
    EXPECT_EQ(mem::countMatchingBytes(a.data(), b.data(), 40), 3u);
    b[3] = 0x5a;
    b[21] = 0;
    EXPECT_EQ(mem::countMatchingBytes(a.data(), b.data(), 40), 21u);
    EXPECT_EQ(mem::countMatchingBytes(a.data(), b.data(), 21), 21u);
    EXPECT_EQ(mem::countMatchingBytes(a.data(), b.data(), 0), 0u);
}

TEST(MemTest, WildCopyStaysInsideSlop)
{
    // A wild copy of n bytes may write up to the end rounded to the
    // tier's store width, but never past dst + n + kWildCopySlop - 1.
    // Run it at every tier the host offers: the nominal bytes must
    // match at all of them, and writes must stay inside that tier's
    // rounded region.
    const kernels::Tier original = kernels::activeTier();
    Bytes src(9 + mem::kWildCopySlop);
    for (std::size_t i = 0; i < src.size(); ++i)
        src[i] = static_cast<u8>(i + 1);
    for (kernels::Tier tier : kernels::availableTiers()) {
        ASSERT_TRUE(kernels::setActiveTier(tier).ok());
        const std::size_t width = kernels::storeWidth(tier);
        const std::size_t rounded = (9 + width - 1) / width * width;
        Bytes dst(9 + mem::kWildCopySlop, 0xcc);
        mem::wildCopy(dst.data(), src.data(), 9);
        for (std::size_t i = 0; i < 9; ++i)
            EXPECT_EQ(dst[i], src[i]) << kernels::tierName(tier);
        // Bytes beyond this tier's rounded-up end must be untouched.
        for (std::size_t i = rounded; i < dst.size(); ++i)
            EXPECT_EQ(dst[i], 0xcc)
                << kernels::tierName(tier) << " byte " << i;
    }
    ASSERT_TRUE(kernels::setActiveTier(original).ok());
}

TEST(MemTest, IncrementalCopyReplaysSmallOffsets)
{
    for (std::size_t offset : {1u, 2u, 3u, 5u, 7u}) {
        Bytes buf(offset + 30, 0);
        for (std::size_t i = 0; i < offset; ++i)
            buf[i] = static_cast<u8>(i + 1);
        mem::incrementalCopy(buf.data() + offset, offset, 30);
        for (std::size_t i = 0; i < offset + 30; ++i)
            EXPECT_EQ(buf[i], static_cast<u8>(i % offset + 1)) << i;
    }
}

TEST(MemTest, KernelStatsAccumulateAndReset)
{
    mem::kernelStats().reset();
    // wildCopy may read up to kWildCopySlop - 1 bytes past the source
    // end too, so the source carries the same slack as the destination.
    Bytes src(16 + mem::kWildCopySlop, 1);
    Bytes dst(16 + mem::kWildCopySlop, 0);
    mem::wildCopy(dst.data(), src.data(), 12);
    EXPECT_EQ(mem::kernelStats().wildCopyBytes, 12u);
    mem::kernelStats().reset();
    EXPECT_EQ(mem::kernelStats().wildCopyBytes, 0u);
}

TEST(RngTest, DeterministicForSeed)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1);
    Rng b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(10), 10u);
}

TEST(RngTest, UniformMeanNearHalf)
{
    Rng rng(99);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(HistogramTest, CdfAndQuantiles)
{
    WeightedHistogram h;
    h.add(1, 10);
    h.add(2, 30);
    h.add(3, 60);
    EXPECT_DOUBLE_EQ(h.totalWeight(), 100);
    EXPECT_DOUBLE_EQ(h.fractionAt(2), 0.3);
    EXPECT_DOUBLE_EQ(h.quantile(0.05), 1);
    EXPECT_DOUBLE_EQ(h.quantile(0.4), 2);
    EXPECT_DOUBLE_EQ(h.quantile(0.95), 3);
    auto cdf = h.cdf();
    ASSERT_EQ(cdf.size(), 3u);
    EXPECT_DOUBLE_EQ(cdf[1].cumFraction, 0.4);
}

TEST(HistogramTest, KsDistanceIdenticalIsZero)
{
    WeightedHistogram a;
    a.add(1, 5);
    a.add(4, 5);
    EXPECT_DOUBLE_EQ(WeightedHistogram::ksDistance(a, a), 0);
}

TEST(HistogramTest, KsDistanceDisjointIsOne)
{
    WeightedHistogram a;
    a.add(1, 1);
    WeightedHistogram b;
    b.add(10, 1);
    EXPECT_DOUBLE_EQ(WeightedHistogram::ksDistance(a, b), 1);
}

TEST(HistogramTest, CeilFloorLog2MatchLoopDefinitions)
{
    // The shift-loop definitions the bit-width forms replaced.
    const auto floor_loop = [](u64 v) {
        unsigned bits = 0;
        while (v >>= 1)
            ++bits;
        return bits;
    };
    const auto ceil_loop = [&](u64 v) {
        if (v <= 1)
            return 0u;
        const unsigned bits = floor_loop(v);
        return (v & (v - 1)) == 0 ? bits : bits + 1;
    };
    std::vector<u64> values = {0, 1, ~u64{0}};
    for (unsigned k = 1; k < 64; ++k) {
        const u64 p = u64{1} << k;
        values.insert(values.end(), {p - 1, p, p + 1});
    }
    for (u64 v : values) {
        EXPECT_EQ(floorLog2(v), floor_loop(v)) << v;
        EXPECT_EQ(ceilLog2(v), ceil_loop(v)) << v;
    }
}

TEST(HistogramTest, CeilFloorLog2)
{
    EXPECT_EQ(ceilLog2(0), 0u);
    EXPECT_EQ(ceilLog2(1), 0u);
    EXPECT_EQ(ceilLog2(2), 1u);
    EXPECT_EQ(ceilLog2(3), 2u);
    EXPECT_EQ(ceilLog2(1024), 10u);
    EXPECT_EQ(ceilLog2(1025), 11u);
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(1023), 9u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(CliTest, ParsesFlagsAndPositionals)
{
    const char *argv[] = {"prog", "--size=42", "--name", "abc",
                          "file.txt", "--verbose"};
    CliArgs args;
    ASSERT_TRUE(args.parse(6, argv, {"size", "name", "verbose"}));
    EXPECT_EQ(args.getInt("size", 0), 42);
    EXPECT_EQ(args.getString("name", ""), "abc");
    EXPECT_TRUE(args.getBool("verbose", false));
    ASSERT_EQ(args.positional().size(), 1u);
    EXPECT_EQ(args.positional()[0], "file.txt");
}

TEST(CliTest, RejectsUnknownFlag)
{
    const char *argv[] = {"prog", "--bogus=1"};
    CliArgs args;
    EXPECT_FALSE(args.parse(2, argv, {"size"}));
}

TEST(CliTest, DefaultsWhenAbsent)
{
    const char *argv[] = {"prog"};
    CliArgs args;
    ASSERT_TRUE(args.parse(1, argv, {"size"}));
    EXPECT_EQ(args.getInt("size", 7), 7);
    EXPECT_FALSE(args.has("size"));
}

TEST(TableTest, RendersAlignedColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"alpha", "1"});
    t.addRow({"b", "22"});
    std::string s = t.render();
    EXPECT_NE(s.find("| name  | value |"), std::string::npos);
    EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(TableTest, Formatters)
{
    EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
    EXPECT_EQ(TablePrinter::bytes(64 * 1024), "64 KiB");
    EXPECT_EQ(TablePrinter::bytes(2 * 1024 * 1024), "2 MiB");
    EXPECT_EQ(TablePrinter::bytes(100), "100 B");
    EXPECT_EQ(TablePrinter::percent(0.123, 1), "12.3%");
}

} // namespace
} // namespace cdpu

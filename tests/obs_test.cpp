/**
 * @file
 * Unit tests for the observability layer: the JSON document model
 * (dump/parse round-trips and error cases), counters and histograms
 * (snapshot/diff/merge, percentile math), and the trace session's
 * Chrome trace_event export, validated by parsing the emitted bytes
 * back rather than inspecting in-memory structures.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "obs/counters.h"
#include "obs/json.h"
#include "obs/kernel_stats.h"
#include "obs/trace.h"

namespace cdpu::obs
{
namespace
{

// --- JsonValue ----------------------------------------------------------

TEST(JsonTest, ScalarDump)
{
    EXPECT_EQ(JsonValue().dump(), "null");
    EXPECT_EQ(JsonValue(true).dump(), "true");
    EXPECT_EQ(JsonValue(false).dump(), "false");
    EXPECT_EQ(JsonValue(static_cast<u64>(42)).dump(), "42");
    EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(JsonTest, U64SurvivesExactly)
{
    // 2^63 + 1 is not representable as a double; the u64 fast path
    // must carry it through dump and parse unchanged.
    u64 big = (1ull << 63) + 1;
    std::string text = JsonValue(big).dump();
    EXPECT_EQ(text, "9223372036854775809");
    auto parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().asU64(), big);
}

TEST(JsonTest, ObjectPreservesInsertionOrder)
{
    JsonValue object = JsonValue::object();
    object.set("zebra", 1).set("apple", 2).set("mango", 3);
    EXPECT_EQ(object.dump(), "{\"zebra\":1,\"apple\":2,\"mango\":3}");
    object.set("zebra", 9); // Replacement keeps the original slot.
    EXPECT_EQ(object.dump(), "{\"zebra\":9,\"apple\":2,\"mango\":3}");
}

TEST(JsonTest, StringEscaping)
{
    JsonValue value(std::string("a\"b\\c\n\t\x01"));
    std::string text = value.dump();
    auto parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().asString(), value.asString());
}

TEST(JsonTest, ParseRoundTripNested)
{
    const char *text =
        "{\"a\": [1, 2.5, true, null], \"b\": {\"c\": \"x\"}}";
    auto parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.ok());
    const JsonValue &root = parsed.value();
    ASSERT_TRUE(root.isObject());
    ASSERT_TRUE(root.at("a").isArray());
    EXPECT_EQ(root.at("a").size(), 4u);
    EXPECT_DOUBLE_EQ(root.at("a").at(1).asDouble(), 2.5);
    EXPECT_TRUE(root.at("a").at(2).asBool());
    EXPECT_TRUE(root.at("a").at(3).isNull());
    EXPECT_EQ(root.at("b").at("c").asString(), "x");

    // Dump and reparse: structurally identical.
    auto again = JsonValue::parse(root.dump());
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value().dump(), root.dump());
}

TEST(JsonTest, PrettyPrintParsesBack)
{
    JsonValue object = JsonValue::object();
    object.set("list", JsonValue::array());
    auto parsed = JsonValue::parse(object.dump(2));
    ASSERT_TRUE(parsed.ok());
    EXPECT_TRUE(parsed.value().at("list").isArray());
}

TEST(JsonTest, ParseErrors)
{
    EXPECT_FALSE(JsonValue::parse("").ok());
    EXPECT_FALSE(JsonValue::parse("{").ok());
    EXPECT_FALSE(JsonValue::parse("[1,]").ok());
    EXPECT_FALSE(JsonValue::parse("{\"a\":1} trailing").ok());
    EXPECT_FALSE(JsonValue::parse("'single'").ok());
    EXPECT_FALSE(JsonValue::parse("{\"a\" 1}").ok());
}

TEST(JsonTest, RejectsRawControlCharactersInStrings)
{
    // RFC 8259 §7: control characters must arrive escaped. A raw
    // newline or NUL inside a string is a malformed document, not a
    // character to pass through.
    EXPECT_FALSE(JsonValue::parse("\"a\nb\"").ok());
    EXPECT_FALSE(JsonValue::parse("\"a\tb\"").ok());
    EXPECT_FALSE(JsonValue::parse(std::string("\"a\0b\"", 5)).ok());
    EXPECT_FALSE(JsonValue::parse("{\"k\x01\": 1}").ok());
    // The escaped spellings of the same strings are fine.
    auto escaped = JsonValue::parse("\"a\\nb\"");
    ASSERT_TRUE(escaped.ok());
    EXPECT_EQ(escaped.value().asString(), "a\nb");
}

TEST(JsonTest, HostileStringsRoundTripThroughDump)
{
    // Keys and values full of quotes, backslashes, and control bytes
    // must survive a dump/parse cycle byte-for-byte — these are the
    // strings a corrupt corpus file or fuzz artifact feeds the
    // telemetry pipeline.
    JsonValue object = JsonValue::object();
    object.set("he\"said\\", JsonValue(std::string("\x01\x1f\n\r\t")));
    object.set("\b\f", JsonValue(std::string("plain")));
    auto parsed = JsonValue::parse(object.dump());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().at("he\"said\\").asString(),
              std::string("\x01\x1f\n\r\t"));
    EXPECT_EQ(parsed.value().at("\b\f").asString(), "plain");
    EXPECT_EQ(parsed.value().dump(), object.dump());
}

TEST(JsonTest, SurrogatePairsDecodeAndLoneSurrogatesFail)
{
    // \uD83D\uDE00 is U+1F600; it must combine into one 4-byte UTF-8
    // sequence, not two 3-byte WTF-8 halves.
    auto emoji = JsonValue::parse("\"\\ud83d\\ude00\"");
    ASSERT_TRUE(emoji.ok());
    EXPECT_EQ(emoji.value().asString(), "\xF0\x9F\x98\x80");
    // Either half alone, or a high half followed by a non-low unit,
    // is invalid.
    EXPECT_FALSE(JsonValue::parse("\"\\ud83d\"").ok());
    EXPECT_FALSE(JsonValue::parse("\"\\ude00\"").ok());
    EXPECT_FALSE(JsonValue::parse("\"\\ud83d\\u0041\"").ok());
    EXPECT_FALSE(JsonValue::parse("\"\\ud83dx\"").ok());
}

// --- Counters and histograms -------------------------------------------

TEST(CounterTest, RegistryHandlesAreStable)
{
    CounterRegistry registry;
    Counter &hits = registry.counter("mem.l2.hits");
    hits.add(3);
    hits.increment();
    // Same name returns the same counter.
    EXPECT_EQ(registry.counter("mem.l2.hits").value(), 4u);
    registry.counter("mem.l2.misses").set(7);

    CounterSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.at("mem.l2.hits"), 4u);
    EXPECT_EQ(snapshot.at("mem.l2.misses"), 7u);
    EXPECT_EQ(snapshot.at("no.such.counter"), 0u);
    EXPECT_FALSE(snapshot.has("no.such.counter"));

    registry.reset();
    EXPECT_EQ(registry.counter("mem.l2.hits").value(), 0u);
    // Names stay registered across reset.
    EXPECT_TRUE(registry.snapshot().has("mem.l2.misses"));
}

TEST(KernelStatsTest, ExportPublishesDottedCountersIdempotently)
{
    mem::KernelStats stats;
    stats.wildCopyBytes = 123;
    stats.snappyFastCopies = 4;
    stats.bitioFastRefills = 9;

    CounterRegistry registry;
    exportKernelStats(registry, stats);
    exportKernelStats(registry, stats); // set(), not add(): idempotent.
    CounterSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.at("kernel.mem.wild_copy_bytes"), 123u);
    EXPECT_EQ(snapshot.at("kernel.snappy.fast_copies"), 4u);
    EXPECT_EQ(snapshot.at("kernel.bitio.fast_refills"), 9u);
    EXPECT_TRUE(snapshot.has("kernel.bitio.backward_fast_refills"));
    EXPECT_TRUE(snapshot.has("kernel.lz77.match_word_compares"));
}

TEST(KernelStatsTest, ProcessWideInstanceTracksWildCopies)
{
    resetKernelStats();
    Bytes src(32, 7);
    Bytes dst(32 + mem::kWildCopySlop, 0);
    mem::wildCopy(dst.data(), src.data(), 20);
    CounterRegistry registry;
    exportKernelStats(registry);
    EXPECT_EQ(registry.snapshot().at("kernel.mem.wild_copy_bytes"),
              20u);
    resetKernelStats();
}

TEST(CounterTest, SnapshotDiffIsolatesAWindow)
{
    CounterRegistry registry;
    registry.counter("pu.cycles").add(100);
    registry.histogram("pu.call_bytes").record(512);
    CounterSnapshot before = registry.snapshot();

    registry.counter("pu.cycles").add(40);
    registry.counter("pu.calls").increment();
    registry.histogram("pu.call_bytes").record(2048);
    CounterSnapshot after = registry.snapshot();

    CounterSnapshot delta = after.diff(before);
    EXPECT_EQ(delta.at("pu.cycles"), 40u);
    EXPECT_EQ(delta.at("pu.calls"), 1u); // Absent-before passes through.
    EXPECT_EQ(delta.histograms.at("pu.call_bytes").count, 1u);
    EXPECT_EQ(delta.histograms.at("pu.call_bytes").sum, 2048u);
}

TEST(CounterTest, AbsentNamesReadZeroAndEmpty)
{
    // Reading a counter or histogram that was never touched must be a
    // harmless zero, not a throw: report accessors run on empty
    // replays. Regression: callers used histograms.at(), which throws
    // on a replay whose stream recorded no latency samples.
    CounterSnapshot snap;
    EXPECT_EQ(snap.at("never.touched"), 0u);
    const HistogramSnapshot &hist = snap.histogramAt("never.touched");
    EXPECT_EQ(hist.count, 0u);
    EXPECT_EQ(hist.sum, 0u);

    snap.counters["present"] = 7;
    EXPECT_EQ(snap.at("present"), 7u);
    EXPECT_EQ(snap.histogramAt("present").count, 0u);
}

TEST(CounterTest, DiffSaturatesAtZero)
{
    CounterSnapshot before;
    before.counters["c"] = 10;
    CounterSnapshot after;
    after.counters["c"] = 4; // Reset between snapshots.
    EXPECT_EQ(after.diff(before).at("c"), 0u);
}

TEST(CounterTest, MergeAccumulates)
{
    CounterRegistry a;
    a.counter("pu.calls").add(2);
    a.histogram("pu.call_cycles").record(10);
    CounterRegistry b;
    b.counter("pu.calls").add(3);
    b.counter("pu.cycles").add(99);
    b.histogram("pu.call_cycles").record(30);

    CounterSnapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.at("pu.calls"), 5u);
    EXPECT_EQ(merged.at("pu.cycles"), 99u);
    const HistogramSnapshot &h = merged.histograms.at("pu.call_cycles");
    EXPECT_EQ(h.count, 2u);
    EXPECT_EQ(h.sum, 40u);
    EXPECT_EQ(h.min, 10u);
    EXPECT_EQ(h.max, 30u);
}

TEST(CounterTest, SnapshotJsonRoundTrip)
{
    CounterRegistry registry;
    registry.counter("mem.dram.accesses").set(123456789ull);
    registry.histogram("pu.call_bytes").record(4096);
    auto parsed =
        JsonValue::parse(registry.snapshot().toJsonString());
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value()
                  .at("counters")
                  .at("mem.dram.accesses")
                  .asU64(),
              123456789ull);
    EXPECT_EQ(
        parsed.value().at("histograms").at("pu.call_bytes").at("count")
            .asU64(),
        1u);
}

TEST(HistogramTest, BucketOf)
{
    EXPECT_EQ(Histogram::bucketOf(0), 0u);
    EXPECT_EQ(Histogram::bucketOf(1), 1u);
    EXPECT_EQ(Histogram::bucketOf(2), 2u);
    EXPECT_EQ(Histogram::bucketOf(3), 2u);
    EXPECT_EQ(Histogram::bucketOf(4), 3u);
    EXPECT_EQ(Histogram::bucketOf(~0ull), 64u);
}

TEST(HistogramTest, PercentilesOfUniformRamp)
{
    Histogram histogram;
    for (u64 v = 1; v <= 1000; ++v)
        histogram.record(v);
    const HistogramSnapshot &snapshot = histogram.snapshot();
    EXPECT_EQ(snapshot.count, 1000u);
    EXPECT_EQ(snapshot.min, 1u);
    EXPECT_EQ(snapshot.max, 1000u);
    EXPECT_DOUBLE_EQ(snapshot.mean(), 500.5);
    // Log2 buckets are coarse: allow one bucket's width of slack.
    EXPECT_NEAR(snapshot.percentile(0.5), 500, 260);
    EXPECT_NEAR(snapshot.percentile(0.99), 990, 30);
    // The extremes are exact thanks to the [min, max] clamp.
    EXPECT_DOUBLE_EQ(snapshot.percentile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(snapshot.percentile(1.0), 1000.0);
}

TEST(HistogramTest, HighQuantilesSeparateInsideOneBucket)
{
    // Regression: values 600..799 all land in the [512, 1024) log2
    // bucket. Interpolating over the full bucket range used to clamp
    // every high quantile to max, so p99 == p999 == 799 and latency
    // SLOs could not tell them apart. With the [min, max] narrowing
    // they interpolate inside the observed range.
    Histogram histogram;
    for (u64 v = 600; v < 800; ++v)
        histogram.record(v);
    const HistogramSnapshot &snapshot = histogram.snapshot();
    const double p50 = snapshot.percentile(0.50);
    const double p99 = snapshot.percentile(0.99);
    const double p999 = snapshot.percentile(0.999);
    EXPECT_GT(p99, p50);
    EXPECT_GT(p999, p99);
    EXPECT_NEAR(p50, 699.5, 2.0);
    EXPECT_NEAR(p99, 798, 2.0);
    EXPECT_NEAR(p999, 799, 1.0);
    EXPECT_LE(p999, static_cast<double>(snapshot.max));
    EXPECT_GE(p50, static_cast<double>(snapshot.min));
}

TEST(HistogramTest, SnapshotJsonCarriesP999)
{
    Histogram histogram;
    for (u64 v = 1; v <= 100; ++v)
        histogram.record(v);
    const JsonValue out = histogram.snapshot().toJson();
    ASSERT_TRUE(out.has("p999"));
    EXPECT_GE(out.at("p999").asDouble(), out.at("p99").asDouble());
}

TEST(HistogramTest, PercentileOfEmptyAndSingle)
{
    Histogram histogram;
    EXPECT_DOUBLE_EQ(histogram.snapshot().percentile(0.5), 0.0);
    histogram.record(77);
    EXPECT_DOUBLE_EQ(histogram.snapshot().percentile(0.5), 77.0);
    EXPECT_DOUBLE_EQ(histogram.snapshot().percentile(0.99), 77.0);
}

/** The invariants every published percentile relies on: validate()'s
 *  (bucket counts sum to count; p50..p999 monotone inside [min, max]),
 *  and percentile never decreasing on a 1,001-point q grid. */
void
expectWellFormed(const HistogramSnapshot &snapshot, u64 trial)
{
    const Status valid = snapshot.validate();
    ASSERT_TRUE(valid.ok()) << "trial " << trial << ": "
                            << valid.toString();
    double previous = snapshot.percentile(0.0);
    for (int step = 0; step <= 1000; ++step) {
        const double q = step / 1000.0;
        const double value = snapshot.percentile(q);
        ASSERT_GE(value, previous) << "trial " << trial << " q " << q;
        ASSERT_GE(value, static_cast<double>(snapshot.min))
            << "trial " << trial << " q " << q;
        ASSERT_LE(value, static_cast<double>(snapshot.max))
            << "trial " << trial << " q " << q;
        previous = value;
    }
}

HistogramSnapshot
randomLatencies(Rng &rng)
{
    Histogram histogram;
    const u64 samples = rng.range(2, 2000);
    const double mu = 6.0 + 8.0 * rng.uniform();
    const double sigma = 0.2 + 2.0 * rng.uniform();
    for (u64 i = 0; i < samples; ++i)
        histogram.record(static_cast<u64>(rng.logNormal(mu, sigma)));
    return histogram.snapshot();
}

TEST(HistogramTest, RandomHistogramsKeepPercentilesMonotoneAndBounded)
{
    // Regression: a rank between the last sample of one bucket and the
    // first of the next interpolated with a negative fraction, so e.g.
    // p99 could read below p90.
    Rng rng(20261017);
    for (u64 trial = 0; trial < 1000; ++trial) {
        const HistogramSnapshot first = randomLatencies(rng);
        expectWellFormed(first, trial);
        HistogramSnapshot merged = first;
        merged.merge(randomLatencies(rng));
        expectWellFormed(merged, trial);
        expectWellFormed(merged.diff(first), trial);
        if (HasFatalFailure())
            return;
    }
}

TEST(HistogramTest, ValidateRejectsHandBrokenPublishedHistograms)
{
    Histogram histogram;
    for (u64 v = 1; v <= 1000; ++v)
        histogram.record(v);
    const JsonValue good = histogram.snapshot().toJson();
    ASSERT_TRUE(HistogramSnapshot::validate(good).ok());

    // Each edit breaks one invariant of an otherwise valid document.
    const std::pair<const char *, const char *> edits[] = {
        {"\"p99\": 990", "\"p99\": 10"},     // p99 below p90.
        {"\"p999\": 999", "\"p999\": 5000"}, // p999 above max.
        {"\"count\": 1000", "\"count\": 999"}, // buckets overcount.
    };
    const std::string text = good.dump(1);
    for (const auto &[from, to] : edits) {
        std::string broken = text;
        const std::size_t at = broken.find(from);
        ASSERT_NE(at, std::string::npos) << from << " in " << text;
        broken.replace(at, std::string(from).size(), to);
        auto parsed = JsonValue::parse(broken);
        ASSERT_TRUE(parsed.ok());
        EXPECT_EQ(HistogramSnapshot::validate(parsed.value()).code(),
                  StatusCode::corruptData)
            << to;
    }

    // Missing, non-numeric, negative and overflowing fields are
    // rejected by name rather than read as 0 or wrapped.
    const std::pair<const char *, const char *> malformed[] = {
        {R"({"count":1,"sum":4,"max":9,"buckets":{"3":1},"p50":"fast",)"
         R"("p90":null,"p99":5,"p999":5})",
         "min missing"},
        {R"({"count":1,"sum":4,"min":4,"max":9,"buckets":{"3":1},)"
         R"("p50":"fast","p90":5,"p99":5,"p999":5})",
         "p50 is \"fast\""},
        {R"({"count":1,"sum":4,"min":4,"max":9,"buckets":{"3":1},)"
         R"("p50":5,"p90":null,"p99":5,"p999":5})",
         "p90 is null"},
        {R"({"count":-1,"sum":4,"min":4,"max":9,"buckets":{"3":-1},)"
         R"("p50":5,"p90":5,"p99":5,"p999":5})",
         "count is -1"},
        {R"({"count":1,"sum":4,"min":4,"max":9,"buckets":{"3":-1},)"
         R"("p50":5,"p90":5,"p99":5,"p999":5})",
         "buckets.3 is -1"},
        {R"({"count":1,"sum":4,"min":-4,"max":9,"buckets":{"3":1},)"
         R"("p50":5,"p90":5,"p99":5,"p999":5})",
         "min is -4"},
        {R"({"count":0,"sum":4,"min":4,"max":9,)"
         R"("buckets":{"3":18446744073709551615,"4":1},)"
         R"("p50":5,"p90":5,"p99":5,"p999":5})",
         "buckets sum past 2^64 at buckets.4"},
        {R"({"count":1,"sum":4,"min":4,"max":9,"p50":5,"p90":5,)"
         R"("p99":5,"p999":5})",
         "buckets missing"},
    };
    for (const auto &[json, error] : malformed) {
        auto parsed = JsonValue::parse(json);
        ASSERT_TRUE(parsed.ok()) << json;
        const Status status = HistogramSnapshot::validate(parsed.value());
        EXPECT_EQ(status.code(), StatusCode::corruptData) << json;
        EXPECT_NE(status.message().find(error), std::string::npos)
            << status.message() << " lacks " << error;
    }
}

// --- TraceSession -------------------------------------------------------

TEST(TraceTest, EmitsWellFormedChromeTraceJson)
{
    TraceSession session;
    session.setTrackName(0, "calls");
    session.setTrackName(2, "compute");
    session.span("call", "pu", 100, 50, 0);
    session.span("compute", "pu", 110, 30, 2);
    session.instant("tlb_miss", "mem", 125, 0);
    session.counterSample("in_flight", 120, 7);
    EXPECT_EQ(session.size(), 4u);

    auto parsed = JsonValue::parse(session.toJsonString(1));
    ASSERT_TRUE(parsed.ok());
    const JsonValue &root = parsed.value();
    EXPECT_EQ(root.at("displayTimeUnit").asString(), "ns");
    const JsonValue &events = root.at("traceEvents");
    ASSERT_TRUE(events.isArray());
    // 4 events + 2 thread_name metadata records.
    ASSERT_EQ(events.size(), 6u);

    unsigned spans = 0, instants = 0, counters = 0, metadata = 0;
    for (const JsonValue &event : events.items()) {
        ASSERT_TRUE(event.isObject());
        const std::string &phase = event.at("ph").asString();
        EXPECT_EQ(event.at("pid").asU64(), 1u);
        if (phase == "M") {
            ++metadata;
            EXPECT_EQ(event.at("name").asString(), "thread_name");
            continue;
        }
        ASSERT_TRUE(event.has("ts"));
        if (phase == "X") {
            ++spans;
            EXPECT_TRUE(event.has("dur"));
        } else if (phase == "i") {
            ++instants;
            EXPECT_EQ(event.at("s").asString(), "t");
        } else if (phase == "C") {
            ++counters;
            EXPECT_TRUE(event.at("args").has("value"));
        }
    }
    EXPECT_EQ(spans, 2u);
    EXPECT_EQ(instants, 1u);
    EXPECT_EQ(counters, 1u);
    EXPECT_EQ(metadata, 2u);
}

TEST(TraceTest, SpanFieldsSurviveExport)
{
    TraceSession session;
    session.span("fetch", "pu", 1000, 250, 1);
    auto parsed = JsonValue::parse(session.toJsonString());
    ASSERT_TRUE(parsed.ok());
    const JsonValue &event = parsed.value().at("traceEvents").at(0);
    EXPECT_EQ(event.at("name").asString(), "fetch");
    EXPECT_EQ(event.at("cat").asString(), "pu");
    EXPECT_EQ(event.at("ts").asU64(), 1000u);
    EXPECT_EQ(event.at("dur").asU64(), 250u);
    EXPECT_EQ(event.at("tid").asU64(), 1u);
}

TEST(TraceTest, WriteFileAndClear)
{
    TraceSession session;
    session.span("s", "c", 0, 10);
    std::string path =
        testing::TempDir() + "obs_test_out.trace.json";
    ASSERT_TRUE(session.writeFile(path).ok());

    std::FILE *file = std::fopen(path.c_str(), "rb");
    ASSERT_NE(file, nullptr);
    std::string text;
    char buffer[4096];
    std::size_t n;
    while ((n = std::fread(buffer, 1, sizeof(buffer), file)) > 0)
        text.append(buffer, n);
    std::fclose(file);
    std::remove(path.c_str());

    auto parsed = JsonValue::parse(text);
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value().at("traceEvents").size(), 1u);

    session.clear();
    EXPECT_TRUE(session.empty());
}

TEST(TraceTest, WriteFileToBadPathFails)
{
    TraceSession session;
    Status status = session.writeFile("/no/such/dir/out.json");
    EXPECT_FALSE(status.ok());
}

TEST(TraceTest, ScopedSpanRecordsClockWindow)
{
    TraceSession session;
    Tick clock = 100;
    {
        ScopedSpan span(&session, clock, "phase", "sim", 3);
        clock = 175;
    }
    ASSERT_EQ(session.size(), 1u);
    auto parsed = JsonValue::parse(session.toJsonString());
    ASSERT_TRUE(parsed.ok());
    const JsonValue &event = parsed.value().at("traceEvents").at(0);
    EXPECT_EQ(event.at("ts").asU64(), 100u);
    EXPECT_EQ(event.at("dur").asU64(), 75u);
    EXPECT_EQ(event.at("tid").asU64(), 3u);

    // Null session: a no-op, not a crash.
    { ScopedSpan noop(nullptr, clock, "x", "y"); }
    EXPECT_EQ(session.size(), 1u);
}

// --- ShardedCounterRegistry ------------------------------------------

TEST(ShardedCounterTest, MergedSnapshotSumsAcrossShards)
{
    ShardedCounterRegistry sharded(4);
    ASSERT_EQ(sharded.shardCount(), 4u);
    for (unsigned shard = 0; shard < 4; ++shard) {
        sharded.withShard(shard, [&](CounterRegistry &registry) {
            registry.counter("serve.calls").add(shard + 1);
            registry.histogram("latency").record(100 * (shard + 1));
        });
    }
    // Shard 0 also owns a counter no other shard touches: merge must
    // pass it through, not require presence everywhere.
    sharded.withShard(0, [](CounterRegistry &registry) {
        registry.counter("only.zero").add(7);
    });

    CounterSnapshot merged = sharded.mergedSnapshot();
    EXPECT_EQ(merged.at("serve.calls"), 1u + 2 + 3 + 4);
    EXPECT_EQ(merged.at("only.zero"), 7u);
    const HistogramSnapshot &latency = merged.histograms.at("latency");
    EXPECT_EQ(latency.count, 4u);
    EXPECT_EQ(latency.sum, 100u + 200 + 300 + 400);
    EXPECT_EQ(latency.min, 100u);
    EXPECT_EQ(latency.max, 400u);
}

TEST(ShardedCounterTest, ShardIndexWrapsAndResetZeroes)
{
    ShardedCounterRegistry sharded(2);
    sharded.withShard(5, [](CounterRegistry &registry) {
        registry.counter("c").add(3); // 5 % 2 == shard 1
    });
    sharded.withShard(1, [](CounterRegistry &registry) {
        registry.counter("c").add(4);
    });
    EXPECT_EQ(sharded.mergedSnapshot().at("c"), 7u);

    sharded.reset();
    CounterSnapshot after = sharded.mergedSnapshot();
    EXPECT_EQ(after.at("c"), 0u); // name survives, value zeroed
    EXPECT_TRUE(after.has("c"));
}

TEST(ShardedCounterTest, MergedSnapshotIsSafeDuringConcurrentWrites)
{
    constexpr unsigned kWriters = 4;
    constexpr u64 kAddsPerWriter = 20000;
    ShardedCounterRegistry sharded(kWriters);

    std::vector<std::thread> writers;
    for (unsigned w = 0; w < kWriters; ++w) {
        writers.emplace_back([&, w] {
            for (u64 i = 0; i < kAddsPerWriter; ++i) {
                sharded.withShard(w, [&](CounterRegistry &registry) {
                    registry.counter("hits").increment();
                    registry.histogram("value").record(i & 1023);
                });
            }
        });
    }
    // Live snapshots while writers run: values are a consistent
    // monotonic prefix, never garbage and never above the final total.
    u64 last = 0;
    for (int probe = 0; probe < 50; ++probe) {
        u64 seen = sharded.mergedSnapshot().at("hits");
        EXPECT_GE(seen, last);
        EXPECT_LE(seen, kWriters * kAddsPerWriter);
        last = seen;
    }
    for (auto &writer : writers)
        writer.join();

    CounterSnapshot final_snapshot = sharded.mergedSnapshot();
    EXPECT_EQ(final_snapshot.at("hits"), kWriters * kAddsPerWriter);
    EXPECT_EQ(final_snapshot.histograms.at("value").count,
              kWriters * kAddsPerWriter);
}

TEST(KernelStatsTest, MergeAndDiffAreFieldWise)
{
    mem::KernelStats a;
    a.wildCopyBytes = 100;
    a.bitioFastRefills = 5;
    mem::KernelStats b;
    b.wildCopyBytes = 7;
    b.matchWordCompares = 3;
    a.merge(b);
    EXPECT_EQ(a.wildCopyBytes, 107u);
    EXPECT_EQ(a.bitioFastRefills, 5u);
    EXPECT_EQ(a.matchWordCompares, 3u);

    mem::KernelStats delta = a.diff(b);
    EXPECT_EQ(delta.wildCopyBytes, 100u);
    EXPECT_EQ(delta.matchWordCompares, 0u);
    EXPECT_EQ(delta.bitioFastRefills, 5u);
}

TEST(KernelStatsTest, InstancesArePerThread)
{
    // The process-wide accessor hands each thread its own instance;
    // a worker's codec activity must not bleed into this thread's.
    mem::kernelStats().reset();
    mem::KernelStats observed_in_thread;
    std::thread worker([&] {
        mem::kernelStats().reset();
        mem::kernelStats().wildCopyBytes += 42;
        observed_in_thread = mem::kernelStats();
    });
    worker.join();
    EXPECT_EQ(observed_in_thread.wildCopyBytes, 42u);
    EXPECT_EQ(mem::kernelStats().wildCopyBytes, 0u);
}

TEST(TraceTest, ConcurrentEmittersProduceCompleteExport)
{
    // TraceSession's mutators are mutex-guarded; N threads emitting
    // spans concurrently must lose nothing and still export valid
    // JSON (exercised under TSan in CI).
    TraceSession session;
    constexpr unsigned kThreads = 4;
    constexpr int kSpansPerThread = 500;
    std::vector<std::thread> emitters;
    for (unsigned t = 0; t < kThreads; ++t) {
        emitters.emplace_back([&, t] {
            for (int i = 0; i < kSpansPerThread; ++i) {
                session.span("span", "cat", 100 * i, 100 * i + 50, t);
                if (i % 100 == 0)
                    session.instant("mark", "cat", 100 * i, t);
            }
        });
    }
    for (auto &emitter : emitters)
        emitter.join();

    EXPECT_EQ(session.size(),
              kThreads * (kSpansPerThread + kSpansPerThread / 100));
    auto parsed = JsonValue::parse(session.toJsonString());
    ASSERT_TRUE(parsed.ok()) << parsed.status().message();
    EXPECT_EQ(parsed.value().at("traceEvents").size(), session.size());
}

} // namespace
} // namespace cdpu::obs

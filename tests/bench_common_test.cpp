/**
 * @file
 * Tests for bench_scaling's sweep harness (bench/bench_common.h): the
 * per-point spread, the worker ladder, the speedup headline keyed on
 * the measured parallelism P rather than on the host's nproc, and the
 * latency histograms each sweep point publishes.
 */

#include <gtest/gtest.h>

#include "bench_common.h"

namespace cdpu::bench
{
namespace
{

std::vector<SweepPoint>
ladderWithMedians(std::initializer_list<std::pair<unsigned, double>> rows)
{
    std::vector<SweepPoint> points;
    for (auto [workers, median] : rows) {
        SweepPoint point;
        point.workers = workers;
        point.mbPerSec = {median * 1.02, median, median * 0.97};
        points.push_back(point);
    }
    return points;
}

TEST(SpreadTest, MedianMinAndIqrOfKnownSamples)
{
    const Spread odd = spreadOf({5.0, 1.0, 4.0, 2.0, 3.0});
    EXPECT_DOUBLE_EQ(odd.median, 3.0);
    EXPECT_DOUBLE_EQ(odd.min, 1.0);
    EXPECT_DOUBLE_EQ(odd.iqr, 2.0); // Quartiles 2 and 4.

    const Spread even = spreadOf({4.0, 1.0, 3.0, 2.0});
    EXPECT_DOUBLE_EQ(even.median, 2.5);
    EXPECT_DOUBLE_EQ(even.iqr, 1.5); // Quartiles 1.75 and 3.25.
}

TEST(SweepLadderTest, DoublesThenEndsAtTheMaximum)
{
    EXPECT_EQ(workerLadder(8), (std::vector<unsigned>{1, 2, 4, 8}));
    EXPECT_EQ(workerLadder(6), (std::vector<unsigned>{1, 2, 4, 6}));
    EXPECT_EQ(workerLadder(0), (std::vector<unsigned>{1}));
}

TEST(ScalingHeadlineTest, StarvedHostMakesNoSpeedupClaim)
{
    // P = 1.5 < 0.8 x 2: no point with two or more workers got its
    // threads, so the section is core-bound with no speedup_best.
    const std::vector<SweepPoint> points =
        ladderWithMedians({{1, 100.0}, {2, 180.0}, {4, 250.0}});
    obs::JsonValue section = obs::JsonValue::object();
    scalingHeadline(section, points, 1.5);
    EXPECT_TRUE(section.at("core_bound").asBool());
    EXPECT_FALSE(section.has("speedup_best"));
    // Both throughput endpoints stay reported: the refusal is about
    // the ratio's meaning, not about hiding data.
    EXPECT_DOUBLE_EQ(section.at("mb_per_sec_1w").asDouble(), 100.0);
    EXPECT_DOUBLE_EQ(section.at("mb_per_sec_best").asDouble(), 250.0);
}

TEST(ScalingHeadlineTest, SpeedupSkipsOnlyTheCoreBoundPoints)
{
    // P = 3.8 on 1/2/4/8: only 8 workers need more than 3.8 / 0.8.
    const double parallelism = 3.8;
    EXPECT_FALSE(coreBound(1, parallelism));
    EXPECT_FALSE(coreBound(2, parallelism));
    EXPECT_FALSE(coreBound(4, parallelism));
    EXPECT_TRUE(coreBound(8, parallelism));

    const std::vector<SweepPoint> points = ladderWithMedians(
        {{1, 100.0}, {2, 190.0}, {4, 300.0}, {8, 420.0}});
    obs::JsonValue section = obs::JsonValue::object();
    scalingHeadline(section, points, parallelism);
    EXPECT_FALSE(section.at("core_bound").asBool());
    // The 8-worker median is the fastest but time-sliced, so the
    // speedup comes from the 2- and 4-worker points.
    ASSERT_TRUE(section.has("speedup_best"));
    EXPECT_DOUBLE_EQ(section.at("speedup_best").asDouble(), 3.0);
    EXPECT_DOUBLE_EQ(section.at("mb_per_sec_best").asDouble(), 420.0);
}

TEST(RunSweepTest, PublishesTheLatencyHistogramOfPointsWithSamples)
{
    std::vector<SweepPoint> points =
        ladderWithMedians({{1, 100.0}, {2, 190.0}});
    obs::Histogram latency;
    for (u64 ns = 1000; ns <= 900000; ns += 7919)
        latency.record(ns);
    points[0].latency = latency.snapshot();
    obs::JsonValue section = obs::JsonValue::object();
    ASSERT_TRUE(runSweep(
        "synthetic", 1, points, [](int) { return true; }, section));
    const obs::JsonValue &sweep = section.at("sweep");
    ASSERT_EQ(sweep.size(), 2u);

    const obs::JsonValue &timed = sweep.at(0);
    ASSERT_TRUE(timed.has("latency_ns"));
    const obs::JsonValue &histogram = timed.at("latency_ns");
    EXPECT_TRUE(obs::HistogramSnapshot::validate(histogram).ok());
    EXPECT_EQ(histogram.at("count").asU64(), latency.snapshot().count);
    for (const auto &[flat, quantile] :
         {std::pair{"latency_p50_us", "p50"},
          std::pair{"latency_p99_us", "p99"},
          std::pair{"latency_p999_us", "p999"}}) {
        const double us = timed.at(flat).asDouble();
        EXPECT_NEAR(histogram.at(quantile).asDouble(), us * 1e3, us * 1e-9)
            << quantile;
    }

    // No samples, no histogram (and no flat percentiles).
    EXPECT_FALSE(sweep.at(1).has("latency_ns"));
    EXPECT_FALSE(sweep.at(1).has("latency_p50_us"));
}

} // namespace
} // namespace cdpu::bench

/**
 * @file
 * Tests for bench_scaling's sweep harness (bench/bench_common.h): the
 * per-point spread, the worker ladder, and the speedup headline keyed
 * on the measured parallelism P rather than on the host's nproc.
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

} // namespace
} // namespace cdpu::bench

/**
 * @file
 * The benchmark's own tests: exact order statistics, the parallelism
 * probe, the metric-name charset, the result line's shape, and a
 * tiny-size run of every workload in both modes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>

#include "harness.h"
#include "obs/json.h"
#include "workloads.h"

namespace perfbench
{
namespace
{

TEST(Percentile, ExactOrderStatistics)
{
    const std::vector<double> sorted = {1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.5), 3.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 1.0), 5.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.25), 2.0);
    EXPECT_DOUBLE_EQ(quantileSorted(sorted, 0.125), 1.5);
    EXPECT_DOUBLE_EQ(quantileSorted({7}, 0.99), 7.0);
    EXPECT_DOUBLE_EQ(quantileSorted({}, 0.5), 0.0);
    EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
}

TEST(Percentile, MonotoneAndInsideRange)
{
    // Log-normal-ish samples: the shape that broke the bucketed
    // histogram percentile.
    std::vector<double> samples;
    double x = 1.0;
    for (int i = 0; i < 681; ++i) {
        x = std::fmod(x * 7919.0 + 13.0, 104729.0);
        samples.push_back(std::exp(x / 10000.0));
    }
    Summary s = summarize(samples);
    EXPECT_TRUE(s.consistent());
    std::sort(samples.begin(), samples.end());
    double last = samples.front();
    for (int i = 0; i <= 1000; ++i) {
        const double v = quantileSorted(samples, i / 1000.0);
        EXPECT_GE(v, last);
        EXPECT_GE(v, samples.front());
        EXPECT_LE(v, samples.back());
        last = v;
    }
}

TEST(Percentile, TailNeedsTenSamplesBeyond)
{
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(0), 0.0);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(19), 0.0);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(21), 0.5);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(200), 0.9);
    // The interpolated p99 of 901 samples sits on the 892nd, leaving 9
    // above it; of 902 it sits between the 892nd and 893rd, leaving 10.
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(901), 0.9);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(902), 0.99);
    EXPECT_DOUBLE_EQ(highestSupportedQuantile(10000), 0.999);
}

TEST(Probe, ParallelismIsSane)
{
    const ParallelismProbe one = probeParallelism(1);
    EXPECT_GT(one.oneThreadSeconds, 0.0);
    EXPECT_GT(one.effective, 0.5);
    EXPECT_LT(one.effective, 1.5);
    const ParallelismProbe two = probeParallelism(2);
    EXPECT_GT(two.effective, 0.0);
    EXPECT_LT(two.effective, 2.0 * 1.25);
    EXPECT_EQ(hostDelivered(two), two.effective >= 1.6);
}

TEST(Metrics, NameAndUnitCharset)
{
    EXPECT_TRUE(validMetricName("latency_p50_us"));
    EXPECT_TRUE(validMetricName("codec.snappy.compress.ns_per_byte"));
    EXPECT_TRUE(validMetricName("9lives-ok"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName(".leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("slash/no"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    EXPECT_TRUE(validMetricName(std::string(64, 'a')));
    EXPECT_TRUE(validUnit("1/s"));
    EXPECT_TRUE(validUnit("%"));
    EXPECT_FALSE(validUnit(""));
    EXPECT_FALSE(validUnit("micro seconds"));

    MetricSet set;
    set.add("a", 1.0, "s");
    EXPECT_THROW(set.add("a", 2.0, "s"), std::invalid_argument);
    EXPECT_THROW(set.add("b c", 2.0, "s"), std::invalid_argument);
    EXPECT_THROW(set.add("b", NAN, "s"), std::invalid_argument);
}

/** Parses a result line and checks the contract's shape. */
void
expectResultShape(const std::string &line, const MetricSet &metrics)
{
    auto doc = cdpu::obs::JsonValue::parse(line);
    ASSERT_TRUE(doc.ok()) << line;
    const auto &root = doc.value();
    ASSERT_TRUE(root.isObject());
    std::set<std::string> keys;
    for (const auto &member : root.members())
        keys.insert(member.first);
    EXPECT_EQ(keys, (std::set<std::string>{"correct", "attempted", "failed",
                                           "metrics"}));
    EXPECT_TRUE(root.at("correct").isBool());
    EXPECT_GE(root.at("attempted").asU64(), 1u);
    const auto &m = root.at("metrics");
    ASSERT_EQ(m.size(), metrics.items().size());
    for (const Metric &metric : metrics.items()) {
        const auto &entry = m.at(metric.name);
        ASSERT_TRUE(entry.isObject()) << metric.name;
        EXPECT_EQ(entry.size(), 2u);
        EXPECT_EQ(entry.at("unit").asString(), metric.unit);
        EXPECT_EQ(entry.at("value").asDouble(), metric.value); // exact
    }
}

TEST(Output, ResultLineShape)
{
    MetricSet set;
    set.add("latency_ms", 1.2034567890123457, "ms");
    set.add("setup_s", 0.8127, "s");
    const std::string line = resultLine(true, 1000, 0, set);
    EXPECT_EQ(line.find('\n'), std::string::npos);
    expectResultShape(line, set);
}

/** The metric names BENCHMARK.json lists under @p section, read from
 *  the repository root (the tests' working directory). */
std::vector<std::string>
declaredMetrics(const char *section)
{
    std::ifstream in("BENCHMARK.json");
    std::stringstream text;
    text << in.rdbuf();
    auto doc = cdpu::obs::JsonValue::parse(text.str());
    std::vector<std::string> names;
    if (doc.ok())
        for (const auto &metric : doc.value().at(section).items())
            names.push_back(metric.at("name").asString());
    return names;
}

/** Checks that a run printed exactly the metrics declared in @p section. */
void
expectDeclared(const MetricSet &metrics, const char *section)
{
    const std::vector<std::string> declared = declaredMetrics(section);
    ASSERT_FALSE(declared.empty()) << "run from the repository root";
    std::vector<std::string> names;
    for (const Metric &m : metrics.items())
        names.push_back(m.name);
    EXPECT_EQ(std::set<std::string>(names.begin(), names.end()),
              std::set<std::string>(declared.begin(), declared.end()));
    EXPECT_EQ(names.size(), declared.size());
}

class Smoke : public ::testing::TestWithParam<std::string>
{};

TEST_P(Smoke, TinyUntracedRun)
{
    RunOptions options;
    options.workload = GetParam();
    options.seed = 7;
    options.seconds = 0.6;
    options.tiny = true;
    options.outDir = ".bench_build/perfbench-test";
    auto run = runWorkload(options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_TRUE(run.value().correct);
    EXPECT_EQ(run.value().failed, 0u);
    for (const Metric &m : run.value().metrics.items())
        EXPECT_GT(m.value, 0.0) << m.name;
    expectDeclared(run.value().metrics, "end_to_end");
    expectResultShape(resultLine(true, run.value().attempted, 0,
                                 run.value().metrics),
                      run.value().metrics);
}

TEST_P(Smoke, TinyTracedRun)
{
    RunOptions options;
    options.workload = GetParam();
    options.seed = 7;
    options.seconds = 0.6;
    options.trace = true;
    options.tiny = true;
    options.outDir = ".bench_build/perfbench-test";
    auto run = runWorkload(options);
    ASSERT_TRUE(run.ok()) << run.status().message();
    EXPECT_TRUE(run.value().correct);
    expectDeclared(run.value().metrics, "per_layer");
}

INSTANTIATE_TEST_SUITE_P(Workloads, Smoke,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto &info) {
                             std::string name = info.param;
                             for (char &c : name)
                                 if (c == '-')
                                     c = '_';
                             return name;
                         });

TEST(Smoke, UnknownWorkloadIsAnError)
{
    RunOptions options;
    options.workload = "no-such-workload";
    EXPECT_FALSE(runWorkload(options).ok());
}

} // namespace
} // namespace perfbench

#include "obs/counters.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace cdpu::obs
{

unsigned
Histogram::bucketOf(u64 value)
{
    if (value == 0)
        return 0;
    return static_cast<unsigned>(std::bit_width(value));
}

namespace
{

/** Inclusive value range covered by bucket @p index. */
std::pair<double, double>
bucketRange(unsigned index)
{
    if (index == 0)
        return {0.0, 0.0};
    double lo = std::ldexp(1.0, static_cast<int>(index) - 1);
    return {lo, lo * 2.0 - 1.0};
}

} // namespace

double
HistogramSnapshot::percentile(double q) const
{
    if (count == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    // Rank of the requested sample, 0-based, in sorted order.
    double rank = q * static_cast<double>(count - 1);
    u64 seen = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        double first = static_cast<double>(seen);
        double last = static_cast<double>(seen + buckets[i] - 1);
        if (rank <= last) {
            auto [lo, hi] = bucketRange(i);
            // Narrow the end buckets to the observed extremes before
            // interpolating: assuming samples span the full power-of-
            // two range collapses every high quantile of a
            // single-bucket distribution onto the clamp at max, making
            // p99 and p999 indistinguishable. With the observed
            // [min, max] as the interpolation range they separate.
            lo = std::max(lo, static_cast<double>(min));
            hi = std::min(hi, static_cast<double>(max));
            // A fractional rank between the previous bucket's last
            // sample and this bucket's first lands below `first`; the
            // clamp keeps it at this bucket's floor, so the result
            // never falls below a lower quantile's.
            double fraction =
                buckets[i] > 1
                    ? std::clamp((rank - first) / (last - first), 0.0, 1.0)
                    : 0.0;
            double value = lo + fraction * (hi - lo);
            return std::clamp(value, static_cast<double>(min),
                              static_cast<double>(max));
        }
        seen += buckets[i];
    }
    return static_cast<double>(max);
}

HistogramSnapshot
HistogramSnapshot::diff(const HistogramSnapshot &before) const
{
    HistogramSnapshot out;
    out.count = count - std::min(before.count, count);
    out.sum = sum - std::min(before.sum, sum);
    // Extremes are not recoverable from a difference; keep the
    // cumulative ones so percentile clamping stays sound.
    out.min = min;
    out.max = max;
    for (unsigned i = 0; i < kBuckets; ++i)
        out.buckets[i] =
            buckets[i] - std::min(before.buckets[i], buckets[i]);
    return out;
}

void
HistogramSnapshot::merge(const HistogramSnapshot &other)
{
    if (other.count == 0)
        return;
    min = count == 0 ? other.min : std::min(min, other.min);
    max = count == 0 ? other.max : std::max(max, other.max);
    count += other.count;
    sum += other.sum;
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
}

JsonValue
HistogramSnapshot::toJson() const
{
    JsonValue out = JsonValue::object();
    out.set("count", count);
    out.set("sum", sum);
    out.set("min", min);
    out.set("max", max);
    out.set("mean", mean());
    out.set("p50", percentile(0.50));
    out.set("p90", percentile(0.90));
    out.set("p99", percentile(0.99));
    out.set("p999", percentile(0.999));
    JsonValue nonzero = JsonValue::object();
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (buckets[i])
            nonzero.set(std::to_string(i), buckets[i]);
    }
    out.set("buckets", std::move(nonzero));
    return out;
}

Status
HistogramSnapshot::validate() const
{
    return validate(toJson());
}

namespace
{

/** Why @p value, published as @p name, is not a finite non-negative
 *  number (with @p count: not a non-negative integer within u64);
 *  empty when it is one. */
std::string
fieldError(const std::string &name, const JsonValue *value, bool count)
{
    if (value == nullptr)
        return name + " missing";
    const double number = value->asDouble();
    if (count ? value->isU64()
              : value->isNumber() && std::isfinite(number) && number >= 0)
        return {};
    return name + " is " + value->dump() +
           (count ? ", not a non-negative integer"
                  : ", not a finite non-negative number");
}

} // namespace

Status
HistogramSnapshot::validate(const JsonValue &published)
{
    // Every field read below is checked first, so no read defaults a
    // missing or malformed field to 0 or converts a negative number.
    for (const char *name :
         {"count", "min", "max", "p50", "p90", "p99", "p999"}) {
        std::string error = fieldError(name, published.find(name),
                                       name == std::string("count"));
        if (!error.empty())
            return Status::corrupt(std::move(error));
    }
    const JsonValue *buckets = published.find("buckets");
    if (buckets == nullptr || !buckets->isObject())
        return Status::corrupt("buckets missing or not an object");
    u64 total = 0;
    for (const auto &[bucket, samples] : buckets->members()) {
        std::string error = fieldError("buckets." + bucket, &samples, true);
        if (!error.empty())
            return Status::corrupt(std::move(error));
        if (total + samples.asU64() < total)
            return Status::corrupt("buckets sum past 2^64 at buckets." +
                                   bucket);
        total += samples.asU64();
    }
    const u64 count = published.at("count").asU64();
    if (total != count)
        return Status::corrupt("buckets sum to " + std::to_string(total) +
                               ", count is " + std::to_string(count));
    // Each quantile must reach the one before it (min first) and stay
    // within max.
    std::string previous = "min";
    double floor = published.at("min").asDouble();
    const double max = published.at("max").asDouble();
    for (const char *name : {"p50", "p90", "p99", "p999"}) {
        const double value = published.at(name).asDouble();
        auto text = [](double v) { return JsonValue(v).dump(); };
        if (value < floor || value > max)
            return Status::corrupt(
                std::string(name) + " " + text(value) +
                (value > max ? " above max " + text(max)
                             : " below " + previous + " " + text(floor)));
        previous = name;
        floor = value;
    }
    return Status::okStatus();
}

u64
CounterSnapshot::at(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

bool
CounterSnapshot::has(const std::string &name) const
{
    return counters.count(name) != 0;
}

const HistogramSnapshot &
CounterSnapshot::histogramAt(const std::string &name) const
{
    static const HistogramSnapshot kEmpty;
    auto it = histograms.find(name);
    return it == histograms.end() ? kEmpty : it->second;
}

CounterSnapshot
CounterSnapshot::diff(const CounterSnapshot &before) const
{
    CounterSnapshot out;
    for (const auto &[name, value] : counters) {
        auto it = before.counters.find(name);
        u64 base = it == before.counters.end() ? 0 : it->second;
        out.counters[name] = value - std::min(base, value);
    }
    for (const auto &[name, histogram] : histograms) {
        auto it = before.histograms.find(name);
        out.histograms[name] = it == before.histograms.end()
                                   ? histogram
                                   : histogram.diff(it->second);
    }
    return out;
}

void
CounterSnapshot::merge(const CounterSnapshot &other)
{
    for (const auto &[name, value] : other.counters)
        counters[name] += value;
    for (const auto &[name, histogram] : other.histograms)
        histograms[name].merge(histogram);
}

JsonValue
CounterSnapshot::toJson() const
{
    JsonValue out = JsonValue::object();
    JsonValue counter_obj = JsonValue::object();
    for (const auto &[name, value] : counters)
        counter_obj.set(name, value);
    out.set("counters", std::move(counter_obj));
    JsonValue histogram_obj = JsonValue::object();
    for (const auto &[name, histogram] : histograms)
        histogram_obj.set(name, histogram.toJson());
    out.set("histograms", std::move(histogram_obj));
    return out;
}

std::string
CounterSnapshot::toJsonString(int indent) const
{
    return toJson().dump(indent);
}

Counter &
CounterRegistry::counter(const std::string &name)
{
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Histogram &
CounterRegistry::histogram(const std::string &name)
{
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

CounterSnapshot
CounterRegistry::snapshot() const
{
    CounterSnapshot out;
    for (const auto &[name, counter] : counters_)
        out.counters[name] = counter->value();
    for (const auto &[name, histogram] : histograms_)
        out.histograms[name] = histogram->snapshot();
    return out;
}

void
CounterRegistry::reset()
{
    for (auto &[name, counter] : counters_)
        counter->reset();
    for (auto &[name, histogram] : histograms_)
        histogram->reset();
}

ShardedCounterRegistry::ShardedCounterRegistry(unsigned shards)
{
    if (shards == 0)
        shards = 1;
    shards_.reserve(shards);
    for (unsigned i = 0; i < shards; ++i)
        shards_.push_back(std::make_unique<Shard>());
}

CounterSnapshot
ShardedCounterRegistry::mergedSnapshot() const
{
    CounterSnapshot merged;
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        merged.merge(shard->registry.snapshot());
    }
    return merged;
}

void
ShardedCounterRegistry::reset()
{
    for (const auto &shard : shards_) {
        std::lock_guard<std::mutex> lock(shard->mutex);
        shard->registry.reset();
    }
}

} // namespace cdpu::obs

#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include "common/kernels.h"

namespace perfbench
{

u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
quantileSorted(const std::vector<double> &sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    const double rank = q * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return quantileSorted(values, 0.5);
}

double
highestSupportedQuantile(std::size_t n)
{
    double best = 0.0;
    for (double q : {0.5, 0.9, 0.99, 0.999, 0.9999}) {
        // Samples strictly above the interpolated q-quantile: every
        // order statistic past rank floor(q * (n - 1)) + 1.
        const double rank = q * static_cast<double>(n ? n - 1 : 0);
        const auto above =
            n - std::min<std::size_t>(
                    n, static_cast<std::size_t>(std::floor(rank)) + 1);
        if (n > 0 && above >= 10)
            best = q;
    }
    return best;
}

bool
Summary::consistent() const
{
    return p50 <= p99 && p99 <= max &&
           (tailQ == 0.0 || (p50 <= tailValue && tailValue <= max));
}

Summary
summarize(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    Summary s;
    s.n = samples.size();
    s.p50 = quantileSorted(samples, 0.50);
    s.p99 = quantileSorted(samples, 0.99);
    s.max = samples.empty() ? 0.0 : samples.back();
    s.tailQ = highestSupportedQuantile(s.n);
    s.tailValue = quantileSorted(samples, s.tailQ);
    return s;
}

namespace
{

bool
isAlnum(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !isAlnum(name[0]))
        return false;
    return std::all_of(name.begin(), name.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '.' || c == '-';
    });
}

bool
validUnit(std::string_view unit)
{
    if (unit.empty() || unit.size() > 16)
        return false;
    return std::all_of(unit.begin(), unit.end(), [](char c) {
        return isAlnum(c) || c == '_' || c == '/' || c == '%' ||
               c == '.' || c == '-';
    });
}

void
MetricSet::add(const std::string &name, double value,
               const std::string &unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("bad metric name: " + name);
    if (!validUnit(unit))
        throw std::invalid_argument("bad unit for " + name + ": " + unit);
    if (find(name))
        throw std::invalid_argument("duplicate metric: " + name);
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite value for " + name);
    items_.push_back({name, value, unit});
}

const Metric *
MetricSet::find(std::string_view name) const
{
    for (const Metric &m : items_)
        if (m.name == name)
            return &m;
    return nullptr;
}

std::string
resultLine(bool correct, u64 attempted, u64 failed,
           const MetricSet &metrics)
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics.items()) {
        char value[64];
        std::snprintf(value, sizeof(value), "%.17g", m.value);
        out += first ? "" : ", ";
        out += "\"" + m.name + "\": {\"value\": " + value +
               ", \"unit\": \"" + m.unit + "\"}";
        first = false;
    }
    out += "}}";
    return out;
}

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) / 1e6;
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMiB()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

unsigned
processThreads()
{
    std::error_code ec;
    unsigned count = 0;
    for (auto it = std::filesystem::directory_iterator("/proc/self/task",
                                                       ec);
         !ec && it != std::filesystem::directory_iterator();
         it.increment(ec))
        ++count;
    return count;
}

namespace
{

/** Integer spin the optimizer cannot drop: a xorshift chain. */
u64
spin(u64 iterations)
{
    u64 x = 0x9e3779b97f4a7c15ull;
    for (u64 i = 0; i < iterations; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    return x;
}

double
timedSpin(u64 iterations)
{
    const auto start = Clock::now();
    volatile u64 sink = spin(iterations);
    (void)sink;
    return secondsSince(start);
}

/** Iterations that take ~100 ms on one thread of this host: long
 *  enough for the scheduler to spread freshly started threads, which
 *  a shorter spin would measure instead of the host's capacity. */
u64
calibratedIterations()
{
    static const u64 iterations = [] {
        u64 n = u64{1} << 18;
        double t = timedSpin(n);
        while (t < 0.01) {
            n *= 2;
            t = timedSpin(n);
        }
        return static_cast<u64>(static_cast<double>(n) * 0.1 / t);
    }();
    return iterations;
}

} // namespace

ParallelismProbe
probeParallelism(unsigned threads)
{
    ParallelismProbe probe;
    probe.threads = std::max(1u, threads);
    const u64 iterations = calibratedIterations();
    std::vector<double> one, all;
    for (int rep = 0; rep < 3; ++rep) {
        one.push_back(timedSpin(iterations));
        const auto start = Clock::now();
        std::vector<std::thread> pool;
        for (unsigned t = 0; t < probe.threads; ++t)
            pool.emplace_back([iterations] {
                volatile u64 sink = spin(iterations);
                (void)sink;
            });
        for (auto &thread : pool)
            thread.join();
        all.push_back(secondsSince(start));
    }
    probe.oneThreadSeconds = median(one);
    probe.allThreadsSeconds = median(all);
    probe.effective = probe.threads * probe.oneThreadSeconds /
                      probe.allThreadsSeconds;
    return probe;
}

bool
hostDelivered(const ParallelismProbe &probe)
{
    return probe.effective >= 0.8 * probe.threads;
}

HostFacts
hostFacts()
{
    HostFacts facts;
    facts.nproc = std::thread::hardware_concurrency();
    facts.detectedTier =
        cdpu::kernels::tierName(cdpu::kernels::detectedTier());
    facts.activeTier = cdpu::kernels::tierName(cdpu::kernels::activeTier());
    facts.cpuFeatures = cdpu::kernels::cpuFeatureSummary();
    return facts;
}

TraceLane *
Tracer::lane()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lanes_.emplace_back();
    lanes_.back().tid = static_cast<unsigned>(lanes_.size());
    return &lanes_.back();
}

std::vector<Span>
Tracer::spans(std::string_view name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Span> out;
    for (const TraceLane &lane : lanes_)
        for (const Span &span : lane.spans)
            if (name == span.name)
                out.push_back(span);
    return out;
}

std::size_t
Tracer::spanCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t count = 0;
    for (const TraceLane &lane : lanes_)
        count += lane.spans.size();
    return count;
}

bool
Tracer::writeChromeTrace(const std::string &path) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    u64 origin = ~u64{0};
    for (const TraceLane &lane : lanes_)
        for (const Span &span : lane.spans)
            origin = std::min(origin, span.startNs);
    std::ofstream out(path, std::ios::binary);
    out << "{\"traceEvents\":[";
    bool first = true;
    char line[256];
    for (const TraceLane &lane : lanes_) {
        for (const Span &span : lane.spans) {
            std::snprintf(
                line, sizeof(line),
                "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,"
                "\"arg\":%llu}}",
                first ? "" : ",", span.name, lane.tid,
                static_cast<double>(span.startNs - origin) / 1e3,
                span.us(), static_cast<unsigned long long>(span.id),
                static_cast<unsigned long long>(span.arg));
            out << line;
            first = false;
        }
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

} // namespace perfbench

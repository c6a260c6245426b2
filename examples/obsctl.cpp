/**
 * @file
 * obsctl: render any telemetry JSON this repo emits as a report.
 *
 *   ./build/examples/obsctl BENCH_scaling.json
 *   ./build/examples/obsctl --section slo /tmp/run.json
 *   ./build/examples/obsctl --last 16 fault_dump.json
 *
 * The telemetry pipeline writes one JSON grammar from several
 * producers — bench records with an embedded telemetry document,
 * standalone fault dumps from the fuzz driver, raw span or metrics
 * streams — so obsctl does not assume a fixed top-level shape. It
 * walks the document for the section signatures (span streams, metric
 * time series, SLO scorecards, flight-recorder dumps) wherever they
 * are nested and renders each as an aligned table: throughput curves
 * with ASCII bars, SLO pass/fail lines, the last-K flight events
 * before a fault.
 *
 * Every histogram object the document carries is checked with
 * HistogramSnapshot::validate(); a violation is reported with its JSON
 * path and obsctl exits 1, so a published tail that runs backwards or
 * buckets that miscount cannot pass unseen.
 *
 * Flags: --section spans|metrics|slo|flight restricts output;
 * --last K caps flight/span rows (default 32).
 */

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/cli.h"
#include "common/table.h"
#include "obs/counters.h"
#include "obs/json.h"

using namespace cdpu;
using obs::JsonValue;

namespace
{

std::string
barOf(double value, double max, int width = 24)
{
    if (max <= 0.0)
        return "";
    int fill = static_cast<int>(value / max * width + 0.5);
    fill = std::min(std::max(fill, 0), width);
    return std::string(static_cast<std::size_t>(fill), '#');
}

/** Bench-record preamble: what ran, when, on how many cpus, and how
 *  much parallelism each sweep's probe saw delivered. */
void
renderProvenance(const JsonValue &document)
{
    const JsonValue *config = document.find("config");
    if (!document.has("benchmark") || !config)
        return;
    std::printf("benchmark: %s\n",
                document.at("benchmark").asString().c_str());
    if (config->has("nproc"))
        std::printf("nproc:     %llu\n",
                    static_cast<unsigned long long>(
                        config->at("nproc").asU64()));
    if (const JsonValue *metrics = document.find("metrics")) {
        for (const auto &[name, sweep] : metrics->members()) {
            if (!sweep.isObject() || !sweep.has("parallelism_before"))
                continue;
            std::printf("probe:     %s %.2f before, %.2f after, of %llu "
                        "threads%s\n",
                        name.c_str(),
                        sweep.at("parallelism_before").asDouble(),
                        sweep.at("parallelism_after").asDouble(),
                        static_cast<unsigned long long>(
                            sweep.at("probe_threads").asU64()),
                        sweep.at("core_bound").asBool()
                            ? "   [core-bound: no speedup claim]"
                            : "");
        }
    }
    if (config->has("wall_clock_start"))
        std::printf("started:   %s\n",
                    config->at("wall_clock_start").asString().c_str());
    if (config->has("kernel_tier")) {
        std::printf("kernels:   %s tier",
                    config->at("kernel_tier").asString().c_str());
        if (config->has("kernel_detected_tier") &&
            config->at("kernel_detected_tier").asString() !=
                config->at("kernel_tier").asString()) {
            std::printf("   [detected: %s]",
                        config->at("kernel_detected_tier")
                            .asString()
                            .c_str());
        }
        if (config->has("kernel_cpu_features"))
            std::printf("   (%s)",
                        config->at("kernel_cpu_features")
                            .asString()
                            .c_str());
        std::printf("\n");
    }
    std::printf("\n");
}

void
renderSpans(const JsonValue &doc, std::size_t last)
{
    // A span stream is {"span_period": N, "spans": [...]}.
    if (!doc.isObject() || !doc.has("spans") ||
        !doc.at("spans").isArray())
        return;
    const JsonValue &spans = doc.at("spans");
    std::printf("== spans: %zu sampled (1 in %llu) ==\n", spans.size(),
                static_cast<unsigned long long>(
                    doc.at("span_period").asU64()));
    TablePrinter table({"key", "name", "category", "track", "dur(us)",
                        "phases"});
    const std::size_t first =
        spans.size() > last ? spans.size() - last : 0;
    for (std::size_t i = first; i < spans.size(); ++i) {
        const JsonValue &span = spans.at(i);
        std::string phases;
        for (const JsonValue &phase : span.at("phases").items()) {
            if (!phases.empty())
                phases += " ";
            phases += phase.at("label").asString() + "@" +
                      TablePrinter::num(
                          phase.at("offset_ns").asDouble() / 1e3, 0) +
                      "us";
        }
        table.addRow(
            {std::to_string(span.at("key").asU64()),
             span.at("name").asString(),
             span.at("category").asString(),
             std::to_string(span.at("track").asU64()),
             TablePrinter::num(span.at("duration_ns").asDouble() / 1e3,
                               1),
             phases});
    }
    std::printf("%s\n", table.render().c_str());
}

void
renderMetrics(const JsonValue &doc)
{
    // A time series is {"samples": N, "intervals": [...]}.
    if (!doc.isObject() || !doc.has("intervals"))
        return;
    const JsonValue &intervals = doc.at("intervals");
    std::printf("== metrics: %llu samples, %zu retained ==\n",
                static_cast<unsigned long long>(
                    doc.at("samples").asU64()),
                intervals.size());
    double max_rate = 0.0;
    for (const JsonValue &row : intervals.items())
        if (row.has("mb_per_sec"))
            max_rate =
                std::max(max_rate, row.at("mb_per_sec").asDouble());
    TablePrinter table({"seq", "window(ms)", "calls", "MB/s", "p99(us)",
                        "throughput"});
    for (const JsonValue &row : intervals.items()) {
        const double rate =
            row.has("mb_per_sec") ? row.at("mb_per_sec").asDouble()
                                  : 0.0;
        table.addRow(
            {std::to_string(row.at("seq").asU64()),
             TablePrinter::num(
                 row.at("window_ns").asDouble() / 1e6, 2),
             std::to_string(row.at("calls").asU64()),
             TablePrinter::num(rate, 1),
             row.has("p99_us")
                 ? TablePrinter::num(row.at("p99_us").asDouble(), 1)
                 : "-",
             barOf(rate, max_rate)});
    }
    std::printf("%s\n", table.render().c_str());
}

void
renderSlo(const JsonValue &doc)
{
    // An SLO scorecard is an array of evaluated targets.
    if (!doc.isArray() || doc.size() == 0 ||
        !doc.at(std::size_t{0}).has("threshold_ns"))
        return;
    std::printf("== slo scorecard ==\n");
    TablePrinter table({"target", "samples", "observed", "threshold",
                        "verdict"});
    for (const JsonValue &row : doc.items()) {
        const bool evaluated = row.at("evaluated").asBool();
        table.addRow(
            {row.at("name").asString(),
             std::to_string(row.at("samples").asU64()),
             evaluated ? TablePrinter::num(
                             row.at("observed_ns").asDouble() / 1e3,
                             1) +
                             "us"
                       : "-",
             TablePrinter::num(
                 row.at("threshold_ns").asDouble() / 1e3, 1) +
                 "us",
             !evaluated         ? "NO DATA"
             : row.at("pass").asBool() ? "PASS"
                                       : "FAIL"});
    }
    std::printf("%s\n", table.render().c_str());
}

void
renderFlight(const JsonValue &events, const JsonValue &parent,
             std::size_t last)
{
    if (!events.isArray())
        return;
    std::printf("== flight recorder: last %zu of %zu events ==\n",
                std::min(last, events.size()), events.size());
    if (parent.has("fault"))
        std::printf("fault: %s (t=%.3fms)\n",
                    parent.at("fault").at("what").asString().c_str(),
                    parent.at("fault").at("t_ns").asDouble() / 1e6);
    TablePrinter table({"id", "kind", "dir", "outcome", "in", "out",
                        "t(ms)"});
    const std::size_t first =
        events.size() > last ? events.size() - last : 0;
    for (std::size_t i = first; i < events.size(); ++i) {
        const JsonValue &event = events.at(i);
        table.addRow(
            {std::to_string(event.at("id").asU64()),
             event.at("kind").asString(),
             event.at("direction").asString(),
             event.at("outcome").asString(),
             TablePrinter::bytes(event.at("bytes_in").asU64()),
             TablePrinter::bytes(event.at("bytes_out").asU64()),
             TablePrinter::num(event.at("t_ns").asDouble() / 1e6, 3)});
    }
    std::printf("%s\n", table.render().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    CliArgs args;
    if (!args.parse(argc, argv, {"section", "last"}))
        return 1;
    if (args.positional().empty()) {
        std::fprintf(stderr,
                     "usage: obsctl [--section spans|metrics|slo|"
                     "flight] [--last K] <telemetry.json>\n");
        return 1;
    }
    const std::string section = args.getString("section", "");
    const auto last =
        static_cast<std::size_t>(args.getInt("last", 32));

    const std::string path = args.positional().front();
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "obsctl: cannot open %s\n", path.c_str());
        return 1;
    }
    std::ostringstream text;
    text << in.rdbuf();
    Result<JsonValue> parsed = JsonValue::parse(text.str());
    if (!parsed.ok()) {
        std::fprintf(stderr, "obsctl: %s: %s\n", path.c_str(),
                     parsed.status().message().c_str());
        return 1;
    }
    const JsonValue &document = parsed.value();

    bool rendered = false;
    if (section.empty())
        renderProvenance(document);
    // Walk the whole document: every renderer checks its own section
    // signature, so nesting depth and producer do not matter.
    struct Walk
    {
        const std::string &section;
        std::size_t last;
        bool *rendered;
        std::vector<std::string> violations;

        void
        visit(const JsonValue &value, const std::string &path)
        {
            if (value.isObject()) {
                if (value.has("buckets") && value.has("p999")) {
                    Status valid = obs::HistogramSnapshot::validate(value);
                    if (!valid.ok())
                        violations.push_back(path + ": " +
                                             valid.message());
                }
                if ((section.empty() || section == "spans") &&
                    value.has("span_period") && value.has("spans")) {
                    renderSpans(value, last);
                    *rendered = true;
                }
                if ((section.empty() || section == "metrics") &&
                    value.has("intervals") && value.has("samples")) {
                    renderMetrics(value);
                    *rendered = true;
                }
                if ((section.empty() || section == "slo") &&
                    value.has("slo") && value.at("slo").isArray()) {
                    renderSlo(value.at("slo"));
                    *rendered = true;
                }
                if ((section.empty() || section == "flight") &&
                    value.has("flight_events")) {
                    renderFlight(value.at("flight_events"), value,
                                 last);
                    *rendered = true;
                }
                for (const auto &[name, member] : value.members())
                    visit(member, path + "." + name);
            } else if (value.isArray()) {
                for (std::size_t i = 0; i < value.size(); ++i)
                    visit(value.at(i),
                          path + "[" + std::to_string(i) + "]");
            }
        }
    };
    Walk walk{section, last, &rendered, {}};
    walk.visit(document, "$");

    for (const std::string &violation : walk.violations)
        std::fprintf(stderr, "obsctl: invalid histogram %s\n",
                     violation.c_str());
    if (!walk.violations.empty())
        return 1;

    if (!rendered) {
        std::fprintf(stderr,
                     "obsctl: no telemetry sections found in %s\n",
                     path.c_str());
        return 1;
    }
    return 0;
}

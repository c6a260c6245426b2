/**
 * @file
 * perfbench: one workload, one run.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Prints human-readable notes (host facts, sample counts), then as its
 * last stdout line one JSON object {correct, attempted, failed,
 * metrics}: the end-to-end metrics with --trace 0, the per-layer ones
 * with --trace 1. Exits 0 when every output matched its reference, 1 on
 * any mismatch, error or refusal, and 2 (printing no result) when the
 * benchmark could not run at all.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace
{

int
usage(const char *message)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1\n",
                 message);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            options.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            options.seconds = std::strtod(value, &end);
            if (options.seconds <= 0)
                return usage("--seconds must be positive");
        } else if (flag == "--trace") {
            options.trace = std::strcmp(value, "1") == 0;
            if (!options.trace && std::strcmp(value, "0") != 0)
                return usage("--trace takes 0 or 1");
        } else {
            return usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            return usage(("bad number for " + flag).c_str());
    }

    try {
        auto outcome = perfbench::runWorkload(options);
        if (!outcome.ok())
            return usage(outcome.status().message().c_str());
        const perfbench::RunOutcome &run = outcome.value();
        for (const std::string &note : run.notes)
            std::printf("%s\n", note.c_str());
        if (!run.correct)
            std::printf("GATE: %llu of %llu calls failed, were refused or "
                        "mismatched their reference\n",
                        static_cast<unsigned long long>(run.failed),
                        static_cast<unsigned long long>(run.attempted));
        std::printf("%s\n", perfbench::resultLine(run.correct, run.attempted,
                                                  run.failed, run.metrics)
                                .c_str());
        return run.correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }
}

#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (which compiles the
libraries it drives straight from src/) into .bench_build/perfbench,
runs one workload, and prints the benchmark's notes followed by one JSON
object as the last stdout line: {"correct", "attempted", "failed",
"metrics"}. It exits 0 when every output matched its reference, 1 on any
mismatch, and another nonzero code, printing no result, when the
benchmark cannot be built or run. The second form builds and runs the
benchmark's own tests. See perfbench/README.md for the workloads and
metrics.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                         "perfbench")
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build(target):
    """Configures once, then builds @target; build chatter goes to stderr."""
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            return False
    return True


def parse_result(line):
    """The binary's last line, checked against the result contract."""
    result = json.loads(line)
    if set(result) != RESULT_KEYS:
        raise ValueError("result keys %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        raise ValueError("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int):
            raise ValueError("%s is not a whole number" % key)
    if result["attempted"] < 1:
        raise ValueError("nothing attempted")
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"}:
            raise ValueError("metric %s has keys %s" % (name, sorted(metric)))
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests")
    args = parser.parse_args()

    if args.selftest:
        if not build("perfbench_test"):
            return 2
        return subprocess.run(
            [os.path.join(BUILD_DIR, "perfbench_test")]).returncode
    if not args.workload:
        parser.error("--workload is required")
    if not build("perfbench"):
        return 2

    command = [os.path.join(BUILD_DIR, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.stdout.write(proc.stdout)
        print("perfbench: benchmark failed (exit %d)" % proc.returncode,
              file=sys.stderr)
        return proc.returncode or 2
    try:
        result = parse_result(lines[-1])
    except ValueError as error:  # json.JSONDecodeError is a ValueError
        print("perfbench: malformed result: %s" % error, file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

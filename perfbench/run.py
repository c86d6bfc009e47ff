#!/usr/bin/env python3
"""Build and run the pdmsort repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Workloads: random-lib, near-sorted-lib, service-mixed (see
perfbench/README.md). The first call configures and builds the library and
the benchmark (Release) under .bench_build/ in the current directory; later
calls rebuild only what changed. The benchmark's standard output is passed
through unchanged: its last line is the JSON result. The exit code is the
benchmark's (non-zero when an output was wrong or the build failed).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("random-lib", "near-sorted-lib", "service-mixed")
# A run must end within 180 s; a benchmark still running after this is killed.
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr so the result stays the last stdout line.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run the benchmark's own instrument tests")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")

    build_dir = os.path.abspath(os.path.join(os.getcwd(), ".bench_build", "perfbench"))
    if not build(build_dir):
        return 1
    if args.self_test:
        return subprocess.run([os.path.join(build_dir, "pdmbench_selftest")]).returncode
    cmd = [os.path.join(build_dir, "pdmbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark exceeded %d s and was stopped" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

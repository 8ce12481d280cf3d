#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the ps3d production path.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --self-test

Builds e2ebench/ (which compiles the library modules it drives from
../src) into .bench_build/e2ebench under the source tree, then runs
one workload. The last stdout line is the result JSON; build output
goes to stderr. See e2ebench/README.md for workloads and metrics.
"""

import argparse
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_REL = os.path.join(".bench_build", "e2ebench")
BUILD_DIR = os.path.join(ROOT, BUILD_REL)
WORKLOADS = ("sim-rig", "primary-stream", "fleet-fanout")
# The contract gives a run 180 s; stop a wedged one before that.
RUN_TIMEOUT_S = 170


def build(target):
    """Configure once, then build `target` incrementally."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", target])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          check=False).returncode != 0:
            print("e2ebench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return True


def run(cmd):
    """Run a built binary from the source root and wait for it."""
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired:
        print("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S,
              file=sys.stderr)
        return 124
    return proc.returncode


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the helper unit tests")
    args = parser.parse_args()

    if args.self_test:
        if not build("e2ebench_selftest"):
            return 3
        return run([os.path.join(BUILD_DIR, "e2ebench_selftest")])

    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are "
                     "required")
    if not build("ps3_e2ebench"):
        return 3
    work_dir = os.path.join(BUILD_REL, "run")
    os.makedirs(os.path.join(ROOT, work_dir), exist_ok=True)
    return run([os.path.join(BUILD_DIR, "ps3_e2ebench"),
                "--workload", args.workload,
                "--seed", str(args.seed),
                "--seconds", repr(args.seconds),
                "--trace", str(args.trace),
                "--work-dir", work_dir])


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs one workload of the repository benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload campaign|advise|feedback \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The program and the benchmark are built
from the checkout's own sources first (CMake, Release build, into
.bench_build/perfbench; later runs rebuild only what changed), with all
build output on standard error. The benchmark binary then runs the
workload; the last line of standard output is its JSON result. The exit
code is non-zero when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "run")


def build():
    """Configures (once) and builds the benchmark and the daemon."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target",
                    "perfbench", "hetsched_advisord"],
                   stdout=sys.stderr, check=True)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["campaign", "advise", "feedback"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    os.makedirs(WORK, exist_ok=True)
    cmd = [os.path.join(BUILD, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--advisord", os.path.join(BUILD, "hetsched_advisord"),
           "--workdir", WORK]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())

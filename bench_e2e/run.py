#!/usr/bin/env python3
"""Builds bench_e2e from this checkout, then runs it with the given arguments.

Usage, from the root of the checkout:

    python3 bench_e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build (CMake, Release, Ninja when available) lives in .bench_build and
is reused by later runs; its output goes to stderr, so the last line on
stdout is the benchmark's JSON result.  When the build fails, for example
because the library sources are missing, this exits nonzero without a result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")


def step(command):
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.exit(result.returncode if result.returncode > 0 else 1)


def main():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        step(["cmake", "-S", os.path.join(ROOT, "bench_e2e"), "-B", BUILD,
              "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    step(["cmake", "--build", BUILD, "--target", "bench_e2e", "-j", jobs])
    exe = os.path.join(BUILD, "bench_e2e")
    sys.stdout.flush()
    os.execv(exe, [exe, *sys.argv[1:], "--run-dir",
                   os.path.join(BUILD, "runs")])


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds and runs the ctrtl end-to-end benchmark.

Run from the root of a ctrtl checkout:

    python3 ctrtl_bench/run.py --workload hot_small --seed 1 --seconds 55 --trace 0

The benchmark package (this directory's CMakeLists.txt) is configured and
built under $CARGO_TARGET_DIR/ctrtl_bench (default .bench_build), then the
ctrtl_bench binary runs with its outputs (span files, result files, the socket and the
boot journal) in the out/ directory beside the build. The last line of
standard output is the result JSON; README.md describes every metric.
"""

import argparse
import os
import shutil
import subprocess
import sys


def run_timeout_s(seconds):
    """Bounds the benchmark's own runtime, so a wedged server fails the run:
    set-up and input generation, the timed run, and the traced run's replay
    and library probes, with room to spare. A run must end within 180 s,
    so the bound never exceeds 170 s."""
    return min(3 * seconds + 120, 170)


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # The binary knows the workload names and rejects any other.
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    if not os.path.isdir(os.path.join(root, "src")):
        fail("no ctrtl sources beside " + bench_dir + "; run inside a checkout")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    work = os.path.join(target, "ctrtl_bench")
    build = os.path.join(work, "build")
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)

    configure = ["cmake", "-S", bench_dir, "-B", build,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for step in (configure, ["cmake", "--build", build, "-j", jobs]):
        # Build output goes to stderr: the last stdout line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))

    # A short, relative out path keeps the socket within sun_path.
    command = [os.path.join(build, "ctrtl_bench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.relpath(out),
               "--expected", os.path.join(bench_dir, "expected_counts.tsv")]
    timeout = run_timeout_s(args.seconds)
    try:
        result = subprocess.run(command, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("benchmark exceeded %g s" % timeout)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()

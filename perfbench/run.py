#!/usr/bin/env python3
"""Builds and runs the end-to-end tuning benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The first call configures and builds perfbench/ (the library sources under
src/ plus the benchmark binary) in $CARGO_TARGET_DIR/perfbench, or in
.bench_build/perfbench when that variable is unset; later calls rebuild only
what changed. Build output goes to stderr, so the last line of stdout is the
benchmark's JSON result. The exit code is the benchmark's: non-zero when the
build fails, an argument is invalid or an output check fails.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SOURCE = os.path.join(ROOT, "perfbench")
# A run must end within 180 s; stop a stuck benchmark before that.
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", SOURCE, "-B", out_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(step), file=sys.stderr)
            return False
    return True


def main():
    out_dir = build_dir()
    if not build(out_dir):
        return 1
    binary = os.path.join(out_dir, "perfbench")
    command = [binary] + sys.argv[1:] + ["--scratch", os.path.join(out_dir, "scratch")]
    sys.stdout.flush()
    try:
        return subprocess.run(command, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

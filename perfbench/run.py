#!/usr/bin/env python3
"""Builds the perfbench driver from the checkout's sources and runs it.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1> [--scale tiny]

The build lives in .bench_build/perfbench under the checkout root and is
incremental, so only the first run in a checkout compiles the library.
Build output goes to stderr; stdout carries the driver's report, whose
last line is one JSON object.  The exit code is the driver's: non-zero on
a wrong answer, and non-zero without a report when the build fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("ts_refine", "scan_sharded", "serve_churn", "remote_wire")


def run_quiet(cmd, env):
    """Runs a build step with its output on stderr; True on success."""
    proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return proc.returncode == 0


def build():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)  # compiler temporaries stay inside
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"], env):
            shutil.rmtree(os.path.join(BUILD, "CMakeFiles"), ignore_errors=True)
            try:
                os.remove(os.path.join(BUILD, "CMakeCache.txt"))
            except OSError:
                pass
            return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_quiet(["cmake", "--build", BUILD, "--target", "perfbench",
                      "-j", jobs], env):
        return None
    return os.path.join(BUILD, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--scale", default="full", choices=("full", "tiny"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    binary = build()
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    scratch = os.path.join(BUILD, "scratch-%d" % os.getpid())
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace,
           "--scale", args.scale, "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, cwd=ROOT)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

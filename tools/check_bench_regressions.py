#!/usr/bin/env python3
"""Threshold check over micro_filter_step's google-benchmark JSON.

Enforces relative performance invariants between benchmarks of the same
run.  Comparing within one run sidesteps cross-machine noise: CI hosts
vary wildly run to run, but "the SoA scan must not be slower than the
AoS scan it replaced" holds on any host.  Each rule compares the mean
("real_time") of two benchmarks.  The raw JSON is uploaded as a CI
artifact so absolute history is still inspectable.

Usage: check_bench_regressions.py <benchmark_json> [more_json...] [--strict]

Exit code 1 when any rule fails.  --strict additionally fails when a
rule's benchmarks are missing from the JSON (CI uses it; local runs of a
benchmark subset stay usable without it).
"""

import argparse
import json
import os
import sys


def _cpu_flags():
    """The host's CPUID feature flags (Linux); empty elsewhere."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def prescreen_speedup_bound():
    """Max allowed time ratio, the int8-prescreened exact weighted-L1
    scan vs the seed scalar float64 scan (n=1M, d=256, p=500).

    The port of the removed lossy int8 / float32 gates onto the one exact
    scan.  Pass 1 streams the int8 matrix (an eighth of the float64
    bytes) through the exact integer block kernel and pass 2 reads only a
    few float64 rows, so the scan must beat the seed by at least the
    margin the int8 mode had to clear: 3x on AVX-512 hosts, 2x on AVX2
    (measured 5.9x and 4.9x, 4-vCPU Xeon), and 1.33x on the scalar tier
    (measured 2.9x: the integer loop is slower, the traffic as small)."""
    flags = _cpu_flags()
    if "avx512f" in flags:
        return 1.0 / 3.0
    if "avx2" in flags:
        return 0.50
    return 0.75


def sharded_speedup_bound():
    """Max allowed time ratio for the sharded S=8 single-query config.

    On >= 4 cores (every GitHub-hosted runner) demand a real speedup:
    ratio <= 0.80, i.e. >= 1.25x — a lax regression guard under the
    1.5x the scatter typically measures there, so a throttled runner
    does not flap the build.  On 2-3 cores only demand "not slower".
    On one core the scatter runs serially and pays the weaker per-shard
    early-abandon threshold; allow its measured ~1.2x overhead.
    """
    cores = os.cpu_count() or 1
    if cores >= 4:
        return 0.80
    if cores >= 2:
        return 1.00
    return 1.30


# (numerator benchmark, denominator benchmark, max allowed ratio, label).
# Ratios are real_time(numerator) / real_time(denominator); a rule fails
# when the ratio exceeds the bound.  The bound may be a callable
# (resolved at check time, e.g. to adapt to the host's core count).
RULES = [
    # The flat SoA layout exists to beat the AoS scan it replaced; allow
    # 10% noise headroom.
    (
        "BM_FilterScanWeightedL1_SoA/100000/256",
        "BM_FilterScanWeightedL1_AoS/100000/256",
        1.10,
        "SoA filter scan vs AoS baseline (n=100k, d=256)",
    ),
    # Early abandon prunes work; it must never lose to the full scan by
    # more than noise.
    (
        "BM_ScoreTopP_EarlyAbandon/100000/256/500",
        "BM_ScoreTopP_FullScan/100000/256/500",
        1.10,
        "early-abandon top-p vs full scan + select (n=100k, d=256)",
    ),
    # One shard through the scatter/gather path must stay within 15% of
    # the monolithic engine: the merge + translation overhead is bounded.
    (
        "BM_RetrieveShardedSingleQuery/100000/256/1/real_time",
        "BM_RetrieveMonolithicSingleQuery/100000/256/real_time",
        1.15,
        "sharded S=1 overhead vs monolithic single query",
    ),
    # 8 shards must make ONE query faster, not slower — but the speedup
    # comes from scattering the scan across cores, so the enforceable
    # bound depends on the host.  sharded_speedup_bound() picks it.
    (
        "BM_RetrieveShardedSingleQuery/100000/256/8/real_time",
        "BM_RetrieveMonolithicSingleQuery/100000/256/real_time",
        sharded_speedup_bound,
        "sharded S=8 single-query speedup vs monolithic",
    ),
    # The exact prescreened scan's speedup (host-tier adaptive).  Its
    # candidates and its prescreened row count are pinned by a ctest at
    # this shape (PrescreenScanTest.GateShapeCandidatesBitIdentical).
    (
        "BM_FilterScanPrecision_Prescreened",
        "BM_FilterScanPrecision_SeedScalar",
        prescreen_speedup_bound,
        "int8-prescreened exact weighted-L1 scan vs seed scalar "
        "(n=1M, d=256, p=500)",
    ),
]


def load_benchmarks(paths):
    benchmarks = {}
    for path in paths:
        with open(path) as f:
            doc = json.load(f)
        for bench in doc.get("benchmarks", []):
            if bench.get("run_type") == "aggregate":
                continue
            benchmarks[bench["name"]] = bench
    return benchmarks


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("benchmark_json", nargs="+")
    parser.add_argument("--strict", action="store_true",
                        help="fail when a rule's benchmarks are missing")
    args = parser.parse_args()

    benchmarks = load_benchmarks(args.benchmark_json)
    failures = []
    for numerator, denominator, bound, label in RULES:
        if callable(bound):
            bound = bound()
        num = benchmarks.get(numerator, {}).get("real_time")
        den = benchmarks.get(denominator, {}).get("real_time")
        if num is None or den is None:
            msg = f"MISSING  {label}: needs {numerator} and {denominator}"
            print(msg)
            if args.strict:
                failures.append(msg)
            continue
        num, den = float(num), float(den)
        if num <= 0 or den <= 0:
            # A zero time is a broken benchmark, not a passing ratio.
            msg = (f"DEGENERATE  {label}: real_time of {numerator} = {num}, "
                   f"{denominator} = {den} (must be > 0)")
            print(msg)
            failures.append(msg)
            continue
        ratio = num / den
        status = "FAIL" if ratio > bound else "ok"
        print(f"{status:7}  {label}: ratio {ratio:.3f} (bound {bound:.2f}, "
              f"speedup {1.0 / ratio:.2f}x)")
        if ratio > bound:
            failures.append(label)

    if failures:
        print(f"\n{len(failures)} benchmark threshold(s) violated:",
              file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nall benchmark thresholds satisfied")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload: runs the untraced mode twice and the traced mode once
on one seed, and checks that each run answers correctly, prints exactly
the metrics BENCHMARK.json declares for its mode with their units, and
that the counts (dx_per_query, recall_at_k, ok_frac) repeat exactly for
the same seed.  Exits non-zero on the first failure.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT = ("dx_per_query", "recall_at_k", "ok_frac")


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit("FAIL %s trace %d: exit %d\n%s%s" % (
            workload, trace, proc.returncode, proc.stdout, proc.stderr[-3000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(workload, result, declared):
    if not result["correct"] or result["failed"] != 0:
        sys.exit("FAIL %s: correct=%s failed=%d" % (
            workload, result["correct"], result["failed"]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        sys.exit("FAIL %s: metrics %s, declared %s" % (workload, got, want))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        name = w["name"]
        first = run(name, 3, 0)
        second = run(name, 3, 0)
        traced = run(name, 3, 1)
        check_metrics(name, first, spec["end_to_end"])
        check_metrics(name, traced, spec["per_layer"])
        for key in EXACT:
            a = first["metrics"][key]["value"]
            b = second["metrics"][key]["value"]
            if a != b:
                sys.exit("FAIL %s: %s %r then %r on the same seed" % (
                    name, key, a, b))
        print("ok %-14s %s" % (name, " ".join(
            "%s=%g" % (k, first["metrics"][k]["value"]) for k in EXACT)))
    print("selftest passed")


if __name__ == "__main__":
    main()

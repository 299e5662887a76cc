#!/usr/bin/env python3
"""A/B runs of the perfbench workloads: a parent revision against a change.

    python3 tools/bench_ab.py --base <rev> [--change <rev>] \
        --workload serve_churn [--workload ...] --seed 1 [--seed 7] \
        --pairs 10 [--seconds 10] [--record] [--aa]

Each side is its own checkout with its own .bench_build/: the base is
`git archive <rev>` unpacked under --workdir, the change is the working
tree (or, with --change, another archived revision).  For every workload
and seed the tool runs `perfbench/run.py --trace 0` --pairs times per
side, alternating which side goes first, and prints each end-to-end
metric (BENCHMARK.json) as median [q1, q3] per side with the change's
relative shift and its win count, in CHANGES.md's table format.  Above
the table it prints each side's median 1-minute load average, read just
before every run: a busy host moves every metric, and this says how
busy it was.

--aa runs two archive copies of --base against each other: the layout
and host noise any verdict has to clear.  --record appends one row per
workload, seed and pair of sides to BENCH_<workload>.json at the repo
root: the commits, a host fingerprint (CPU model, nproc, the tier
perfbench reports as host.simd_level, the compiler from the build's
CMakeCache.txt), the pair count, and per metric the median and
quartiles of both sides with the win count, each side's median load
average, plus the per-layer metrics of one --trace 1 run per side.
"""
import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def git(*args):
    return subprocess.run(["git", "-C", ROOT] + list(args), check=True,
                          capture_output=True, text=True).stdout.strip()


def archive(rev, dest):
    """Unpacks `git archive rev` into dest once; reuses it afterwards so
    its .bench_build/ stays incremental."""
    if os.path.exists(os.path.join(dest, "perfbench", "run.py")):
        return dest
    os.makedirs(dest, exist_ok=True)
    with tempfile.TemporaryFile() as tar:
        subprocess.run(["git", "-C", ROOT, "archive", rev], stdout=tar,
                       check=True)
        tar.seek(0)
        with tarfile.open(fileobj=tar) as t:
            t.extractall(dest)  # git archive output: trusted paths
    return dest


def build(side):
    """Builds perfbench in `side` with its own run.py; exits on failure."""
    code = ("import sys; sys.path.insert(0, 'perfbench'); import run; "
            "sys.exit(0 if run.build() else 1)")
    if subprocess.run([sys.executable, "-c", code], cwd=side,
                      stdout=subprocess.DEVNULL,
                      stderr=subprocess.DEVNULL).returncode != 0:
        sys.exit("bench_ab: perfbench build failed in " + side)


def run_once(side, workload, seed, seconds, trace):
    """One perfbench run; returns its JSON report and its text lines."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace",
         "1" if trace else "0"],
        cwd=side, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("bench_ab: %s %s seed %d failed:\n%s" %
                 (side, workload, seed, proc.stderr[-2000:]))
    report = json.loads(lines[-1])
    if not report.get("correct", False):
        sys.exit("bench_ab: %s %s seed %d answered wrongly" %
                 (side, workload, seed))
    return report


def quartiles(values):
    """(median, q1, q3), linear interpolation; one value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return med, q1, q3


def summarize(runs, specs):
    """Per end-to-end metric: both sides' quartiles and the change's wins
    (pairs where it is strictly better, by the metric's direction)."""
    out = {}
    for spec in specs:
        name = spec["name"]
        base = [r["metrics"][name]["value"] for r, _ in runs]
        change = [r["metrics"][name]["value"] for _, r in runs]
        lower = spec["better"] == "lower"
        wins = sum((c < b) if lower else (c > b)
                   for b, c in zip(base, change))
        bm, bq1, bq3 = quartiles(base)
        cm, cq1, cq3 = quartiles(change)
        out[name] = {"unit": spec["unit"], "better": spec["better"],
                     "base": {"median": bm, "q1": bq1, "q3": bq3},
                     "change": {"median": cm, "q1": cq1, "q3": cq3},
                     "wins": wins, "pairs": len(runs)}
    return out


def fmt(v):
    return "%.4g" % v


def table_rows(workload, seed, summary):
    rows = []
    for name, m in summary.items():
        b, c = m["base"], m["change"]
        shift = ""
        if b["median"] != 0:
            shift = "%+.1f%%, " % (100.0 * (c["median"] / b["median"] - 1))
        rows.append("| %s (%d, %d) | %s | %s [%s, %s] | %s [%s, %s] "
                    "(%s%d/%d wins) |" %
                    (workload, seed, m["pairs"], name, fmt(b["median"]),
                     fmt(b["q1"]), fmt(b["q3"]), fmt(c["median"]),
                     fmt(c["q1"]), fmt(c["q3"]), shift, m["wins"],
                     m["pairs"]))
    return rows


def host_fingerprint(side, traced_report):
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = ""
    cache = os.path.join(side, ".bench_build", "perfbench", "CMakeCache.txt")
    try:
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    compiler = line.split("=", 1)[1].strip()
    except OSError:
        pass
    if compiler:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()
        compiler = version[0] if version else compiler
    simd = None
    if traced_report is not None:
        simd = traced_report["metrics"].get("host.simd_level", {}).get("value")
    return {"cpu": cpu, "nproc": os.cpu_count(), "simd_level": simd,
            "compiler": compiler}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", default=None,
                        help="change revision (default: the working tree)")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", action="append", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--aa", action="store_true",
                        help="two archive copies of --base (A/A)")
    parser.add_argument("--record", action="store_true",
                        help="append rows to BENCH_<workload>.json")
    parser.add_argument("--workdir", default=None,
                        help="where archived sides live (default: a new "
                             "temporary directory)")
    args = parser.parse_args()
    if args.pairs < 1 or args.seconds <= 0:
        parser.error("--pairs must be >= 1 and --seconds > 0")

    workdir = args.workdir or tempfile.mkdtemp(prefix="qse-bench-ab-")
    base_sha = git("rev-parse", args.base)
    base = archive(base_sha, os.path.join(workdir, base_sha[:12] + "-a"))
    if args.aa:
        change_sha = base_sha
        change = archive(base_sha, os.path.join(workdir, base_sha[:12] + "-b"))
    elif args.change:
        change_sha = git("rev-parse", args.change)
        change = archive(change_sha, os.path.join(workdir, change_sha[:12]))
    else:
        change_sha = git("rev-parse", "HEAD")
        if git("status", "--porcelain", "--untracked-files=no"):
            change_sha += "+worktree"
        change = ROOT
    for side in (base, change):
        build(side)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["end_to_end"]
    for workload in args.workload:
        for seed in args.seed:
            runs = []
            loads = {base: [], change: []}
            for i in range(args.pairs):
                order = (base, change) if i % 2 == 0 else (change, base)
                got = {}
                for side in order:
                    loads[side].append(os.getloadavg()[0])
                    got[side] = run_once(side, workload, seed, args.seconds,
                                         False)
                runs.append((got[base], got[change]))
                print("# %s seed %d pair %d/%d done" %
                      (workload, seed, i + 1, args.pairs), file=sys.stderr)
            summary = summarize(runs, specs)
            load = {"base": statistics.median(loads[base]),
                    "change": statistics.median(loads[change])}
            print("load average (1 min) before each run, median: "
                  "%s %.2f, %s %.2f" %
                  ("copy A" if args.aa else "parent", load["base"],
                   "copy B" if args.aa else "change", load["change"]))
            print("| workload (seed, pairs) | metric | %s | %s |" %
                  ("copy A" if args.aa else "parent",
                   "copy B" if args.aa else "change"))
            print("|---|---|---|---|")
            print("\n".join(table_rows(workload, seed, summary)))
            if not args.record:
                continue
            traced = {side: run_once(side, workload, seed, args.seconds, True)
                      for side in (base, change)}
            layers = {label: {k: v["value"] for k, v in
                              traced[side]["metrics"].items()
                              if "." in k}
                      for label, side in (("base", base), ("change", change))}
            row = {
                "date": datetime.datetime.now(datetime.timezone.utc)
                        .strftime("%Y-%m-%dT%H:%M:%SZ"),
                "kind": "aa" if args.aa else "ab",
                "commit": change_sha, "parent": base_sha,
                "host": host_fingerprint(change, traced[change]),
                "workload": workload, "seed": seed,
                "seconds": args.seconds, "pairs": args.pairs,
                "load_1m": load,
                "end_to_end": summary, "per_layer": layers,
            }
            path = os.path.join(ROOT, "BENCH_%s.json" % workload)
            rows = []
            if os.path.exists(path):
                with open(path) as f:
                    rows = json.load(f)
            rows.append(row)
            with open(path, "w") as f:
                json.dump(rows, f, indent=1)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

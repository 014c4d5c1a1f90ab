#!/usr/bin/env python3
"""Same-machine A/B of the repository benchmark between two git revisions.

    python3 scripts/perf_ab.py BASE [CHANGE] [--workload W]... [--pairs N]
        [--seed S]

CHANGE defaults to HEAD, --workload to every workload in BENCHMARK.json
(repeat the flag to pick several) and --pairs to 10. Both revisions are
exported with `git archive` into a temporary directory, and each pair runs
`python3 perfbench/run.py` once in each tree, the order swapped from one
pair to the next so host drift falls on both sides alike. Every run lasts
BENCHMARK.json's run_seconds; --seed is passed through to run.py.

For every end-to-end metric of BENCHMARK.json it prints the parent (BASE)
and change medians, the parent's interquartile range (IQR), the pairs the
change won, and a verdict against the metric's bound, all relative to the
parent's median:

  unresolved    the parent's IQR is wider than the bound: the runs cannot
                tell a bound-sized move from noise
  worse         the median moved the wrong way by more than the bound
  better        the median improved by more than the parent's IQR and the
                change won at least nine pairs in ten
  within bound  anything else

Exits 1 when a run prints no result line or a change run reports more
failed operations than the parent run of its pair.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def iqr(values):
    """Distance between the first and third quartiles.

    >>> iqr([1.0, 2.0, 3.0, 4.0])
    1.5
    >>> iqr([7.0])
    0.0
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def wins(parent, change, better):
    """Pairs in which the change beat the parent; a tie is no win.

    >>> wins([10, 10, 12], [9, 10, 13], "lower")
    1
    >>> wins([10, 10, 12], [9, 10, 13], "higher")
    1
    """
    sign = 1 if better == "higher" else -1
    return sum(sign * (c - p) > 0 for p, c in zip(parent, change))


def verdict(parent, change, better, bound):
    """The change's verdict on one metric (see the module docstring).

    >>> verdict([10.0, 10.2, 9.8, 10.1], [8.0, 8.1, 7.9, 8.0], "lower", 0.25)
    'better'
    >>> verdict([10.0, 10.2, 9.8, 10.1], [13.0] * 4, "lower", 0.25)
    'worse'
    >>> verdict([10.0, 10.2, 9.8, 10.1], [9.0, 10.3, 9.0, 9.0], "lower", 0.25)
    'within bound'
    >>> verdict([80.0] * 4, [80.0] * 4, "higher", 0.1)
    'within bound'
    >>> verdict([6.0, 14.0, 8.0, 12.0], [9.0] * 4, "lower", 0.25)
    'unresolved'
    """
    base = statistics.median(parent)
    scale = abs(base) or 1.0
    if iqr(parent) / scale > bound:
        return "unresolved"
    sign = 1 if better == "higher" else -1
    gain = sign * (statistics.median(change) - base) / scale
    if gain < -bound:
        return "worse"
    won = wins(parent, change, better)
    if gain > iqr(parent) / scale and 10 * won >= 9 * len(parent):
        return "better"
    return "within bound"


def git(*args, **kw):
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, **kw).stdout


def run(tree, workload, seconds, seed):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            return json.loads(lines[-1])
        except ValueError:
            pass
    sys.exit(f"perf_ab: {workload} in {tree} printed no result line")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?", default="HEAD")
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    ok = True
    with tempfile.TemporaryDirectory(prefix="perf_ab_") as tmp:
        trees = {}
        for side, rev in (("parent", args.base), ("change", args.change)):
            commit = git("rev-parse", "--verify", rev + "^{commit}", text=True)
            trees[side] = os.path.join(tmp, side)
            os.mkdir(trees[side])
            subprocess.run(["tar", "-x", "-C", trees[side]], check=True,
                           input=git("archive", commit.strip()))
            print(f"{side}: {rev} = {commit.strip()[:12]}")
        with open(os.path.join(trees["change"], "BENCHMARK.json")) as f:
            spec = json.load(f)
        seconds = spec["run_seconds"]
        workloads = args.workload or [w["name"] for w in spec["workloads"]]
        for workload in workloads:
            results = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ("parent", "change")
                for side in order if i % 2 == 0 else reversed(order):
                    results[side].append(run(trees[side], workload, seconds,
                                             args.seed))
                print(f"{workload}: pair {i + 1}/{args.pairs} done",
                      file=sys.stderr, flush=True)
                failed = [results[side][-1]["failed"] for side in order]
                if failed[1] > failed[0]:
                    print(f"perf_ab: {workload} pair {i + 1}: the change "
                          "failed more operations than the parent")
                    ok = False
            print(f"\n{workload}: {args.pairs} pairs of {seconds} s runs")
            print(f"{'metric':14s} {'parent':>12s} {'change':>12s} "
                  f"{'parent IQR':>12s} {'wins':>6s}  verdict")
            for m in spec["end_to_end"]:
                p, c = ([r["metrics"][m["name"]]["value"] for r in rs]
                        for rs in (results["parent"], results["change"]))
                print(f"{m['name']:14s} {statistics.median(p):12.6g} "
                      f"{statistics.median(c):12.6g} {iqr(p):12.4g} "
                      f"{wins(p, c, m['better']):>3d}/{args.pairs:<2d}  "
                      f"{verdict(p, c, m['better'], m['bound'])}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the repository benchmark at a shortened scale.

    python3 perfbench/smoke_test.py

Run it from the root of the repository. For every workload it runs
perfbench/run.py --quick twice per pass (--trace 0 and --trace 1) and
checks that

  * every metric BENCHMARK.json declares for the pass is in the result
    line, with its declared unit, and nothing else is;
  * the workload-specific outcome metrics are printed where they apply
    (hit_pct.<system> for each system the workload runs, paper_err_pt
    on the workloads with a Table-2 reference point);
  * the deterministic metrics (simulated outcomes and counts) are
    identical across the two invocations;

and that each workload's batch reproduces core::run_replicated over the
same seeds. Exits 1 on the first failure.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = [sys.executable, os.path.join(ROOT, "perfbench", "run.py")]

# Printed-only metrics per workload: they apply to some workloads only, so
# they are not in the result line, whose metric set is the same everywhere.
EXTRA = {
    "sweep": {"hit_pct.ce": "%", "hit_pct.cs": "%", "hit_pct.ls": "%",
              "paper_err_pt": "pt"},
    "contended": {"hit_pct.ce": "%", "hit_pct.occ": "%"},
    "thrash": {"hit_pct.cs": "%", "hit_pct.ls": "%"},
}
# Host measurements; every other metric is a simulated outcome or a count.
HOST_UNITS = {"s", "1/s", "MB", "ms", "ns"}
HOST_PERCENT = {"core.attributed_pct", "obs.trace_overhead_pct"}


def fail(msg):
    sys.stderr.write(f"smoke test: {msg}\n")
    sys.exit(1)


def invoke(workload, trace, seed):
    proc = subprocess.run(
        RUN + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--quick"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=180)
    if proc.returncode != 0:
        fail(f"{workload} --trace {trace} exited {proc.returncode}:\n"
             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    printed = {}
    for line in lines[:-1]:
        name, value, unit = line.split()
        printed[name] = (float(value), unit)
    return json.loads(lines[-1]), printed


def deterministic(name, unit):
    return unit not in HOST_UNITS and name not in HOST_PERCENT


def check_pass(workload, trace, declared):
    first, printed = invoke(workload, trace, 42)
    second, _ = invoke(workload, trace, 42)
    for result in (first, second):
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            fail(f"{workload}: result keys {sorted(result)}")
        if result["correct"] is not True or result["attempted"] < 1 or \
                result["failed"] != 0:
            fail(f"{workload}: result {result['correct']} "
                 f"{result['attempted']} {result['failed']}")
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        if got != declared:
            fail(f"{workload} --trace {trace}: metrics {got} "
                 f"differ from BENCHMARK.json {declared}")
    if trace == 0:
        for name, unit in EXTRA[workload].items():
            if printed.get(name, (0, None))[1] != unit:
                fail(f"{workload}: {name} [{unit}] not printed")
        if "paper_err_pt" not in EXTRA[workload] and "paper_err_pt" in printed:
            fail(f"{workload}: paper_err_pt without a Table-2 reference")
    for name, unit in declared.items():
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if deterministic(name, unit) and a != b:
            fail(f"{workload}: {name} not deterministic: {a} vs {b}")
    if (first["attempted"], first["failed"]) != (second["attempted"],
                                                 second["failed"]):
        fail(f"{workload}: operation counts not deterministic")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_pass(w["name"], trace, declared[trace])
        proc = subprocess.run(
            [os.path.join(ROOT, ".bench_build", "perfbench_plain"),
             "--workload", w["name"], "--quick", "--seconds", "0",
             "--check-replicated"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=180)
        if proc.returncode != 0:
            fail(f"{w['name']} differs from core::run_replicated:\n"
                 f"{proc.stderr}")
        print(f"ok {w['name']}")


if __name__ == "__main__":
    main()

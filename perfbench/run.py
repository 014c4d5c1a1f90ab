#!/usr/bin/env python3
"""The repository benchmark: builds the simulator from source, runs one
named workload and prints every metric by name and unit.

    python3 perfbench/run.py --workload sweep|contended|thrash \\
        [--seed N] [--seconds S] [--trace 0|1] [--quick]

Run it from the root of the repository. It configures and builds
perfbench/ (which compiles ../src) into .bench_build/, then runs one
single-threaded process per pass:

  --trace 0  the untraced pass (perfbench_plain) for --seconds; prints the
             end-to-end metrics of BENCHMARK.json.
  --trace 1  the untraced pass and then the traced pass (perfbench_traced),
             half of --seconds each; checks that the traced pass reproduced
             the untraced pass's simulated outputs exactly and prints the
             per-layer metrics of BENCHMARK.json, obs.trace_overhead_pct
             being traced wall over untraced wall.

Every metric either pass measured is printed as a `name value unit` line;
the last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. Any failed check or build exits 1 without
that line. See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build")
RUN_LIMIT_S = 170  # the passes end well inside three minutes of the build


class BenchError(Exception):
    pass


def build():
    """Configures and builds both pass programs (both steps are no-ops when up to
    date); build output goes to stderr only when a step fails."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target",
              "perfbench_plain", "perfbench_traced"]]
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            raise BenchError("build step failed: " + " ".join(cmd))


def run_pass(binary, args, budget_s, deadline):
    cmd = [os.path.join(BUILD_DIR, binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(budget_s)]
    if args.quick:
        cmd.append("--quick")
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{binary} did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{binary} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{binary} printed nothing")
    result = json.loads(lines[-1])
    result["metrics"] = {name: (value, unit)
                         for name, (value, unit) in result["metrics"].items()}
    return result


# Simulated outcomes both passes report; they must agree exactly.
def outcome_names(metrics):
    return sorted(n for n in metrics
                  if n.startswith("hit_pct.") or n == "paper_err_pt")


def check_same_simulation(plain, traced):
    if plain["fingerprint"] != traced["fingerprint"]:
        for a, b in zip(plain["fingerprint"], traced["fingerprint"]):
            if a != b:
                raise BenchError("traced pass diverged from the untraced "
                                 f"pass: {a!r} vs {b!r}")
        raise BenchError("traced and untraced passes ran different batches")
    for name in outcome_names(plain["metrics"]):
        if plain["metrics"][name] != traced["metrics"].get(name):
            raise BenchError(f"traced pass changed {name}")
    if (plain["attempted"], plain["failed"]) != (traced["attempted"],
                                                 traced["failed"]):
        raise BenchError("traced pass changed the operation counts")


def as_number(value, unit):
    if unit in ("count", "bytes") and float(value).is_integer():
        return int(value)
    return value


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="shortened simulations (smoke test)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError(f"unknown workload {args.workload!r}")
    build()
    deadline = time.monotonic() + RUN_LIMIT_S

    if args.trace == 0:
        plain = run_pass("perfbench_plain", args, args.seconds, deadline)
        measured = dict(plain["metrics"])
        wanted = spec["end_to_end"]
    else:
        plain = run_pass("perfbench_plain", args, args.seconds / 2, deadline)
        traced = run_pass("perfbench_traced", args, args.seconds / 2,
                          deadline)
        check_same_simulation(plain, traced)
        measured = dict(traced["metrics"])
        traced_wall = measured.pop("traced_wall_s")[0]
        measured["obs.trace_overhead_pct"] = (
            100.0 * (traced_wall / plain["metrics"]["wall_s"][0] - 1.0), "%")
        wanted = spec["per_layer"]

    for name in sorted(measured):
        value, unit = measured[name]
        print(f"{name:34s} {value:>18.6g} {unit}")

    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            raise BenchError(f"{args.workload} did not measure {m['name']}")
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            raise BenchError(f"{m['name']} measured in {unit}, "
                             f"declared in {m['unit']}")
        metrics[m["name"]] = {"value": as_number(value, unit), "unit": unit}
    print(json.dumps({"correct": True, "attempted": plain["attempted"],
                      "failed": plain["failed"], "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        sys.exit(1)

#!/usr/bin/env python3
"""Smoke test of the benchmark, in seconds.

Runs every workload named in BENCHMARK.json at a tiny size (a small model
and frame on the same code paths, `--scale tiny`) for one second, with
tracing off and on, through the benchmark's own command. Asserts that:

* the last line of standard output is the result object, the correctness
  check passed and no frame failed;
* every metric BENCHMARK.json names is printed, in the result object and
  on a human-readable line, with its unit;
* the exact per-block work counts (`exec.*_per_block`) are identical for
  two different seeds, and the supervision counts repeat for one seed.

Run from anywhere: `python3 perfbench/smoke_test.py`.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXACT_PER_BLOCK = [
    "exec.mac3_per_block",
    "exec.mac1_per_block",
    "exec.bb_bytes_per_block",
    "exec.narrow_instrs_per_block",
]


def run(command, workload, seed, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--scale", "tiny",
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    label = f"{workload} seed {seed} trace {trace}"
    if proc.returncode != 0:
        sys.exit(f"FAIL {label}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit(f"FAIL {label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        sys.exit(f"FAIL {label}: {lines[-1]}")
    return result, lines[:-1]


def check_metrics(label, result, human, expected):
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        sys.exit(f"FAIL {label}: metrics {sorted(metrics)}, expected {sorted(expected)}")
    for name, unit in expected.items():
        m = metrics[name]
        if m["unit"] != unit or not isinstance(m["value"], (int, float)):
            sys.exit(f"FAIL {label}: {name} = {m}, expected a number in {unit}")
        if not any(line.split()[:1] == [name] and unit in line.split()[2:3] for line in human):
            sys.exit(f"FAIL {label}: no line prints {name} with its unit {unit}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for w in bench["workloads"]:
        name = w["name"]
        result, human = run(bench["command"], name, 1, 0)
        check_metrics(f"{name} trace 0", result, human, end_to_end)
        traced = {}
        for seed, rerun in [(1, 0), (1, 1), (2, 0)]:
            result, human = run(bench["command"], name, seed, 1)
            check_metrics(f"{name} trace 1 seed {seed}", result, human, per_layer)
            traced[(seed, rerun)] = result["metrics"]
        for metric in EXACT_PER_BLOCK:
            values = {v[metric]["value"] for v in traced.values()}
            if len(values) != 1:
                sys.exit(f"FAIL {name}: {metric} differs across seeds and runs: {values}")
        for metric in per_layer:
            if metric.startswith("supervise."):
                a, b = traced[(1, 0)][metric]["value"], traced[(1, 1)][metric]["value"]
                if a != b:
                    sys.exit(f"FAIL {name}: {metric} does not repeat for one seed: {a} != {b}")
        print(f"ok {name}")
    print("smoke test passed")


if __name__ == "__main__":
    main()

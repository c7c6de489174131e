#!/usr/bin/env python3
"""Measure the benchmark's own noise the way the driver judges it.

Runs the `command` of ../BENCHMARK.json `--runs` times per workload, each
time with another --seed, and does that `--sets` times over the same seeds.
For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles(values, n=4)), the spread (Q3 - Q1) / median that the
driver compares with the metric's bound, and the gap between the medians of
the first and the last set. Output is the markdown that NOISE.md holds.

    python3 benchmark/noise.py --runs 10 --sets 2 > /tmp/noise.md
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    out = subprocess.run(argv, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output checks failed\n{out}")
    return {k: v["value"] for k, v in result["metrics"].items()}, time.time() - t0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs (seeds) per workload per set")
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="only these workloads")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    print(f"{args.sets} sets of {args.runs} runs (seeds {seeds[0]}..{seeds[-1]}), "
          f"`--seconds {bench['run_seconds']}`, command `{' '.join(bench['command'])}`.\n")
    for workload in workloads:
        sets, lengths = [], []
        for _ in range(args.sets):
            runs = []
            for seed in seeds:
                metrics, secs = run(bench["command"], workload, seed, bench["run_seconds"])
                runs.append(metrics)
                lengths.append(secs)
                print(f"  {workload} seed {seed}: {secs:.1f} s", file=sys.stderr)
            sets.append(runs)
        print(f"### `{workload}` (process length {min(lengths):.1f}–{max(lengths):.1f} s)\n")
        print("| metric | bound | " + " | ".join(
            f"set {i + 1}: median [Q1, Q3] spread" for i in range(args.sets)) + " | set gap |")
        print("|---|---|" + "---|" * (args.sets + 1))
        for name, bound in bounds.items():
            cells, medians = [], []
            for runs in sets:
                values = [r[name] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                medians.append(med)
                cells.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] {100 * (q3 - q1) / med:.2f} %")
            worse = medians[-1] - medians[0] if better[name] == "lower" else medians[0] - medians[-1]
            print(f"| `{name}` | {100 * bound:.0f} % | " + " | ".join(cells)
                  + f" | {100 * worse / medians[0]:+.2f} % |")
        print()


if __name__ == "__main__":
    main()

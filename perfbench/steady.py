#!/usr/bin/env python3
"""Steadiness mode: run each workload N times and summarise every metric.

Runs the benchmark command from BENCHMARK.json once per (workload, seed),
seeds base, base+1, ..., and prints for each metric the median, the first
and third quartiles (Python's statistics.quantiles(values, n=4)) and the
spread (q3 - q1) / median next to the metric's bound. With --sets 2 it
repeats the whole series and also compares the two medians.

Run from the repository root:

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --runs 5 --workloads mpl_tune --sets 2
    python3 perfbench/steady.py --runs 3 --trace 1
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, output {lines[-1:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: output check failed: {lines[-1]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10, help="runs per workload and set")
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()
    if args.runs < 2:
        sys.exit("--runs must be at least 2 for quartiles")

    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    os.chdir(root)
    verdict = True
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + i
                runs.append(run_once(bench["command"], workload, seed, args.seconds, args.trace))
                print(f"# {workload} set {s + 1} seed {seed} done", file=sys.stderr, flush=True)
            print(f"{workload} (set {s + 1}, {args.runs} runs)")
            print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
            set_medians = {}
            for name in runs[0]:
                med, q1, q3, spread = summarise([r[name] for r in runs])
                set_medians[name] = med
                bound = bounds.get(name, (None, None))[0]
                flag = ""
                if bound is not None:
                    flag = "ok" if spread < bound / 3 else ("WIDE" if spread > bound else "near")
                    verdict &= spread <= bound
                b = f"{bound:.2f}" if bound is not None else "-"
                print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {spread:>8.4f} {b:>6} {flag}")
            medians.append(set_medians)
        if len(medians) == 2:
            print(f"{workload}: second median vs first")
            for name, (bound, better) in bounds.items():
                a, b = medians[0][name], medians[1][name]
                worse = (b - a) / a if better == "lower" else (a - b) / a
                ok = worse <= bound
                verdict &= ok
                print(f"  {name:<28} {a:>14.6g} -> {b:<14.6g} worse by {worse:+.4f} "
                      f"(bound {bound}) {'ok' if ok else 'FAIL'}")
    sys.exit(0 if verdict else 1)


if __name__ == "__main__":
    main()

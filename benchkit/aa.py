#!/usr/bin/env python3
"""A/A check: two sets of runs of the same code, judged as the driver judges.

Run from the repository root:

    python3 benchkit/aa.py [--runs 10] [--seconds <run_seconds>] [--workloads a,b]

For each workload it runs BENCHMARK.json's command `--runs` times per set,
each run with another seed, and prints for every end-to-end metric both
sets' medians, each set's spread (IQR / median, statistics.quantiles n=4)
and pass/fail: every spread except setup_s's must stay within the metric's
bound, and the second median may not be worse than the first by more than
the bound. It also says whether each spread is below a third of the bound,
the margin the benchmark is tuned to. Exits 1 on any failure.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys


def run_once(bench, workload, seed, seconds):
    command = bench["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--workloads")
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if not os.path.exists("BENCHMARK.json"):
        sys.exit("run from the repository root (BENCHMARK.json not found)")
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    failures = 0
    for workload in names:
        sets = []
        for which in range(2):
            seeds = range(args.first_seed + which * args.runs, args.first_seed + (which + 1) * args.runs)
            sets.append([run_once(bench, workload, seed, seconds) for seed in seeds])
        print(f"== {workload}: 2 x {args.runs} runs of {seconds} s")
        print(f"{'metric':<22}{'median A':>14}{'median B':>14}{'B vs A':>9}"
              f"{'spread A':>10}{'spread B':>10}{'bound':>7}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a, b = ([run[name] for run in runs] for runs in sets)
            med_a, med_b = statistics.median(a), statistics.median(b)
            worse = (med_b - med_a) / med_a * (1 if metric["better"] == "lower" else -1)
            spreads = (spread(a), spread(b))
            ok = worse <= bound and (name == "setup_s" or max(spreads) <= bound)
            tuned = name == "setup_s" or max(spreads) <= bound / 3
            failures += not ok
            verdict = "FAIL" if not ok else "pass" if tuned else "pass (spread > bound/3)"
            print(f"{name:<22}{med_a:>14.6g}{med_b:>14.6g}{worse:>+9.3f}"
                  f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}{bound:>7.2f}  {verdict}")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()

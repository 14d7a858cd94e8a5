#!/usr/bin/env python3
"""Steadiness mode: repeats one workload with different seeds and prints,
for every end-to-end metric, its median, quartiles and spread beside the
bound BENCHMARK.json gives it.

    python3 perfbench/steady.py --workload <name> [--runs 10] [--first-seed 1]
                                [--seconds <s>]

Run from the root of a checkout. Spread is (q3 - q1) / median, with the
quartiles of Python's statistics.quantiles(values, n=4). A spread must stay
below a third of its bound for the benchmark to count as steady. The failed
share of every run is printed too: it must be identical across runs. A run
that exits non-zero, reports `correct: false` or leaves out a metric stops
the series as failed.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    args = ap.parse_args()

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    values = {m["name"]: [] for m in spec["end_to_end"]}
    shares = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               args.workload, "--seed", str(seed), "--seconds", f"{seconds:g}",
               "--trace", "0"]
        out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"seed {seed}: run failed with code {out.returncode}")
            return 1
        res = json.loads(lines[-1])
        missing = [n for n in values if n not in res["metrics"]]
        if not res["correct"] or missing:
            print(f"seed {seed}: run failed (correct {res['correct']}, "
                  f"missing metrics {missing})")
            return 1
        shares.append(res["failed"] / res["attempted"])
        for name in values:
            values[name].append(res["metrics"][name]["value"])
        shown = " ".join(f"{n}={v[-1]:.5g}" for n, v in values.items())
        print(f"seed {seed}: attempted {res['attempted']}, failed "
              f"{res['failed']}, correct {res['correct']}; {shown}", flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds:g} s")
    print(f"{'metric':<20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}  steady")
    steady = True
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        q1, med, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        ok = spread < m["bound"] / 3
        steady &= ok
        print(f"{m['name']:<20} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {m['bound']:>6.2f}  {'yes' if ok else 'NO'}")
    same_share = len(set(shares)) == 1
    print(f"failed share identical across runs: {same_share} ({shares[0]:.6g})")
    return 0 if steady and same_share else 1


if __name__ == "__main__":
    sys.exit(main())

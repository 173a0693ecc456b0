#!/usr/bin/env python3
"""Repeat run.py over consecutive seeds and print the spread of every metric.

Usage (from the root of a checkout):
    python3 perfbench/repeat.py --workload padic-exact --runs 10 --first-seed 1

For each end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and the interquartile range as a share of
the median, which is how the bounds in BENCHMARK.json were chosen. It also
prints the share of failed operations of each run, which must not vary.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            seconds = json.load(fh)["run_seconds"]

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        res = json.loads(out.stdout.strip().splitlines()[-1])
        results.append(res)
        shown = ", ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
        print(f"seed {seed}: correct={res['correct']} failed={res['failed']}/{res['attempted']} "
              f"{shown}", flush=True)

    print(f"\n{args.workload}: {len(results)} runs, {seconds} s each")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"  failed share per run: {shares}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        unit = results[0]["metrics"][name]["unit"]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:24s} median {med:.5g} {unit}  q1 {q1:.5g}  q3 {q3:.5g}  "
              f"IQR/median {spread:.4f}")


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Steadiness mode: run one workload repeatedly and report, per metric, the
median and the interquartile range as a share of the median.

Run from the repository root:

    python3 perfbench/steady.py --workload serve-mix --runs 10 --first-seed 1

Each run uses the command and run length of BENCHMARK.json with its own seed,
untraced: the end-to-end metrics are the ones with bounds.
The spread is computed as `statistics.quantiles(values, n=4)` gives the
quartiles; a metric is steady when its spread is below a third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    units = {}
    for i in range(args.runs):
        seed = args.first_seed + i
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0",
        ]
        out = subprocess.run(cmd, capture_output=True, text=True, check=False)
        if out.returncode != 0:
            sys.exit(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: outputs not correct: {result}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n}={m['value']:.6g}" for n, m in result["metrics"].items()), flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s")
    print(f"{'metric':<42} {'median':>14} {'iqr/median':>11} {'bound':>7}  steady")
    for name, vs in values.items():
        if len(vs) < 2 or any(v is None for v in vs):
            continue
        q1, q2, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / q2 if q2 else float("inf")
        bound = bounds.get(name)
        steady = "-" if bound is None else ("yes" if spread < bound / 3 else "NO")
        b = "" if bound is None else f"{bound:.2f}"
        print(f"{name:<42} {q2:>14.6g} {spread:>11.4f} {b:>7}  {steady}  {units[name]}")


if __name__ == "__main__":
    main()

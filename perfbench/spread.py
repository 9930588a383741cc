#!/usr/bin/env python3
"""Spread report: run each workload once per seed, each run in its own
process, and print per end-to-end metric the median, the quartiles and the
relative spread (interquartile range over median), with the bound
BENCHMARK.json sets. Quartiles are Python's statistics.quantiles(n=4).

Run from the repository root:

    python3 perfbench/spread.py                       # every workload, seeds 0-9
    python3 perfbench/spread.py --workloads scale_ff --seeds 24-28
"""

import argparse
import json
import statistics
import subprocess
import sys


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="0-9", help="e.g. 0-9 or 1,5,24-31")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    ok = True
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        failed = attempted = 0
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            out = subprocess.run(cmd, capture_output=True, text=True, check=False)
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                tail = "\n".join(out.stderr.splitlines()[-20:])
                print(f"{workload} seed {seed}: exit {out.returncode}\n{tail}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(lines[-1])
            ok &= result["correct"]
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
            line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: {line}", file=sys.stderr)
        print(f"\n{workload}: {attempted} attempted, {failed} failed"
              f" (fail_frac {failed / max(attempted, 1):.4f})")
        print(f"  {'metric':40} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound':>6}")
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds[name]
            flag = ""
            if name != "setup_s" and not spread <= bound / 3:
                flag = "  above a third of the bound"
            print(f"  {name:40} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}"
                  f" {bound:>6}{flag}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()

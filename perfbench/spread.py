#!/usr/bin/env python3
"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload cd40-setup --seeds 0-9 [--seconds 30]

For every end-to-end metric prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median next
to the bound in BENCHMARK.json. Runs are sequential, one fresh process each.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import ROOT, last_json


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(t) for t in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(t) for t in text.split(",")]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("0-9"))
    p.add_argument("--seconds", type=int)
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]

    values: dict[str, list] = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in args.seeds:
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
        wall = time.perf_counter() - t0
        result = last_json(proc.stdout)
        if proc.returncode != 0 or result is None or not result["correct"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed} ({wall:.1f} s): "
              + " ".join(f"{k}={v:.6g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values[k].append(v)

    print(f"\n{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    worst = 0
    for m in spec["end_to_end"]:
        vals = values[m["name"]]
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med
        flag = "" if spread < m["bound"] / 3 else "  above bound/3"
        if spread > m["bound"]:
            worst = 1
        print(f"{m['name']:<14} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.4f} "
              f"{m['bound']:>6}{flag}")
    return worst


if __name__ == "__main__":
    sys.exit(main())

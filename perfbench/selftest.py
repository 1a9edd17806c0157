#!/usr/bin/env python3
"""Harness self-test on tiny instances; takes well under a minute.

    python3 perfbench/selftest.py

Checks that
  1. both workload kinds (solve, sweep), untraced and traced, print every
     BENCHMARK.json metric by name with its unit and end in a valid result line;
  2. iterations and fill_total repeat exactly for a repeated seed;
  3. a starved solve (maxit=2) is counted in `failed` and exits non-zero;
  4. in a directory holding only BENCHMARK.json and perfbench/, the command
     exits non-zero without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import ROOT, last_json

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def invoke(workload: str, trace: int, cwd: Path = ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc, last_json(proc.stdout)


def check_printed(spec, workload: str, trace: int, errors: list):
    proc, result = invoke(workload, trace)
    where = f"{workload} --trace {trace}"
    declared = spec["per_layer" if trace else "end_to_end"]
    if proc.returncode != 0 or result is None:
        errors.append(f"{where}: exit {proc.returncode}\n{proc.stderr}")
        return None
    if set(result) != RESULT_KEYS or not result["correct"] or result["attempted"] < 1:
        errors.append(f"{where}: bad result line {result}")
    if set(result["metrics"]) != {m["name"] for m in declared}:
        errors.append(f"{where}: metrics {sorted(result['metrics'])} differ from BENCHMARK.json")
    table = proc.stdout.splitlines()
    for m in declared:
        if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]:
            errors.append(f"{where}: {m['name']} lacks unit {m['unit']} in the result line")
        if not any(ln.split()[:1] == [m["name"]] and m["unit"] in ln.split() for ln in table):
            errors.append(f"{where}: {m['name']} not printed with unit {m['unit']}")
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors: list[str] = []

    for workload in ("tiny-solve", "tiny-sweep"):
        first = check_printed(spec, workload, 0, errors)
        check_printed(spec, workload, 1, errors)
        _, again = invoke(workload, 0)
        for key in ("iterations", "fill_total"):
            if first and again and first["metrics"][key] != again["metrics"][key]:
                errors.append(f"{workload}: {key} did not repeat for seed 0")

    proc, result = invoke("tiny-starved", 0)
    if proc.returncode == 0 or result is None or result["failed"] < 1 or result["correct"]:
        errors.append(f"starved solve: exit {proc.returncode}, result {result}")

    bare = ROOT / ".bench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc, result = invoke("tiny-solve", 0, cwd=bare)
        if proc.returncode == 0 or result is not None:
            errors.append(f"without src/: exit {proc.returncode}, result {result}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for e in errors:
        print("FAIL " + e)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())

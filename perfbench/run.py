#!/usr/bin/env python3
"""pslr benchmark: run one pinned workload in this fresh process and report.

    python3 perfbench/run.py --workload l32-indefinite --seed 0 --seconds 40 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing patched;
``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics (see README.md). ``--workload all`` runs every workload of
BENCHMARK.json, each in its own fresh process. The library is imported from
``src/`` of the checkout this file sits in; without it the command fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every solve converged to tol, as recomputed by the benchmark, and
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

from workloads import REFERENCE, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# The BLAS/OpenMP pool sizes pslr's console launcher exports before numpy
# loads; checked against pslr._main after import.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS")

MIN_REPS = 2        # build + solve repetitions in an untraced run
IMPORT_SAMPLES = 3  # fresh-process `import pslr.cli` timings behind cli.import_s

EXIT_CHECK = 1      # a solve failed or a result check failed
EXIT_ENV = 2        # the library cannot be imported from this checkout
EXIT_TRACE = 3      # the trace contradicts the program's structure


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def last_json(text: str):
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


# --------------------------------------------------------------------------
# environment and provenance

def pin_environment():
    """Cap the BLAS pools at nproc and drop PSLR_* defaults, before numpy loads."""
    for var in [v for v in os.environ if v.startswith("PSLR_")]:
        del os.environ[var]
    for var in THREAD_VARS:
        os.environ[var] = str(nproc())


def import_pslr():
    sys.path.insert(0, str(SRC))
    import pslr
    import pslr._main
    import pslr.cli
    where = Path(pslr.__file__).resolve().parent
    if where != SRC / "pslr":
        raise ImportError(f"pslr was imported from {where}, not from {SRC / 'pslr'}")
    if tuple(pslr._main._THREAD_VARS) != THREAD_VARS:
        raise ImportError(f"pslr exports {pslr._main._THREAD_VARS}, benchmark pins {THREAD_VARS}")
    return pslr


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "pslr").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unavailable ({exc})"
    return out.stdout.strip() or "unavailable"


def provenance(wl, args) -> dict:
    import numpy
    import scipy
    return {
        "git_commit": git_commit(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "nproc": nproc(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": args.seed,
        "run_seconds": args.seconds,
        "trace": args.trace,
        "workload": asdict(wl),
    }


# --------------------------------------------------------------------------
# one repetition of each workload kind

class Runner:
    """Generated inputs of one workload and seed, and the calls that time it."""

    def __init__(self, pslr, wl, seed: int):
        import numpy as np
        from pslr.problems import parse_problem
        self.np, self.pslr, self.wl, self.seed = np, pslr, wl, seed
        self.A = parse_problem(wl.problem)[1]
        self.b = self.A @ np.random.default_rng(seed).standard_normal(self.A.shape[0])
        self.bnorm = np.linalg.norm(self.b)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def build(self):
        cfg = self.pslr.PslrConfig(**self.wl.config_kwargs(self.seed))
        t0 = time.perf_counter()
        P = self.pslr.preconditioner.build(self.A, cfg)
        return P, time.perf_counter() - t0

    def _record(self, what: str, converged: bool, relres: float):
        self.attempted += 1
        if not (converged and relres <= self.wl.tol):
            self.failed += 1
            self.problems.append(f"{what}: converged={converged} relres={relres:.3e} "
                                 f"(tol {self.wl.tol:g})")

    def solve(self, P):
        """`pslr solve`'s own solve path on this build; returns (GMRES s, its)."""
        cli = self.pslr.cli
        manifest = cli._manifest_from_args(cli.build_parser().parse_args(
            self.wl.cli_args(self.seed)))
        x, report = cli._solve_with(self.A, P, manifest)
        relres = float(self.np.linalg.norm(self.b - self.A @ x) / self.bnorm)
        self._record("library solve", report.converged, relres)
        return report.time_s, report.iterations

    def cli(self, tag: str):
        """`pslr.cli.main` on this workload; returns (wall s, rc, parsed output)."""
        OUT.mkdir(exist_ok=True)
        ext = "csv" if self.wl.kind == "sweep" else "json"
        out = OUT / f"{self.wl.name}-seed{self.seed}-{tag}-{os.getpid()}.{ext}"
        t0 = time.perf_counter()
        rc = self.pslr.cli.main(self.wl.cli_args(self.seed, str(out)))
        elapsed = time.perf_counter() - t0
        try:
            text = out.read_text()
        except FileNotFoundError:
            text = ""
        out.unlink(missing_ok=True)
        if self.wl.kind == "sweep":
            return elapsed, rc, self._sweep_rows(text, rc)
        if not text:
            self.problems.append(f"pslr solve exited {rc} without writing its JSON")
            self.attempted += 1
            self.failed += 1
            return elapsed, rc, None
        record = json.loads(text)
        self._record("pslr solve", record["converged"], record["final_relres"])
        return elapsed, rc, record

    def _sweep_rows(self, text: str, rc: int):
        """Check each CSV row; `pslr sweep` exits 0 even when a row did not converge."""
        import csv
        rows = list(csv.DictReader(text.splitlines()))
        if rc != 0 or len(rows) != len(self.wl.sweep_ranks):
            self.problems.append(f"pslr sweep exited {rc} with {len(rows)} rows, "
                                 f"expected {len(self.wl.sweep_ranks)}")
        for row in rows:
            self._record(f"sweep row rank={row['value']}", row["converged"] == "True",
                         float(row["final_relres"]))
        return rows

    def sweep(self, fill: float) -> dict:
        """`pslr sweep` through cli.main; its rank-30 row must have `fill` of a rank-30 build."""
        wall, _, rows = self.cli("sweep")
        top = max(rows, key=lambda r: int(r["value"]), default=None)
        if top is not None and float(top["fill_total"]) != round(fill, 6):
            self.problems.append(f"sweep rank-{top['value']} row fill_total {top['fill_total']} "
                                 f"differs from pslr.build at rank {self.wl.rank}: {fill!r}")
        return {"solve": sum(float(r["i_t"]) for r in rows), "total": wall,
                "iterations": sum(int(r["its"]) for r in rows),
                "fill_total": float(top["fill_total"]) if top else 0.0}

    def repetition(self) -> dict:
        """One build and its solve(s), untraced."""
        P, setup = self.build()
        fill = P.stats.fill_total
        if self.wl.kind == "solve":
            solve, its = self.solve(P)
            return {"setup": setup, "solve": solve, "total": setup + solve,
                    "iterations": its, "fill_total": fill}
        del P   # the sweep builds its own prefix
        return {"setup": setup, **self.sweep(fill)}


def warm_up(pslr):
    """Load lazily imported scipy code paths before anything is timed."""
    import numpy as np
    from pslr.problems import parse_problem
    A = parse_problem("lap3d:8,8,8,0.05")[1]
    P = pslr.build(A, pslr.PslrConfig(num_subdomains=4, series_degree=2, rank=3))
    pslr.gmres(lambda v: A @ v, P.apply_original, A @ np.ones(A.shape[0]), tol=1e-8)


# --------------------------------------------------------------------------
# untraced and traced runs

def summarize(samples: list) -> dict:
    return {"value": statistics.fmean(samples), "n": len(samples),
            "min": min(samples), "max": max(samples), "samples": samples}


def check_repeats(runner, key: str, seen: set):
    if len(seen) > 1:
        runner.problems.append(f"{key} differs between repetitions of one seed: {sorted(seen)}")


def check_reference(wl, seed, iterations, fill_total) -> list[str]:
    ref = REFERENCE.get(wl.name, {}).get(seed)
    if ref is None:
        return []
    got = {"iterations": iterations, "fill_total": fill_total}
    return [f"behaviour change: {k} = {got[k]!r}, recorded {ref[k]!r} for seed {seed}"
            for k in ref if got[k] != ref[k]]


def measured_run(runner, seconds: float):
    """Sample until `seconds` are spent; each time metric is the mean of its samples.

    The run repeats build + solve (build + `pslr sweep` on the sweep) while a
    whole repetition still fits, at least MIN_REPS times, then fills what is
    left with single solves of the last build and then with single builds. The
    host's speed changes in phases of tens of seconds or longer, so one sample
    is fast or slow as a whole; the mean over the run follows the share of slow time
    smoothly, where a median of a few samples jumps between the two levels.
    """
    deadline = time.perf_counter() + seconds

    def fits(*samples):
        return time.perf_counter() + sum(max(s) for s in samples) <= deadline

    # One preconditioner alive at a time, as in a single `pslr solve`: a dropped
    # one is collected at once, so a late cyclic GC cannot move peak_rss_mb.
    setups, solves, totals = [], [], []
    its, fills, reported_fill = set(), set(), None
    P = None
    while len(setups) < MIN_REPS or fits(setups, solves):
        P = None
        gc.collect()
        P, setup = runner.build()
        setups.append(setup)
        fill = reported_fill = P.stats.fill_total
        fills.add(fill)
        if runner.wl.kind == "solve":
            solve, n = runner.solve(P)
        else:
            P = None    # the sweep builds its own prefix
            gc.collect()
            rep = runner.sweep(fill)
            solve, n, reported_fill = rep["solve"], rep["iterations"], rep["fill_total"]
            totals.append(rep["total"])
        solves.append(solve)
        its.add(n)
    while P is not None and fits(solves):
        solve, n = runner.solve(P)
        solves.append(solve)
        its.add(n)
    P = None
    gc.collect()
    while fits(setups):
        P, setup = runner.build()
        setups.append(setup)
        fills.add(P.stats.fill_total)
        P = None
        gc.collect()
    check_repeats(runner, "iterations", its)
    check_repeats(runner, "fill_total", fills)
    setup, solve = summarize(setups), summarize(solves)
    if runner.wl.kind == "solve":
        total = {"value": setup["value"] + solve["value"], "n": solve["n"]}
    else:
        total = summarize(totals)
    counts = {"iterations": min(its), "fill_total": reported_fill}
    detail = {
        "setup_s": setup,
        "solve_s": solve,
        "total_s": total,
        "iterations": {"value": counts["iterations"], "n": solve["n"]},
        "fill_total": {"value": counts["fill_total"], "n": setup["n"]},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "n": 1},
    }
    return detail, counts


def cli_import_seconds() -> list[float]:
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import pslr.cli; print(time.perf_counter() - t)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                             text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def traced_run(runner, trace_id: str):
    import spans
    wl = runner.wl
    reference = runner.repetition()
    tracer = spans.Tracer(trace_id)
    with tracer.patched():
        if wl.kind == "sweep":
            runner.build()
        with tracer.span("cli.main"):
            _, _, out = runner.cli("traced")
    if wl.kind == "solve":
        traced_total = tracer.total("preconditioner.build") + tracer.total("krylov.gmres")
        got = (out["its"], out["fill_total"]) if out else None
        want = (reference["iterations"], reference["fill_total"])
        if got != want:
            runner.problems.append(f"pslr solve gave (its, fill_total) = {got}, the library "
                                   f"run gave {want}: the workload is not `pslr solve`")
    else:
        traced_total = tracer.total("cli.main")
        its = sum(int(r["its"]) for r in out)
        if its != reference["iterations"]:
            runner.problems.append(f"traced sweep took {its} iterations, untraced "
                                   f"{reference['iterations']}")
    violations = spans.check_structure(tracer, wl.m)
    imports = cli_import_seconds()
    metrics = spans.layer_metrics(tracer)
    metrics["cli.import_s"] = statistics.median(imports)
    metrics["trace.span_cost_s"] = len(tracer.spans) * spans.span_cost()
    detail = {k: {"value": v, "n": 1} for k, v in metrics.items()}
    detail["cli.import_s"]["n"] = len(imports)
    # Reported beside the metrics, not as metrics: repairs are usually 0 and the
    # overhead, a difference of two noisy times, can be negative.
    side = {
        "trace.overhead_s": (traced_total - reference["total"], "s"),
        "ilu.pivot_repairs": (tracer.last_attr("ilu.factor_B", "pivot_repairs")
                              + tracer.last_attr("ilu.factor_C0", "pivot_repairs"), "count"),
    }
    return detail, side, reference, tracer, violations


# --------------------------------------------------------------------------
# reporting

def report(spec, detail, side, runner, trace: int, notes: list[str]) -> dict:
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(detail):
        raise SystemExit(f"metric names differ from BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(detail))}, "
                         f"undeclared {sorted(set(detail) - set(units))}")
    failed_frac = runner.failed / runner.attempted
    print(f"{'metric':<36} {'value':>24} {'unit':<10} {'n':>3} {'min':>12} {'max':>12}")
    for m in declared:
        d = detail[m["name"]]
        lo = "" if d.get("min") is None else f"{d['min']:.6g}"
        hi = "" if d.get("max") is None else f"{d['max']:.6g}"
        print(f"{m['name']:<36} {d['value']!r:>24} {m['unit']:<10} {d['n']:>3} {lo:>12} {hi:>12}")
    print(f"{'failed_frac':<36} {failed_frac!r:>24} {'ratio':<10} "
          f"{runner.attempted:>3}   ({runner.failed} of {runner.attempted} solves failed)")
    for name, (value, unit) in side.items():
        print(f"{name:<36} {value!r:>24} {unit:<10}   1   (not a metric)")
    for line in runner.problems:
        print("CHECK FAILED: " + line, file=sys.stderr)
    for line in notes:
        print(line, file=sys.stderr)
    return {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": detail[m["name"]]["value"], "unit": m["unit"]}
                    for m in declared},
    }


def run_one(args) -> int:
    pin_environment()
    try:
        pslr = import_pslr()
    except ImportError as exc:
        print(f"error: cannot import pslr from {SRC}: {exc}", file=sys.stderr)
        return EXIT_ENV
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return EXIT_ENV
    spec = load_spec()
    prov = provenance(wl, args)
    print("provenance " + json.dumps(prov, sort_keys=True))
    warm_up(pslr)
    runner = Runner(pslr, wl, args.seed)
    tracer, violations, side = None, [], {}
    if args.trace:
        import spans
        try:
            detail, side, first, tracer, violations = traced_run(
                runner, f"{wl.name}/seed{args.seed}")
        except spans.TraceCheckError as exc:
            print(f"error: trace self-check failed: {exc}", file=sys.stderr)
            return EXIT_TRACE
    else:
        detail, first = measured_run(runner, args.seconds)
    notes = check_reference(wl, args.seed, first["iterations"], first["fill_total"])
    result = report(spec, detail, side, runner, args.trace, notes + violations)

    OUT.mkdir(exist_ok=True)
    record = {"provenance": prov, "detail": detail,
              "side": {k: v for k, (v, _) in side.items()}, "checks": runner.problems,
              "notes": notes, "trace_violations": violations, "result": result}
    if tracer is not None:
        record["spans"] = [s.to_dict() for s in tracer.spans]
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    if violations:
        print("error: trace self-checks failed", file=sys.stderr)
        return EXIT_TRACE
    print(json.dumps(result))
    return 0 if result["correct"] and runner.failed == 0 else EXIT_CHECK


def run_all(args) -> int:
    """Every BENCHMARK.json workload, each in a fresh process; one combined line."""
    spec = load_spec()
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        print(f"== {w['name']}", flush=True)
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(proc.stdout)
        result = last_json(proc.stdout)
        worst = max(worst, proc.returncode)
        if result is None:
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{w['name']}.{name}"] = m
    print(json.dumps(combined))
    return worst


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())

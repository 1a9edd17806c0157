"""Print a fingerprint of one pslr build and solve, to check a change keeps the bits.

    PYTHONPATH=src python tools/fingerprint.py PROBLEM S M RANK DROPTOL
    PYTHONPATH=src python tools/fingerprint.py WORKLOAD

builds the preconditioner for the problem string (as `pslr solve --problem`),
or for the Matrix Market file when PROBLEM names an existing file (as
`pslr solve --matrix`), with seed 0, runs `pslr solve`'s GMRES on it (tol
1e-8, maxit 500, no restart), and prints one JSON line.  It holds a sha256
digest, with dtype and shape, of the partition (`assignment`, vertex ->
subdomain) and the reordering (`perm.forward`, old -> new index), of each
CSR array of B's and C0's `L` and `U`, of `V` and `G`, of one `apply` and
one `apply_original` of a seeded vector, of the solution and of the
residual history, and then `its`, `fill_total`, `pivot_repairs` and
`final_relres`.  Two commits that print the same line computed the same
partition, factors, correction and iterates to the bit.

WORKLOAD names one of the benchmark's pinned workloads in
`perfbench/workloads.py` and stands for its problem, s, m, rank and
droptol.  For example, the benchmark's `l32-indefinite` workload:

    PYTHONPATH=src python tools/fingerprint.py l32-indefinite
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import sys
from pathlib import Path

import numpy as np

from pslr import cli, preconditioner

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def digest(a) -> str:
    """'sha256 dtype shape' of an array's bytes in C order."""
    a = np.ascontiguousarray(a)
    return f"{hashlib.sha256(a.tobytes()).hexdigest()} {a.dtype} {'x'.join(map(str, a.shape))}"


def fingerprint(problem: str, s: int, m: int, rank: int, droptol: float) -> dict:
    source = {"matrix" if os.path.isfile(problem) else "problem": problem}
    manifest = cli.RunManifest(**source, s=s, m=m, rank=rank, droptol=droptol)
    A = cli._load_matrix(manifest)
    P = preconditioner.build(A, cli._config(manifest))
    out = {"assignment": digest(P.system.assignment), "perm.forward": digest(P.system.perm.forward)}
    for name, filu in (("B", P.ctx.b_ilu), ("C0", P.ctx.c0_ilu)):
        for side, T in (("L", filu.L), ("U", filu.U)):
            for part in ("data", "indices", "indptr"):
                out[f"{name}.{side}.{part}"] = digest(getattr(T, part))
    out["V"] = digest(P.correction.V)
    out["G"] = digest(P.correction.G)
    v = np.random.default_rng(0).standard_normal(A.shape[0])
    out["apply"] = digest(P.apply(v))
    out["apply_original"] = digest(P.apply_original(v))
    x, report = cli._solve_with(A, P, manifest)
    out["solution"] = digest(x)
    out["history"] = digest(report.history)
    out.update(its=report.iterations, fill_total=P.stats.fill_total,
               pivot_repairs=P.stats.pivot_repairs, final_relres=report.final_relres)
    return out


def workloads() -> dict:
    """The benchmark's `WORKLOADS`, loaded from its file: perfbench is no package."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # where its dataclass looks up its own module
    spec.loader.exec_module(module)
    return module.WORKLOADS


def main(argv: list[str]) -> int:
    if len(argv) == 1 and argv[0] in (pinned := workloads()):
        w = pinned[argv[0]]
        argv = [w.problem, w.s, w.m, w.rank, w.droptol]
    if len(argv) != 5:
        print(__doc__.strip(), file=sys.stderr)
        return 1
    problem, s, m, rank, droptol = argv
    print(json.dumps(fingerprint(problem, int(s), int(m), int(rank), float(droptol))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

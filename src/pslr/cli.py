"""Command-line front end: solve, sweep, and spectrum subcommands.

Every flag can also be supplied through an environment variable with the
``PSLR_`` prefix (e.g. ``PSLR_DROPTOL=1e-3``); explicit flags win.  The
right-hand side is generated as A x with a seeded random x, and the solve
starts from a zero initial guess.

Exit codes: 0 converged, 1 input/usage error, 2 solver failed to converge.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, asdict, field

import numpy as np

from . import preconditioner
from .diagnostics import dense_schur, emit_spectrum_csv, spectrum, DENSE_GUARD
from .krylov import cg, gmres
from .lowrank import arnoldi, build_correction
from .partition import classify_and_reorder, partition_graph, save_assignment_json
from .preconditioner import PslrConfig, PslrPreconditioner
from .problems import parse_problem
# unused here; kept because perfbench/spans.py wraps both names on this module
from .schur import apply_Err, build_schur_context  # noqa: F401
from .sparse import read_matrix_market


@dataclass
class RunManifest:
    """Full record of one run; serializes round-trip stable."""

    matrix: str | None = None
    problem: str | None = None
    s: int = 8
    m: int = 3
    rank: int = 15
    droptol: float = 1e-2
    krylov: str = "gmres"
    tol: float = 1e-8
    maxit: int = 500
    restart: int = 0
    seed: int = 0
    threads: int = 0
    out: str | None = None
    partition_out: str | None = None
    axis: str | None = None
    values: list = field(default_factory=list)
    target: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


def _env_default(name, fallback, cast):
    raw = os.environ.get("PSLR_" + name.upper())
    if raw is None:
        return fallback
    return cast(raw)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--matrix", default=_env_default("matrix", None, str),
                   help="Matrix Market file")
    p.add_argument("--problem", default=_env_default("problem", None, str),
                   help="problem string, e.g. lap3d:20,20,20,0.05")
    p.add_argument("--s", type=int, default=_env_default("s", 8, int),
                   help="number of subdomains")
    p.add_argument("--m", type=int, default=_env_default("m", 3, int),
                   help="power-series degree (m+1 terms)")
    p.add_argument("--rank", type=int, default=_env_default("rank", 15, int),
                   help="low-rank correction rank")
    p.add_argument("--droptol", type=float, default=_env_default("droptol", 1e-2, float))
    p.add_argument("--krylov", choices=("gmres", "cg"),
                   default=_env_default("krylov", "gmres", str))
    p.add_argument("--tol", type=float, default=_env_default("tol", 1e-8, float))
    p.add_argument("--maxit", type=int, default=_env_default("maxit", 500, int))
    p.add_argument("--restart", type=int, default=_env_default("restart", 0, int),
                   help="GMRES restart length (0 = full)")
    p.add_argument("--seed", type=int, default=_env_default("seed", 0, int))
    p.add_argument("--threads", type=int, default=_env_default("threads", 0, int),
                   help="BLAS threads (0 = hardware default); takes effect through the "
                        "pslr launcher, which exports it before numpy loads")
    p.add_argument("--out", default=_env_default("out", None, str),
                   help="output path (JSON for solve, CSV for sweep/spectrum)")
    p.add_argument("--partition-out", default=_env_default("partition_out", None, str),
                   help="optional JSON dump of the vertex -> subdomain map")


def _manifest_from_args(args) -> RunManifest:
    return RunManifest(
        matrix=args.matrix, problem=args.problem, s=args.s, m=args.m, rank=args.rank,
        droptol=args.droptol, krylov=args.krylov, tol=args.tol, maxit=args.maxit,
        restart=args.restart, seed=args.seed, threads=args.threads, out=args.out,
        partition_out=getattr(args, "partition_out", None),
        axis=getattr(args, "axis", None),
        values=list(getattr(args, "values", []) or []),
        target=getattr(args, "target", None),
    )


def _load_matrix(manifest: RunManifest):
    if (manifest.matrix is None) == (manifest.problem is None):
        raise ValueError("exactly one of --matrix and --problem is required")
    if manifest.matrix is not None:
        return read_matrix_market(manifest.matrix)
    return parse_problem(manifest.problem)[1]


def _config(manifest: RunManifest, **changes) -> PslrConfig:
    settings = dict(num_subdomains=manifest.s, series_degree=manifest.m, rank=manifest.rank,
                    droptol=manifest.droptol, seed=manifest.seed)
    return PslrConfig(**{**settings, **changes})


def _random_rhs(A, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return A @ rng.standard_normal(A.shape[0])


def _solve_with(A, P: PslrPreconditioner, manifest: RunManifest):
    """Run the accelerator on the reordered system; returns (x, report)."""
    b = _random_rhs(A, manifest.seed)
    perm = P.system.perm
    Ap = P.system.matrix
    bp = b[perm.inverse]
    apply_A = lambda v: Ap @ v
    if manifest.krylov == "cg":
        zp, report = cg(apply_A, P.apply, bp, tol=manifest.tol, maxit=manifest.maxit)
    else:
        zp, report = gmres(apply_A, P.apply, bp, tol=manifest.tol,
                           maxit=manifest.maxit, restart=manifest.restart)
    return zp[perm.forward], report


def _stats_payload(P: PslrPreconditioner, report, manifest: RunManifest) -> dict:
    st = P.stats
    return {
        "its": report.iterations,
        "converged": report.converged,
        "fill_ilu": st.fill_ilu,
        "fill_lowrank": st.fill_lowrank,
        "fill_total": st.fill_total,
        "pivot_repairs": st.pivot_repairs,
        "o_t": st.order_time_s,
        "p_t": st.build_time_s,
        "i_t": report.time_s,
        "t_t": st.build_time_s + report.time_s,
        "final_relres": report.final_relres,
        "manifest": manifest.to_dict(),
    }


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(manifest: RunManifest) -> int:
    A = _load_matrix(manifest)
    P = preconditioner.build(A, _config(manifest))
    if manifest.partition_out:
        save_assignment_json(P.system.partition, manifest.partition_out)
    _, report = _solve_with(A, P, manifest)
    _emit(json.dumps(_stats_payload(P, report, manifest), indent=2) + "\n", manifest.out)
    return 0 if report.converged else 2


SWEEP_COLUMNS = ["axis", "value", "its", "converged", "fill_ilu", "fill_lowrank",
                 "fill_total", "final_relres", "p_t", "i_t", "t_t"]


def cmd_sweep(manifest: RunManifest) -> int:
    """Run cmd_solve across one axis (s, m or rank), one CSV row per value.

    An s sweep builds once per value. m and rank sweeps build once (rank 0,
    or the largest rank) and derive every row with `recorrected`, reusing the
    partition and the ILU factors, and on the rank axis the Arnoldi basis.
    """
    A = _load_matrix(manifest)
    axis = manifest.axis
    values = [int(v) for v in manifest.values]
    if axis not in ("s", "m", "rank"):
        raise ValueError("sweep axis must be one of s, m, rank")
    if not values:
        raise ValueError("sweep needs at least one axis value")

    if axis == "s":
        derive = lambda s: preconditioner.build(A, _config(manifest, num_subdomains=s))
    elif axis == "m":
        base = preconditioner.build(A, _config(manifest, rank=0))
        derive = lambda m: base.recorrected(m, manifest.rank)
    else:
        base = preconditioner.build(A, _config(manifest, rank=max(values)))
        derive = lambda rank: base.recorrected(manifest.m, rank)

    lines = [",".join(SWEEP_COLUMNS)]
    for value in values:
        P = derive(value)
        _, report = _solve_with(A, P, manifest)
        st = P.stats
        lines.append(",".join(str(x) for x in [
            axis, value, report.iterations, report.converged,
            f"{st.fill_ilu:.6f}", f"{st.fill_lowrank:.6f}", f"{st.fill_total:.6f}",
            f"{report.final_relres:.6e}",
            f"{st.build_time_s:.6f}", f"{report.time_s:.6f}",
            f"{st.build_time_s + report.time_s:.6f}",
        ]))
    _emit("\n".join(lines) + "\n", manifest.out)
    return 0


def cmd_spectrum(manifest: RunManifest) -> int:
    """Dense-oracle spectrum CSV for one of the derived operators."""
    A = _load_matrix(manifest)
    if A.shape[0] > DENSE_GUARD:
        raise ValueError(
            f"dimension {A.shape[0]} exceeds the dense-oracle guard {DENSE_GUARD}; "
            "use a smaller grid")
    target = manifest.target
    if target not in ("EsC0inv", "Err", "precS"):
        raise ValueError("spectrum target must be one of EsC0inv, Err, precS")
    spec = partition_graph(A, manifest.s)
    system = classify_and_reorder(A, spec)
    oracle = dense_schur(system)
    if target == "EsC0inv":
        M = oracle.Es @ oracle.C0inv
    elif target == "Err":
        M = oracle.err_matrix(manifest.m)
    else:
        V, H, r = arnoldi(lambda v: oracle.err_matrix(manifest.m) @ v,
                          oracle.q, manifest.rank, seed=manifest.seed)
        corr = build_correction(V, H)
        M = oracle.sapp_inv(manifest.m, corr.V, corr.G) @ oracle.S
    report = spectrum(M)
    out = manifest.out
    if out:
        emit_spectrum_csv(report, out)
    else:
        sys.stdout.write("re,im\n")
        for lam in report.eigenvalues:
            sys.stdout.write(f"{lam.real!r},{lam.imag!r}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pslr",
        description="Sparse solves with the power-series + low-rank Schur preconditioner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="build the preconditioner and solve once")
    _add_common_flags(p_solve)

    p_sweep = sub.add_parser("sweep", help="solve across a parameter axis, CSV output")
    _add_common_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("s", "m", "rank"), required=True)
    p_sweep.add_argument("--values", type=lambda t: [int(x) for x in t.split(",")],
                         required=True, help="comma-separated axis values")

    p_spec = sub.add_parser("spectrum", help="dense-oracle spectrum CSV")
    _add_common_flags(p_spec)
    p_spec.add_argument("--target", choices=("EsC0inv", "Err", "precS"), required=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    manifest = _manifest_from_args(args)
    handler = {"solve": cmd_solve, "sweep": cmd_sweep, "spectrum": cmd_spectrum}[args.command]
    try:
        return handler(manifest)
    except (OSError, ValueError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

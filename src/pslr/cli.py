"""Command-line front end: solve, sweep, and spectrum subcommands.

Each subcommand accepts only the flags it reads, and flags are the only way to
set a run: what is not given takes RunManifest's default.  The right-hand side
is A x with a seeded random x, and the solve starts from zero.

Exit codes: 0 converged, 1 input/usage error (a bad flag or value included) or
a build or solve that cannot proceed (a singular correction core, a GMRES
solve stopped by non-finite values, memory exhausted), 2 solver failed to
converge.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
from dataclasses import dataclass, asdict, field, replace

import numpy as np

from . import preconditioner
from ._main import _THREAD_VARS
from .diagnostics import check_dense, spectrum, spectrum_csv
from .krylov import gmres
from .lowrank import apply_correction
from .preconditioner import PslrConfig, PslrPreconditioner
from .problems import parse_problem
from .schur import apply_Err, apply_Es, apply_neumann, apply_S, solve_C0
from .sparse import check_count, check_nonnegative, read_matrix_market
# partition_graph, classify_and_reorder, build_schur_context, arnoldi and build_correction
# are unused here; they stay because perfbench/spans.py wraps them on this module
from .lowrank import arnoldi, build_correction  # noqa: F401
from .partition import classify_and_reorder, partition_graph  # noqa: F401
from .schur import build_schur_context  # noqa: F401


@dataclass
class RunManifest:
    """Full record of one run; serializes round-trip stable."""

    matrix: str | None = None
    problem: str | None = None
    s: int = PslrConfig.num_subdomains
    m: int = PslrConfig.series_degree
    rank: int = PslrConfig.rank
    droptol: float = PslrConfig.droptol
    krylov: str = "gmres"
    tol: float = 1e-8
    maxit: int = 500
    restart: int = 0
    seed: int = PslrConfig.seed
    threads: int = 0
    out: str | None = None
    partition_out: str | None = None
    axis: str | None = None
    values: list = field(default_factory=list)
    target: str | None = None

    def __post_init__(self):
        # before the build, with the checks GMRES makes again for library callers
        check_nonnegative(self.tol, "tol")
        check_count(self.maxit, "maxit")
        check_count(self.restart, "restart")
        for path in (self.out, self.partition_out):   # what the final write would raise
            if path and not os.path.isdir(os.path.dirname(path) or "."):
                raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), path)


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1 with one `error:` line, not 2."""

    def __init__(self, **kwargs):   # full flags only: the launcher reads --threads as spelled
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(1, f"error: {message}\n")

    def flag(self, name, type=str, **kwargs):
        """Add --name with RunManifest's default."""
        default = getattr(RunManifest, name.replace("-", "_"))
        self.add_argument("--" + name, type=type, default=default, **kwargs)


def nonnegative_int(text) -> int:
    """int(text), rejected below 0; argparse names the type in its message."""
    check_count(value := int(text), "value")
    return value


def int_list(text) -> list[int]:
    """Comma-separated ints; argparse names the type in its message."""
    return [int(t) for t in text.split(",")]


def _add_run_flags(p: _Parser):
    """The input, build, --threads and --out flags every subcommand reads."""
    p.flag("matrix", help="Matrix Market file")
    p.flag("problem", help="problem string, e.g. lap3d:20,20,20,0.05")
    p.flag("s", int, help="number of subdomains")
    p.flag("m", int, help="power-series degree (m+1 terms)")
    p.flag("rank", int, help="low-rank correction rank")
    p.flag("droptol", float)
    p.flag("seed", int)
    p.flag("threads", nonnegative_int, help="BLAS threads (0 = hardware default); applied by "
                                            "`pslr` and `python -m pslr`, before numpy loads")
    p.flag("out", help="output path (JSON for solve, CSV for sweep/spectrum)")


def _add_krylov_flags(p: _Parser):
    # GMRES is the one accelerator; the flag stays because perfbench/workloads.py passes it
    p.flag("krylov", choices=("gmres",))
    p.flag("tol", float)
    p.flag("maxit", int)
    p.flag("restart", int, help="GMRES restart length (0 = full)")


def _manifest_from_args(args) -> RunManifest:
    return RunManifest(**{k: v for k, v in vars(args).items() if k != "command"})


def _load_matrix(manifest: RunManifest):
    if (manifest.matrix is None) == (manifest.problem is None):
        raise ValueError("exactly one of --matrix and --problem is required")
    if manifest.matrix is not None:
        return read_matrix_market(manifest.matrix)
    return parse_problem(manifest.problem)[1]


def _config(manifest: RunManifest, **flags) -> PslrConfig:
    """The build settings of `manifest`, with the flags in `flags` (s, m, rank) changed."""
    run = replace(manifest, **flags)
    return PslrConfig(num_subdomains=run.s, series_degree=run.m, rank=run.rank,
                      droptol=run.droptol, seed=run.seed)


def _solve_with(A, P: PslrPreconditioner, manifest: RunManifest):
    """Run GMRES on the reordered system; returns (x, report)."""
    b = A @ np.random.default_rng(manifest.seed).standard_normal(A.shape[0])
    perm = P.system.perm
    Ap = P.system.matrix
    bp = b[perm.inverse]
    zp, report = gmres(lambda v: Ap @ v, P.apply, bp, tol=manifest.tol,
                       maxit=manifest.maxit, restart=manifest.restart)
    return zp[perm.forward], report


def _stats_payload(P: PslrPreconditioner, report, manifest: RunManifest) -> dict:
    st, sec = P.stats, P.stage_s
    p_t = sec.factor + sec.arnoldi + sec.core
    return {
        "its": report.iterations,
        "converged": report.converged,
        "fill_ilu": st.fill_ilu,
        "fill_lowrank": st.fill_lowrank,
        "fill_total": st.fill_total,
        "pivot_repairs": st.pivot_repairs,
        "o_t": sec.order,
        "p_t": p_t,
        "i_t": report.time_s,
        "t_t": p_t + report.time_s,
        "final_relres": report.final_relres,
        "history": report.history,
        "manifest": asdict(manifest),
    }


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(manifest: RunManifest) -> int:
    config = _config(manifest)
    A = _load_matrix(manifest)
    P = preconditioner.build(A, config)
    if manifest.partition_out:
        _emit(json.dumps(P.system.assignment.tolist()), manifest.partition_out)
    _, report = _solve_with(A, P, manifest)
    _emit(json.dumps(_stats_payload(P, report, manifest), indent=2) + "\n", manifest.out)
    return 0 if report.converged else 2


# the `_stats_payload` fields of a sweep row, after its axis and value, with their formats
SWEEP_COLUMNS = {"its": "{}", "converged": "{}", "fill_ilu": "{:.6f}", "fill_lowrank": "{:.6f}",
                 "fill_total": "{:.6f}", "final_relres": "{:.6e}", "p_t": "{:.6f}",
                 "i_t": "{:.6f}", "t_t": "{:.6f}"}


def cmd_sweep(manifest: RunManifest) -> int:
    """Run cmd_solve across one axis (s, m or rank), one CSV row per value.

    Every row's config is made, and so checked, before the matrix is read.
    An s sweep builds each row's config. m and rank sweeps build one, the
    first with the largest rank, and derive every row from it with
    `recorrected`: one partition and one set of ILU factors for all rows, and
    the Arnoldi basis for each row at the built series degree.
    """
    configs = [_config(manifest, **{manifest.axis: value}) for value in manifest.values]
    A = _load_matrix(manifest)
    if manifest.axis == "s":
        derive = lambda config: preconditioner.build(A, config)
    else:
        base = preconditioner.build(A, max(configs, key=lambda config: config.rank))
        derive = lambda config: base.recorrected(config.series_degree, config.rank)

    lines = [",".join(["axis", "value", *SWEEP_COLUMNS])]
    for value, config in zip(manifest.values, configs):
        P = derive(config)
        _, report = _solve_with(A, P, manifest)
        row = _stats_payload(P, report, manifest)
        lines.append(",".join([manifest.axis, str(value)] + [
            fmt.format(row[key]) for key, fmt in SWEEP_COLUMNS.items()]))
    _emit("\n".join(lines) + "\n", manifest.out)
    return 0


# the operator each `spectrum --target` forms, applied to a block of interface vectors
SPECTRUM_TARGETS = {
    "EsC0inv": lambda P, X: apply_Es(P.ctx, solve_C0(P.ctx, X)),
    "Err": lambda P, X: apply_Err(P.ctx, P.config.series_degree, X),
    "precS": lambda P, X: apply_neumann(P.ctx, P.config.series_degree,
                                        apply_correction(P.correction, apply_S(P.ctx, X))),
}


def cmd_spectrum(manifest: RunManifest) -> int:
    """Eigenvalues of one operator of the built preconditioner, as re,im CSV.

    The operator is the one a solve applies, with the ILUT factors at --droptol
    (exact at --droptol 0).  It is formed densely, so n is capped at DENSE_GUARD.
    """
    # only precS applies the correction: the other targets build none
    config = _config(manifest, rank=manifest.rank if manifest.target == "precS" else 0)
    A = _load_matrix(manifest)
    check_dense(A.shape[0])   # before the build, so an oversized A costs no build
    P = preconditioner.build(A, config)
    M = SPECTRUM_TARGETS[manifest.target](P, np.eye(P.system.q))
    _emit(spectrum_csv(spectrum(M)), manifest.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pslr",
        description="Sparse solves with the power-series + low-rank Schur preconditioner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="build the preconditioner and solve once")
    _add_run_flags(p_solve)
    _add_krylov_flags(p_solve)
    p_solve.flag("partition-out", help="optional JSON dump of the vertex -> subdomain map")

    p_sweep = sub.add_parser("sweep", help="solve across a parameter axis, CSV output")
    _add_run_flags(p_sweep)
    _add_krylov_flags(p_sweep)
    p_sweep.add_argument("--axis", choices=("s", "m", "rank"), required=True)
    p_sweep.add_argument("--values", type=int_list, required=True,
                         help="comma-separated axis values")

    p_spec = sub.add_parser("spectrum", help="eigenvalues of an operator of the built "
                                             "preconditioner at --droptol, CSV output")
    _add_run_flags(p_spec)
    p_spec.add_argument("--target", choices=SPECTRUM_TARGETS, required=True)
    return parser


def _warn_unapplied_threads(threads: int):
    """Say so when a --threads request cannot reach the BLAS pool.

    Only the launcher (`pslr`, `python -m pslr`) exports the thread-count
    variables before numpy loads; called any other way, the request is
    recorded in the manifest but the pool keeps its size.
    """
    if threads > 0 and any(os.environ.get(v) != str(threads) for v in _THREAD_VARS):
        print(f"warning: --threads {threads} is recorded but not applied; only `pslr` "
              "and `python -m pslr` size the BLAS pool before numpy loads", file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _warn_unapplied_threads(args.threads)
    handler = {"solve": cmd_solve, "sweep": cmd_sweep, "spectrum": cmd_spectrum}[args.command]
    try:   # numpy stays silent: what it would warn of, an explicit check reports in one line
        with np.errstate(all="ignore"):
            return handler(_manifest_from_args(args))
    except (OSError, MemoryError, ValueError, ArithmeticError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

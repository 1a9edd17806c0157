"""Assembly and application of the full preconditioner.

Construction: partition and reorder, ILUT every B_i and C_i diagonal block,
run Arnoldi on the series residual operator, form the correction core.
`build` does the first two; `recorrected` does the last two, for the build's
series degree and rank or for any other, on the same partition and factors.
Application (all in reordered space, split b into interior f / interface g):

    y <- g - F B^{-1} f
    y <- y + V (G (V^T y))                      low-rank correction
    y <- sum_{i=0}^{m} (C0^{-1} Es)^i C0^{-1} y  truncated power series
    x <- B^{-1} (f - E y)

The correction is applied before the series, matching the factorization
S_app^{-1} = [series] (I + V G V^T).
"""

from __future__ import annotations

import time
from collections import namedtuple
from dataclasses import dataclass, replace

import numpy as np

from .ilu import check_droptol
from .lowrank import LowRankCorrection, apply_correction, arnoldi, build_correction
from .partition import PartitionedSystem, classify_and_reorder, partition_graph
from .schur import SchurContext, apply_Err, apply_neumann, build_schur_context, solve_B
from .sparse import as_rows, canonical, check_count


@dataclass(frozen=True)
class PslrConfig:
    num_subdomains: int = 8          # s
    series_degree: int = 3           # m; the series has m+1 terms
    rank: int = 15                   # requested low-rank correction rank
    droptol: float = 1e-2
    seed: int = 0

    def __post_init__(self):
        for name, least in (("num_subdomains", 1), ("series_degree", 0), ("rank", 0), ("seed", 0)):
            check_count(getattr(self, name), name, least)
        check_droptol(self.droptol)


@dataclass
class FillStats:
    """Memory accounting: fill factors are nnz(component) / nnz(A)."""

    nnz_ilu: int
    nnz_lowrank: int
    nnz_matrix: int
    pivot_repairs: int

    @property
    def fill_ilu(self) -> float:
        return self.nnz_ilu / self.nnz_matrix

    @property
    def fill_lowrank(self) -> float:
        return self.nnz_lowrank / self.nnz_matrix

    @property
    def fill_total(self) -> float:
        return (self.nnz_ilu + self.nnz_lowrank) / self.nnz_matrix


# wall seconds of each build stage; a derived preconditioner counts those it reuses again
StageSeconds = namedtuple("StageSeconds", "order factor arnoldi core", defaults=(0.0, 0.0))


class PslrPreconditioner:
    """Everything the application algorithm needs, immutable once built.

    `config` holds the settings `build` or `recorrected` made it from.
    """

    def __init__(self, ctx: SchurContext, config: PslrConfig, correction: LowRankCorrection,
                 stage_s: StageSeconds):
        self.ctx = ctx
        self.config = config
        self.correction = correction
        self.stage_s = stage_s
        self.stats = FillStats(
            nnz_ilu=ctx.b_ilu.nnz + ctx.c0_ilu.nnz,
            nnz_lowrank=correction.nnz,
            nnz_matrix=ctx.system.matrix.nnz,   # the entries of canonical(A), reordered
            pivot_repairs=ctx.b_ilu.pivot_repairs + ctx.c0_ilu.pivot_repairs,
        )

    @property
    def system(self) -> PartitionedSystem:
        return self.ctx.system

    def recorrected(self, series_degree: int, rank: int) -> "PslrPreconditioner":
        """What `build` gives with a new series degree and rank, derived from
        this partition, these ILU factors and this seed.

        At an unchanged series degree, a rank up to this one's reuses the
        leading columns of its Arnoldi basis, as does any rank once that
        Arnoldi stopped short (breakdown, or the interface dimension), since
        a rerun would stop at the same step. Anything else runs Arnoldi afresh.
        """
        old, base = self.correction, self.config
        cfg = replace(base, series_degree=series_degree, rank=rank)
        stage_s = self.stage_s
        if series_degree == base.series_degree and (rank <= base.rank or old.rank < base.rank):
            k = min(rank, old.rank)
            V, H = old.V[:, :k], old.H[:k, :k]
        else:
            t0 = time.perf_counter()
            V, H, _ = arnoldi(lambda v: apply_Err(self.ctx, series_degree, v),
                              self.system.q, rank, seed=cfg.seed)
            stage_s = stage_s._replace(arnoldi=time.perf_counter() - t0)
        t0 = time.perf_counter()
        correction = build_correction(V, H)
        return PslrPreconditioner(self.ctx, cfg, correction,
                                  stage_s._replace(core=time.perf_counter() - t0))

    def apply(self, b) -> np.ndarray:
        """z = PSLR(b) in reordered space."""
        b = as_rows(b, self.system.n)
        p = self.system.p
        f, g = b[:p], b[p:]
        if self.system.q == 0:   # saves the B solve that F, with no rows, would discard
            return solve_B(self.ctx, f)
        y = g - self.system.F @ solve_B(self.ctx, f)
        y = apply_correction(self.correction, y)
        y = apply_neumann(self.ctx, self.config.series_degree, y)
        x = solve_B(self.ctx, f - self.system.E @ y)
        return np.concatenate([x, y])

    def apply_original(self, b) -> np.ndarray:
        """Apply in original (unreordered) index space."""
        perm = self.system.perm
        z = self.apply(as_rows(b, self.system.n)[perm.inverse])
        return z[perm.forward]


def build(A, cfg: PslrConfig) -> PslrPreconditioner:
    """Construct the preconditioner for a square sparse matrix of finite values:
    order and factor A, then correct the series-only one with `recorrected`."""
    A = canonical(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.nnz == 0:
        raise ValueError("matrix has no stored entries")
    nonfinite = int(np.count_nonzero(~np.isfinite(A.data)))
    if nonfinite:
        raise ValueError(f"matrix has {nonfinite} non-finite entries (nan or inf)")

    t0 = time.perf_counter()
    system = classify_and_reorder(A, partition_graph(A, cfg.num_subdomains))
    t1 = time.perf_counter()
    ctx = build_schur_context(system, droptol=cfg.droptol)
    stage_s = StageSeconds(t1 - t0, time.perf_counter() - t1)
    uncorrected = build_correction(np.zeros((system.q, 0)), np.zeros((0, 0)))
    series_only = PslrPreconditioner(ctx, replace(cfg, rank=0), uncorrected, stage_s)
    return series_only.recorrected(cfg.series_degree, cfg.rank)

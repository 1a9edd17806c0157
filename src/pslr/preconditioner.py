"""Assembly and application of the full preconditioner.

Construction: partition and reorder, ILUT every B_i and C_i diagonal block,
run Arnoldi on the series residual operator, form the correction core.
`recorrected` redoes only the last two steps for another series degree or
rank, on the same partition and factors.
Application (all in reordered space, split b into interior f / interface g):

    y <- g - F B^{-1} f
    y <- y + V (G (V^T y))                      low-rank correction
    y <- sum_{i=0}^{m} (C0^{-1} Es)^i C0^{-1} y  truncated power series
    x <- B^{-1} (f - E y)

The correction is applied before the series, matching the factorization
S_app^{-1} = [series] (I + V G V^T).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, asdict, replace

import numpy as np

from .lowrank import LowRankCorrection, apply_correction, arnoldi, build_correction
from .partition import PartitionedSystem, classify_and_reorder, partition_graph
from .schur import SchurContext, apply_Err, apply_neumann, build_schur_context, solve_B
from .sparse import canonical


@dataclass(frozen=True)
class PslrConfig:
    num_subdomains: int = 8          # s
    series_degree: int = 3           # m; the series has m+1 terms
    rank: int = 15                   # requested low-rank correction rank
    droptol: float = 1e-2
    seed: int = 0

    def validate(self):
        if self.num_subdomains < 1:
            raise ValueError("num_subdomains must be >= 1")
        if self.series_degree < 0:
            raise ValueError("series_degree must be >= 0")
        if self.rank < 0:
            raise ValueError("rank must be >= 0")
        if self.droptol < 0:
            raise ValueError("droptol must be >= 0")


@dataclass
class FillStats:
    """Memory accounting: fill factors are nnz(component) / nnz(A)."""

    nnz_ilu: int = 0
    nnz_lowrank: int = 0
    nnz_matrix: int = 0
    fill_ilu: float = 0.0
    fill_lowrank: float = 0.0
    fill_total: float = 0.0
    pivot_repairs: int = 0
    order_time_s: float = 0.0
    build_time_s: float = 0.0

    def to_json(self) -> str:
        return json.dumps(asdict(self))


class PslrPreconditioner:
    """Everything the application algorithm needs, immutable once built.

    `config` holds the settings `build` or `recorrected` made it from, and is
    None for a preconditioner assembled by hand.
    """

    def __init__(self, system: PartitionedSystem, ctx: SchurContext,
                 series_degree: int, correction: LowRankCorrection, stats: FillStats,
                 config: PslrConfig | None = None, stage_s: tuple = (0.0, 0.0)):
        self.system = system
        self.ctx = ctx
        self.series_degree = series_degree
        self.correction = correction
        self.stats = stats
        self.config = config
        self._stage_s = stage_s   # (ILU, Arnoldi) seconds, counted again by derived ones

    def recorrected(self, series_degree: int, rank: int) -> "PslrPreconditioner":
        """What `build` gives with a new series degree and rank, derived from
        this partition, these ILU factors and this seed.

        At an unchanged series degree, a rank up to this one's reuses the
        leading columns of its Arnoldi basis, and so does any rank once that
        Arnoldi stopped short of its request (breakdown, or the interface
        dimension), because a rerun would stop at the same step. Anything
        else runs Arnoldi afresh.
        """
        if self.config is None:
            raise ValueError("only a preconditioner made by build() can be recorrected")
        old, base = self.correction, self.config
        cfg = replace(base, series_degree=series_degree, rank=rank)
        cfg.validate()
        factor_s, arnoldi_s = self._stage_s
        if series_degree == base.series_degree and (rank <= base.rank or old.rank < base.rank):
            k = min(rank, old.rank)
            V, H = old.V[:, :k], old.H[:k, :k]
        else:
            t0 = time.perf_counter()
            V, H, _ = arnoldi(lambda v: apply_Err(self.ctx, series_degree, v),
                              self.system.q, rank, seed=cfg.seed)
            arnoldi_s = time.perf_counter() - t0
        return _assemble(self.system, self.ctx, cfg, V, H,
                         self.stats.order_time_s, factor_s, arnoldi_s)

    def apply(self, b) -> np.ndarray:
        """z = PSLR(b) in reordered space."""
        b = np.asarray(b, dtype=np.float64)
        n = self.system.n
        if b.shape[0] != n:
            raise ValueError(f"vector has length {b.shape[0]}, system is {n}-dimensional")
        p = self.system.p
        f, g = b[:p], b[p:]
        if self.system.q == 0:
            return solve_B(self.ctx, f)
        y = g - self.system.F @ solve_B(self.ctx, f)
        y = apply_correction(self.correction, y)
        y = apply_neumann(self.ctx, self.series_degree, y)
        x = solve_B(self.ctx, f - self.system.E @ y)
        return np.concatenate([x, y])

    def apply_original(self, b) -> np.ndarray:
        """Apply in original (unreordered) index space."""
        perm = self.system.perm
        z = self.apply(np.asarray(b, dtype=np.float64)[perm.inverse])
        return z[perm.forward]


def _fill_stats(A, ctx: SchurContext, correction: LowRankCorrection,
                order_time: float, build_time: float) -> FillStats:
    nnz_ilu = ctx.b_ilu.nnz + ctx.c0_ilu.nnz
    nnz_lrc = correction.nnz
    nnz_a = A.nnz
    return FillStats(
        nnz_ilu=nnz_ilu,
        nnz_lowrank=nnz_lrc,
        nnz_matrix=nnz_a,
        fill_ilu=nnz_ilu / nnz_a,
        fill_lowrank=nnz_lrc / nnz_a,
        fill_total=(nnz_ilu + nnz_lrc) / nnz_a,
        pivot_repairs=ctx.b_ilu.pivot_repairs + ctx.c0_ilu.pivot_repairs,
        order_time_s=order_time,
        build_time_s=build_time,
    )


def build(A, cfg: PslrConfig) -> PslrPreconditioner:
    """Construct the preconditioner for a square sparse matrix."""
    cfg.validate()
    A = canonical(A)
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")

    t0 = time.perf_counter()
    spec = partition_graph(A, cfg.num_subdomains)
    system = classify_and_reorder(A, spec)
    t1 = time.perf_counter()
    ctx = build_schur_context(system, droptol=cfg.droptol)
    t2 = time.perf_counter()
    V, H, _ = arnoldi(lambda v: apply_Err(ctx, cfg.series_degree, v),
                      system.q, cfg.rank, seed=cfg.seed)
    t3 = time.perf_counter()
    return _assemble(system, ctx, cfg, V, H, t1 - t0, t2 - t1, t3 - t2)


def _assemble(system, ctx, cfg, V, H, order_s, factor_s, arnoldi_s) -> PslrPreconditioner:
    """Correction core from an Arnoldi basis, then the fill and time accounting."""
    t0 = time.perf_counter()
    correction = build_correction(V, H)
    build_s = factor_s + arnoldi_s + time.perf_counter() - t0
    # the reordered matrix has exactly the entries of canonical(A)
    stats = _fill_stats(system.matrix, ctx, correction, order_s, build_s)
    return PslrPreconditioner(system, ctx, cfg.series_degree, correction, stats,
                              config=cfg, stage_s=(factor_s, arnoldi_s))

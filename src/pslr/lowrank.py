"""Arnoldi factorization of the series residual operator and the
Sherman-Morrison-Woodbury correction core.

An r-step Arnoldi run on the residual operator yields V (orthonormal) and H
(upper Hessenberg) with  op V = V H + h v e^T.  The correction applies
(I - V H V^T)^{-1} = I + V G V^T  with  G = (I - H)^{-1} - I.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .krylov import arnoldi_steps
from .sparse import as_rows, check_count, check_square


SINGULAR_PIVOT_RTOL = 1e-14


class CorrectionSingularError(ArithmeticError):
    """I - H is numerically singular: the residual operator has an eigenvalue ~ 1."""


@dataclass
class LowRankCorrection:
    V: np.ndarray       # q x r, orthonormal columns
    H: np.ndarray       # r x r, upper Hessenberg
    G: np.ndarray       # r x r, (I - H)^{-1} - I

    @property
    def rank(self) -> int:
        """The achieved rank r (<= requested)."""
        return self.V.shape[1]

    @property
    def nnz(self) -> int:
        # dense V and G entries both count toward storage
        return self.V.size + self.G.size


def arnoldi(op, dim: int, rank: int, seed: int = 0):
    """Arnoldi with classical Gram-Schmidt and one reorthogonalization pass.

    `op` maps length-`dim` vectors to length-`dim` vectors.  The start
    vector is a normalized seeded pseudo-random vector.  Returns (V, H, r)
    where r < rank signals happy breakdown: what is left of op(v_j) after
    orthogonalization is at most BREAKDOWN_RTOL times the largest ||op(v_i)||
    so far, so a scaled operator stops at the same step (see
    `krylov.arnoldi_steps`, which runs the process).  An operator that
    gives non-finite values raises `ArithmeticError`.
    """
    for value, name in ((dim, "dim"), (rank, "rank"), (seed, "seed")):
        check_count(value, name)
    rank = min(rank, dim)
    if rank == 0:   # arnoldi_steps yields nothing at 0 steps
        return np.zeros((dim, 0)), np.zeros((0, 0)), 0

    v0 = np.random.default_rng(seed).standard_normal(dim)
    Hbar = np.zeros((rank + 1, rank))
    for V, j, h, hnext, _ in arnoldi_steps(op, v0, rank):
        Hbar[:j + 1, j] = h
        Hbar[j + 1, j] = hnext
    r = j + 1
    return V[:, :r].copy(), Hbar[:r, :r].copy(), r


def build_correction(V, H) -> LowRankCorrection:
    """G = (I - H)^{-1} - I via dense LU with partial pivoting.

    Raises `ArithmeticError` when H is not finite, which the singular-pivot
    test alone would let through: it is False for a NaN pivot.
    """
    check_square(H, "H")
    V = np.asarray(V, dtype=np.float64)
    H = np.asarray(H, dtype=np.float64)
    r = H.shape[0]
    if V.shape[1:] != (r,):
        raise ValueError(f"V must have the {r} columns of H, got shape {V.shape}")
    if not np.all(np.isfinite(H)):
        raise ArithmeticError("correction not finite: the Arnoldi Hessenberg matrix has "
                              "non-finite entries")
    M = np.eye(r) - H
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    # <= so an exactly zero pivot is caught even when M itself is zero
    if np.min(np.abs(np.diag(lu)), initial=np.inf) <= SINGULAR_PIVOT_RTOL * np.linalg.norm(M):
        raise CorrectionSingularError(
            "correction singular: series residual operator has an eigenvalue ~ 1"
        )
    G = scipy.linalg.lu_solve((lu, piv), np.eye(r), check_finite=False) - np.eye(r)
    return LowRankCorrection(V=V, H=H, G=G)


def apply_correction(lr: LowRankCorrection, y) -> np.ndarray:
    """y + V (G (V^T y)); identity when the correction is empty."""
    y = as_rows(y, lr.V.shape[0])
    if lr.rank == 0:   # a copy, as y + 0 would turn -0.0 into +0.0
        return y.copy()
    return y + lr.V @ (lr.G @ (lr.V.T @ y))

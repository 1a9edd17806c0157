"""Threshold incomplete LU (ILUT) of small diagonal blocks and block solves.

The factorization is row-wise IKJ elimination.  A candidate off-diagonal
entry is dropped when its magnitude falls below droptol times the 2-norm of
the original row; the diagonal is never dropped.  A zero or absent pivot is
repaired (never fatal) so the factorization survives indefinite blocks.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve_triangular

from .sparse import canonical


@dataclass
class IluFactor:
    """L unit-lower (diagonal stored explicitly) and U upper triangular."""

    L: sp.csr_matrix
    U: sp.csr_matrix
    n: int
    pivot_repairs: int = 0

    @property
    def nnz(self) -> int:
        return self.L.nnz + self.U.nnz


def ilut(block, droptol: float = 1e-2) -> IluFactor:
    """Incomplete LU of a square block with threshold dropping.

    With droptol=0 and no pivot repairs this is the exact (no-pivoting) LU.
    """
    A = canonical(block)
    if A.shape[0] != A.shape[1]:
        raise ValueError("block must be square")
    n = A.shape[0]
    if droptol < 0:
        raise ValueError("droptol must be >= 0")
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return IluFactor(L=empty, U=empty.copy(), n=0, pivot_repairs=0)

    row_norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())
    eps = np.finfo(np.float64).eps

    # U rows kept as growing arrays for the elimination updates
    u_cols: list[np.ndarray] = [None] * n
    u_vals: list[np.ndarray] = [None] * n
    u_diag = np.empty(n)
    l_rows_i: list[int] = []
    l_rows_j: list[int] = []
    l_rows_v: list[float] = []

    w = np.zeros(n)
    touched_flag = np.zeros(n, dtype=bool)
    pivot_repairs = 0

    for i in range(n):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]]
        w[cols] = vals
        touched_flag[cols] = True
        touched = list(cols)
        tau = droptol * row_norms[i]

        heap = [int(c) for c in cols if c < i]
        heapq.heapify(heap)
        l_keep = []
        while heap:
            k = heapq.heappop(heap)
            factor = w[k] / u_diag[k]
            w[k] = 0.0
            if abs(factor) < tau:
                continue
            l_keep.append((k, factor))
            uc = u_cols[k]
            uv = u_vals[k]
            if uc.size:
                fresh = uc[~touched_flag[uc]]
                if fresh.size:
                    touched_flag[fresh] = True
                    touched.extend(int(c) for c in fresh)
                    for c in fresh:
                        if c < i:
                            heapq.heappush(heap, int(c))
                w[uc] -= factor * uv
        # diagonal pivot; repair if zero or absent
        diag = w[i]
        if diag == 0.0:
            base = row_norms[i] if row_norms[i] > 0 else 1.0
            repl = droptol * base
            if repl == 0.0:
                repl = eps * base
            diag = repl  # original pivot was zero/absent: sign taken as +
            pivot_repairs += 1
        upper = [(j, w[j]) for j in touched if j > i and abs(w[j]) >= tau and w[j] != 0.0]

        l_keep.sort()
        upper.sort()
        for j, v in l_keep:
            l_rows_i.append(i)
            l_rows_j.append(j)
            l_rows_v.append(v)
        u_cols[i] = np.array([i] + [j for j, _ in upper], dtype=np.int64)
        u_vals[i] = np.array([diag] + [v for _, v in upper])
        u_diag[i] = diag

        for j in touched:
            w[j] = 0.0
            touched_flag[j] = False

    # assemble CSR factors
    l_rows_i.extend(range(n))
    l_rows_j.extend(range(n))
    l_rows_v.extend([1.0] * n)
    L = sp.csr_matrix((l_rows_v, (l_rows_i, l_rows_j)), shape=(n, n))
    u_i = np.repeat(np.arange(n), [c.size for c in u_cols])
    u_j = np.concatenate(u_cols)
    u_v = np.concatenate(u_vals)
    U = sp.csr_matrix((u_v, (u_i, u_j)), shape=(n, n))
    L.sort_indices()
    U.sort_indices()
    return IluFactor(L=L, U=U, n=n, pivot_repairs=pivot_repairs)


@dataclass
class BlockILU:
    """Independent ILUT factors of the diagonal blocks of a block matrix.

    `L` and `U` are the assembled block-diagonal factors, so one pair of
    triangular solves applies every per-block solve at once; `nnz` and
    `pivot_repairs` are summed over the blocks.
    """

    L: sp.csr_matrix
    U: sp.csr_matrix
    n: int
    nnz: int
    pivot_repairs: int


def factor_blocks(A, block_sizes, droptol: float = 1e-2) -> BlockILU:
    """ILUT each diagonal block of A, with blocks given by `block_sizes`."""
    A = canonical(A)
    sizes = np.asarray(block_sizes, dtype=np.int64)
    if sizes.sum() != A.shape[0] or A.shape[0] != A.shape[1]:
        raise ValueError("block sizes do not tile the matrix")
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    factors = []
    for b in range(sizes.size):
        lo, hi = offsets[b], offsets[b + 1]
        factors.append(ilut(A[lo:hi, lo:hi], droptol=droptol))
    if factors:
        L = sp.block_diag([f.L for f in factors], format="csr")
        U = sp.block_diag([f.U for f in factors], format="csr")
    else:
        L = sp.csr_matrix((0, 0))
        U = sp.csr_matrix((0, 0))
    return BlockILU(L=L, U=U, n=A.shape[0], nnz=sum(f.nnz for f in factors),
                    pivot_repairs=sum(f.pivot_repairs for f in factors))


def block_solve(filu: BlockILU, rhs) -> np.ndarray:
    """Solve L U y = rhs, block by block (one assembled triangular pair)."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != filu.n:
        raise ValueError(f"rhs has length {rhs.shape[0]}, factors are {filu.n}-dimensional")
    if filu.n == 0:
        return rhs.copy()
    y = spsolve_triangular(filu.L, rhs, lower=True, unit_diagonal=True)
    return spsolve_triangular(filu.U, y, lower=False)

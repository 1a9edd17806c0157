"""Threshold incomplete LU (ILUT) of small diagonal blocks and block solves.

The factorization is row-wise IKJ elimination.  A candidate off-diagonal
entry is dropped when its magnitude falls below droptol times the 2-norm of
the original row; the diagonal is never dropped.  A zero or absent pivot is
repaired (never fatal) so the factorization survives indefinite blocks.

The row loop runs on plain Python objects, with no numpy call per pivot.
The working row is a dict from column to value; pivots are eliminated in
increasing column order through a heap.  Each finished U row is kept as a
pair of lists (the columns after the diagonal and their values) for the
updates of later rows, and L and U are appended row by row to CSR
`indptr`/`indices`/`data` lists.

The assembled block factors are prepared for solving once, when they are
built: each triangular factor is handed to SuperLU in natural order with no
pivoting and no relaxed supernodes, which stores it unchanged.  The two
SuperLU objects are then the only stored copy of a block factor; `L` and `U`
are converted back to CSR when they are read.  A block solve is two compiled
triangular sweeps with no per-call conversion.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

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

    row_norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel()).tolist()
    eps = float(np.finfo(np.float64).eps)
    a_ptr, a_idx, a_val = A.indptr.tolist(), A.indices.tolist(), A.data.tolist()

    # finished U rows: diagonal, then the columns after it and their values
    u_diag: list[float] = []
    u_cols: list[list[int]] = []
    u_vals: list[list[float]] = []
    l_ptr, l_idx, l_val = [0], [], []
    u_ptr, u_idx, u_val = [0], [], []
    pivot_repairs = 0

    for i in range(n):
        cols = a_idx[a_ptr[i]:a_ptr[i + 1]]
        w = dict(zip(cols, a_val[a_ptr[i]:a_ptr[i + 1]]))
        tau = droptol * row_norms[i]

        heap = [c for c in cols if c < i]   # ascending, so already a heap
        while heap:
            k = heappop(heap)
            factor = w[k] / u_diag[k]
            if abs(factor) < tau:
                continue
            l_idx.append(k)
            l_val.append(factor)
            for c, v in zip(u_cols[k], u_vals[k]):
                if c in w:
                    w[c] = w[c] - factor * v
                else:   # 0.0 - x, not -x: a zero product gives +0.0 fill
                    w[c] = 0.0 - factor * v
                    if c < i:
                        heappush(heap, c)
        # diagonal pivot; repair if zero or absent
        diag = w.get(i, 0.0)
        if diag == 0.0:
            base = row_norms[i] if row_norms[i] > 0 else 1.0
            repl = droptol * base
            if repl == 0.0:
                repl = eps * base
            diag = repl  # original pivot was zero/absent: sign taken as +
            pivot_repairs += 1
        upper = [j for j, v in w.items() if j > i and abs(v) >= tau and v != 0.0]
        upper.sort()
        vals = [w[j] for j in upper]

        l_idx.append(i)
        l_val.append(1.0)
        l_ptr.append(len(l_idx))
        u_idx.append(i)
        u_idx.extend(upper)
        u_val.append(diag)
        u_val.extend(vals)
        u_ptr.append(len(u_idx))
        u_diag.append(diag)
        u_cols.append(upper)
        u_vals.append(vals)

    L = sp.csr_matrix((l_val, l_idx, l_ptr), shape=(n, n))
    U = sp.csr_matrix((u_val, u_idx, u_ptr), shape=(n, n))
    return IluFactor(L=L, U=U, n=n, pivot_repairs=pivot_repairs)


@dataclass
class BlockILU:
    """Independent ILUT factors of the diagonal blocks of a block matrix.

    The factors are held once, assembled block-diagonally so that one pair
    of triangular solves applies every per-block solve at once: `lower`
    holds the unit-lower `L` and `upper` the upper `U`, prepared for solving
    (both None when `n == 0`).  The read-only `L` and `U` convert them back
    to CSR on each read; SuperLU does not store the exact zeros ILUT may
    keep, so those are absent from them.  `nnz` and `pivot_repairs` are
    ILUT's counts, summed over the blocks.
    """

    n: int
    nnz: int
    pivot_repairs: int
    lower: SuperLU | None
    upper: SuperLU | None

    @property
    def L(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.lower.L if self.n else (0, 0))

    @property
    def U(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.upper.U if self.n else (0, 0))


def _prepare(T: sp.csr_matrix) -> SuperLU:
    """SuperLU object for a triangular factor with a nonzero diagonal.

    Natural ordering and a zero pivot threshold keep every diagonal pivot,
    so SuperLU's factors are `T` itself and an identity, and solving with
    the object is a triangular sweep with `T`.  `relax=1` turns off relaxed
    supernodes: they amalgamate small subtrees into dense blocks to speed up
    a factorization, but `T` is already factored, so they would only make
    every sweep run dense kernels over the zeros they add.
    """
    return splu(T.tocsc(), permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1)


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
    n = A.shape[0]
    lower = upper = None
    if n:
        lower = _prepare(sp.block_diag([f.L for f in factors], format="csr"))
        upper = _prepare(sp.block_diag([f.U for f in factors], format="csr"))
    return BlockILU(n=n, nnz=sum(f.nnz for f in factors),
                    pivot_repairs=sum(f.pivot_repairs for f in factors),
                    lower=lower, upper=upper)


def block_solve(filu: BlockILU, rhs) -> np.ndarray:
    """Solve L U y = rhs, block by block (one assembled triangular pair).

    The factors were prepared when `filu` was built, so this is two compiled
    triangular sweeps, L then U.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != filu.n:
        raise ValueError(f"rhs has length {rhs.shape[0]}, factors are {filu.n}-dimensional")
    if filu.n == 0:
        return rhs.copy()
    return filu.upper.solve(filu.lower.solve(rhs))

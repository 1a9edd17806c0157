"""Threshold incomplete LU (ILUT) of small diagonal blocks and block solves.

The factorization is row-wise IKJ elimination.  A candidate off-diagonal
entry is dropped when its magnitude falls below droptol times the 2-norm of
the original row; the diagonal is never dropped.  A zero or absent pivot is
repaired (never fatal) so the factorization survives indefinite blocks.

The row loop runs on plain Python objects, with no numpy call per pivot.
The working row is a pair of lists indexed by column, made once per call:
`val` holds the values and `mark` the last row that wrote each column, so a
column counts as present in row i only while its mark is i and no entry has
to be cleared between rows.  Pivots are eliminated in increasing column
order through a heap; the columns after the diagonal are collected as they
are written, so the U filter visits only those.  Each finished U row is
kept as a list of (column, value) pairs after the diagonal for the updates
of later rows, and L and U are appended row by row to CSR
`indptr`/`indices`/`data` lists.

The assembled block factors are prepared for solving once, when they are
built: each triangular factor is handed to SuperLU in natural order with no
pivoting and no relaxed supernodes, which stores it unchanged as its upper
factor.  The unit-lower `L` is handed over transposed and swept with
`trans="T"`: SuperLU's transposed sweep over an upper factor costs less per
column than its plain sweep over a lower one.  The two SuperLU objects are
then the only stored copy of a block factor; `L` and `U` are converted back
to CSR when they are read.  A block solve is two compiled triangular sweeps
with no per-call conversion.
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

    # finished U rows: diagonal, then (column, value) pairs after it
    u_diag: list[float] = []
    u_rows: list[list[tuple[int, float]]] = []
    l_ptr, l_idx, l_val = [0], [], []
    u_ptr, u_idx, u_val = [0], [], []
    pivot_repairs = 0
    # working row: val[c] holds column c's value while mark[c] == i
    val = [0.0] * n
    mark = [-1] * n

    for i in range(n):
        lo, hi = a_ptr[i], a_ptr[i + 1]
        heap = []    # columns before the diagonal, ascending, so already a heap
        right = []   # columns after it
        for c, v in zip(a_idx[lo:hi], a_val[lo:hi]):
            val[c] = v
            mark[c] = i
            if c < i:
                heap.append(c)
            elif c > i:
                right.append(c)
        tau = droptol * row_norms[i]

        while heap:
            k = heappop(heap)
            factor = val[k] / u_diag[k]
            if abs(factor) < tau:
                continue
            l_idx.append(k)
            l_val.append(factor)
            for c, v in u_rows[k]:
                if mark[c] == i:
                    val[c] = val[c] - factor * v
                else:   # 0.0 - x, not -x: a zero product gives +0.0 fill
                    mark[c] = i
                    val[c] = 0.0 - factor * v
                    if c < i:
                        heappush(heap, c)
                    elif c > i:
                        right.append(c)
        # diagonal pivot; repair if zero or absent
        diag = val[i] if mark[i] == i else 0.0
        if diag == 0.0:
            base = row_norms[i] if row_norms[i] > 0 else 1.0
            repl = droptol * base
            if repl == 0.0:
                repl = eps * base
            diag = repl  # original pivot was zero/absent: sign taken as +
            pivot_repairs += 1
        right.sort()
        row = [(j, v) for j in right if abs(v := val[j]) >= tau and v != 0.0]

        l_idx.append(i)
        l_val.append(1.0)
        l_ptr.append(len(l_idx))
        u_idx.append(i)
        u_val.append(diag)
        for j, v in row:
            u_idx.append(j)
            u_val.append(v)
        u_ptr.append(len(u_idx))
        u_diag.append(diag)
        u_rows.append(row)

    L = sp.csr_matrix((l_val, l_idx, l_ptr), shape=(n, n))
    U = sp.csr_matrix((u_val, u_idx, u_ptr), shape=(n, n))
    return IluFactor(L=L, U=U, n=n, pivot_repairs=pivot_repairs)


@dataclass
class BlockILU:
    """Independent ILUT factors of the diagonal blocks of a block matrix.

    The factors are held once, assembled block-diagonally so that one pair
    of triangular solves applies every per-block solve at once: `upper`
    holds `U` and `lower` holds the unit-lower `L` transposed, each as the
    upper factor of a SuperLU object beside an identity lower one (both
    None when `n == 0`).  `lower` is solved with `trans="T"`, SuperLU's
    cheaper sweep.  The read-only `L` and `U` convert them back to CSR on
    each read; SuperLU does not store the exact zeros ILUT may keep, so
    those are absent from them.  `nnz` and `pivot_repairs` are ILUT's
    counts, summed over the blocks.
    """

    n: int
    nnz: int
    pivot_repairs: int
    lower: SuperLU | None
    upper: SuperLU | None

    @property
    def L(self) -> sp.csr_matrix:
        return canonical(self.lower.U.T if self.n else (0, 0))

    @property
    def U(self) -> sp.csr_matrix:
        return sp.csr_matrix(self.upper.U if self.n else (0, 0))


def _prepare(T: sp.csc_matrix) -> SuperLU:
    """SuperLU object for an upper triangular factor with a nonzero diagonal.

    Natural ordering and a zero pivot threshold keep every diagonal pivot,
    so SuperLU's factors are an identity and `T` itself, and solving with
    the object is a triangular sweep with `T`, or with its transpose under
    `trans="T"`.  A lower factor is prepared as its transpose and swept
    that way: SuperLU's transposed sweep over an upper factor costs less per
    column than its plain sweep over a lower one.  `relax=1` turns off
    relaxed supernodes: they amalgamate small subtrees into dense blocks to
    speed up a factorization, but `T` is already factored, so they would
    only make every sweep run dense kernels over the zeros they add.
    """
    return splu(T, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1)


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
        # both reach SuperLU in CSC with no conversion copy: the transpose
        # of L's CSR is CSC as it stands, and U is assembled in CSC
        lower = _prepare(sp.block_diag([f.L for f in factors], format="csr").T)
        upper = _prepare(sp.block_diag([f.U for f in factors], format="csc"))
    return BlockILU(n=n, nnz=sum(f.nnz for f in factors),
                    pivot_repairs=sum(f.pivot_repairs for f in factors),
                    lower=lower, upper=upper)


def block_solve(filu: BlockILU, rhs) -> np.ndarray:
    """Solve L U y = rhs, block by block (one assembled triangular pair).

    The factors were prepared when `filu` was built, so this is two compiled
    triangular sweeps: L, as the transposed sweep of `lower`, then U.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape[0] != filu.n:
        raise ValueError(f"rhs has length {rhs.shape[0]}, factors are {filu.n}-dimensional")
    if filu.n == 0:
        return rhs.copy()
    return filu.upper.solve(filu.lower.solve(rhs, trans="T"))

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

The blocks of one matrix are factored in as many processes as the
affinity mask has CPUs, each with a contiguous share of the blocks of about
equal nnz, and no share smaller than a fork is worth (see
`factor_blocks`).  The children are forked, so they read the matrix from
the memory they inherit; each pins itself to a CPU of its own, the caller's
mask is left as it is, and each sends one pickled object back through a
pipe: its factors, or the exception it raised.  The caller gathers the
shares in block order.  Only the ILUT row loop runs in the children; the
factors are assembled and prepared in the caller's process.  A block's
factors depend on nothing but the block and droptol, so they are the same
bits whichever process made them, and the result does not depend on the
number of processes.  `taskset -c 0` gives a one-process build.

The assembled block factors are prepared for solving once, when they are
built: each triangular factor becomes the upper factor of a SuperLU object
(see `_prepare`).  The unit-lower `L` is handed over transposed and swept
with `trans="T"`: SuperLU's transposed sweep over an upper factor costs less
per column than its plain sweep over a lower one.  The two SuperLU objects
are then the only stored copy of a block factor; `L` and `U` are converted
back to CSR when they are read.  A block solve is two compiled triangular
sweeps with no per-call conversion.

A row whose L and U rows and columns hold only the diagonal is a bare
pivot: it takes no part in either sweep, and its solution is the
right-hand side divided by U's diagonal.  SuperLU visits every row it
covers about four times per solve, whatever the row holds, while leaving
rows out costs one gather and one scatter of the rows that remain.  So
when at least half of the rows are bare, the SuperLU objects cover only
the other, coupled rows, and a solve divides the whole right-hand side by
the diagonal and overwrites the coupled rows with the two sweeps.  With no
coupled row the objects are 0 x 0, and their sweeps do nothing.  Most
interface vertices couple only across subdomains, outside C0, so C0's
factors are mostly bare; B's are not, and keep objects over every row.
"""

from __future__ import annotations

import os
import pickle
import signal
import warnings
from dataclasses import dataclass
from heapq import heappop, heappush

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import SuperLU, splu

from .sparse import as_indices, as_rows, canonical


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


def check_droptol(droptol: float) -> None:
    """Reject a NaN, infinite or negative drop tolerance, and a bool."""
    if isinstance(droptol, (bool, np.bool_)) or not 0 <= droptol < np.inf:
        raise ValueError(f"droptol must be finite and >= 0, got {droptol}")


def ilut(block, droptol: float = 1e-2) -> IluFactor:
    """Incomplete LU of a square block with threshold dropping.

    With droptol=0 and no pivot repairs this is the exact (no-pivoting) LU.
    As in Saad's ILUT, the factors depend on the scale of the block: a
    multiplier a_ik / u_kk, which has no units, is dropped below
    droptol * ||a_i||, which has the block's.  On lap3d 10^3 with shift 0.3,
    `pslr solve --s 4 --m 2 --rank 5` has fill_total 1.20 for A, 0.80 for
    1e10 * A and 2.19 for 1e-10 * A.
    """
    A = canonical(block)
    if A.shape[0] != A.shape[1]:
        raise ValueError("block must be square")
    n = A.shape[0]
    check_droptol(droptol)

    row_norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel()).tolist()
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
        # diagonal pivot; a zero or absent one is repaired to droptol * ||a_i||,
        # or at droptol 0 to SPARSKIT ILUT's 1e-4 * ||a_i||, with sign +
        # (eps * ||a_i|| would leave U numerically singular)
        diag = val[i] if mark[i] == i else 0.0
        if diag == 0.0:
            base = row_norms[i] if row_norms[i] > 0 else 1.0
            diag = droptol * base or 1e-4 * base
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
    upper factor of a SuperLU object.  When the factors are split into bare
    and coupled rows (see the module docstring), the objects cover only the
    `coupled` rows, in increasing order, and `diag` holds U's whole
    diagonal; otherwise both are None and the objects cover every row.
    With no coupled row the objects are 0 x 0, and solve empty right-hand
    sides.  An empty system is split, with no coupled rows.

    The read-only `L` and `U` convert the factors back to CSR on each read;
    SuperLU does not store the exact zeros ILUT may keep, so those are
    absent from them.  `nnz` and `pivot_repairs` are ILUT's counts, summed
    over the blocks.
    """

    n: int
    nnz: int
    pivot_repairs: int
    lower: SuperLU
    upper: SuperLU
    coupled: np.ndarray | None = None
    diag: np.ndarray | None = None

    @property
    def L(self) -> sp.csr_matrix:
        return self._read(self.lower.U.T, np.ones(self.n))

    @property
    def U(self) -> sp.csr_matrix:
        return self._read(self.upper.U, self.diag)

    def _read(self, T, diag) -> sp.csr_matrix:
        """The n x n CSR factor: `T` on the covered rows, `diag` on the bare ones."""
        if self.coupled is None:
            return canonical(T)
        bare = np.setdiff1d(np.arange(self.n), self.coupled)
        T = sp.coo_matrix(T)
        rows = np.concatenate([bare, self.coupled[T.row]])
        cols = np.concatenate([bare, self.coupled[T.col]])
        vals = np.concatenate([diag[bare], T.data])
        return canonical(sp.coo_matrix((vals, (rows, cols)), shape=(self.n, self.n)))


def _prepare(T: sp.csc_matrix) -> SuperLU:
    """SuperLU object for an upper triangular factor with a nonzero diagonal.

    Natural ordering and a zero pivot threshold keep every diagonal pivot,
    so SuperLU's factors are an identity and `T` itself, and solving with
    the object is a triangular sweep with `T`, or with its transpose under
    `trans="T"`.  `relax=1` turns off relaxed supernodes: they amalgamate
    small subtrees into dense blocks to speed up a factorization, but `T` is
    already factored, so they would only make every sweep run dense kernels
    over the zeros they add.

    SuperLU sizes its work arrays from a fill estimate, about 20 times the
    entries of `T`, and keeps them; the pages it never writes cost no RSS,
    but they count against an address-space limit (`ulimit -v`).  When an
    allocation fails, SuperLU raises `RuntimeError`, or writes a message
    with no newline to file descriptor 2 and scipy raises a bare
    `MemoryError`.  So fd 2 is held in a pipe while SuperLU runs, and either
    failure becomes one `MemoryError` that carries SuperLU's message.
    """
    r, w = os.pipe()
    os.set_blocking(w, False)   # a full pipe drops the rest, never blocks
    stderr = os.dup(2)
    os.dup2(w, 2)
    os.close(w)
    try:
        return splu(T, permc_spec="NATURAL", diag_pivot_thresh=0.0, relax=1)
    except (MemoryError, RuntimeError) as exc:
        if isinstance(exc, RuntimeError) and "MALLOC" not in str(exc):
            raise
        os.dup2(stderr, 2)   # closes the pipe's last write end, so the read ends
        said = str(exc) or os.read(r, 1 << 16).decode(errors="replace")
        raise MemoryError(f"SuperLU could not allocate the work arrays of a "
                          f"{T.shape[0]}-row factor: {said.strip()}") from None
    finally:
        os.dup2(stderr, 2)
        os.close(stderr)
        os.close(r)


# the least nnz a share is given: a forked share costs 15-30 ms (the fork,
# copy-on-write faults, the pipe and the child's exit), and on lap3d 20^3
# (s=16) ILUT(B), 25128 nnz, took as long in two shares as in one
_SHARE_NNZ = 20_000


def _cpus() -> list[int]:
    """The CPUs in the affinity mask, or none where the OS cannot report
    the mask or fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return []
    return sorted(os.sched_getaffinity(0))


def _shares(weights, k: int) -> list[tuple[int, int]]:
    """Split blocks 0..len(weights)-1 into at most k contiguous [lo, hi)
    ranges of about equal total weight; no range is empty."""
    cum = np.concatenate([[0], np.cumsum(weights)])
    cuts = np.searchsorted(cum, cum[-1] * np.arange(1, k) / k)
    bounds = np.unique(np.concatenate([[0], cuts, [len(weights)]])).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


def _ilut_range(A, offsets, lo, hi, droptol) -> list[IluFactor]:
    return [ilut(A[offsets[b]:offsets[b + 1], offsets[b]:offsets[b + 1]], droptol)
            for b in range(lo, hi)]


def _fork_share(A, offsets, share, droptol, cpu):
    """Fork a child that runs on `cpu`, ILUTs the blocks of `share` and
    pickles one object to a pipe: their factors, or the exception it
    raised.  Returns the child's pid and the pipe's read end, or None when
    no process can be forked."""
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns when a process with threads (OpenBLAS's pool)
            # forks, as the child may inherit a lock that a vanished thread
            # held.  This child takes none: it calls no BLAS, and it leaves
            # through os._exit.
            warnings.filterwarnings("ignore", "This process .* is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        return None
    if pid == 0:
        code = 1
        try:
            os.close(r)
            try:   # a child left on its parent's CPU would share it with the caller
                os.sched_setaffinity(0, {cpu})
            except OSError:
                pass
            try:
                result = _ilut_range(A, offsets, *share, droptol)
            except BaseException as exc:
                result = exc
            with open(w, "wb") as pipe:
                pickle.dump(result, pipe, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            # no atexit handler, and no flush of the stdio buffers the child
            # inherited, which would print the parent's pending output twice
            os._exit(code)
    os.close(w)
    return pid, open(r, "rb")


def _ilut_blocks(A, offsets, droptol) -> list[IluFactor]:
    """ILUT of every block, in shares of about equal nnz.  A forked child
    factors each share after the first, pinned to a CPU of its own, and
    sends back its factors or its exception.  The caller's thread, its mask
    left as it is, factors the first share and any share no process could
    be forked for, and gathers the shares in block order."""
    cpus = _cpus()
    weights = np.diff(A.indptr[offsets])
    k = min(len(cpus), offsets.size - 1, int(weights.sum()) // _SHARE_NNZ)
    shares = _shares(weights, max(1, k))
    factors, children = [], {}   # children: share -> (pid, read end) of its child
    try:
        for share, cpu in zip(shares[1:], cpus[1:]):
            if (child := _fork_share(A, offsets, share, droptol, cpu)) is not None:
                children[share] = child
        for lo, hi in shares:
            if (lo, hi) not in children:
                factors += _ilut_range(A, offsets, lo, hi, droptol)
                continue
            pid, pipe = children[lo, hi]
            try:
                result = pickle.load(pipe)
            except (EOFError, pickle.UnpicklingError):
                pipe.close()
                del children[lo, hi]
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                raise ChildProcessError(f"the process factoring blocks {lo} to {hi - 1} "
                                        f"ended with exit code {code} and no result") from None
            if isinstance(result, BaseException):
                raise result
            factors += result
    except BaseException:
        for pid, _ in children.values():
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.waitpid(pid, 0)
    return factors


def factor_blocks(A, block_sizes, droptol: float = 1e-2) -> BlockILU:
    """ILUT each diagonal block of A, with blocks given by `block_sizes`;
    the entries outside the blocks are never read.

    The blocks are factored in k processes: one per CPU in the affinity
    mask, but no more than there are blocks, or multiples of `_SHARE_NNZ`
    entries in the blocks' rows.  The block list is cut into k contiguous
    shares of about equal nnz; the calling thread factors the first, and a
    forked child, pinned to a CPU of its own, each of the others; the
    caller's affinity mask is not changed.  Each block's ILUT is
    independent and deterministic, and pickle carries its factors back bit
    for bit, so the result does not depend on k.  Every child has ended
    when this returns or raises, and an exception a child raised is raised
    here."""
    A = canonical(A)
    sizes = as_indices(block_sizes, "block sizes")
    if sizes.sum() != A.shape[0] or A.shape[0] != A.shape[1] or np.any(sizes < 0):
        raise ValueError("block sizes do not tile the matrix")
    check_droptol(droptol)
    n = A.shape[0]
    if not sizes.size:   # one empty block for none, as sp.block_diag raises on no blocks
        sizes = np.zeros(1, np.int64)
    factors = _ilut_blocks(A, np.concatenate([[0], np.cumsum(sizes)]), droptol)
    # both reach SuperLU in CSC with no conversion copy: the transpose of
    # L's CSR is CSC as it stands, and U is assembled in CSC
    Lt = sp.block_diag([f.L for f in factors], format="csr").T
    U = sp.block_diag([f.U for f in factors], format="csc")
    # a row is bare when its L and U rows and columns store only the diagonal
    bare = np.ones(n, dtype=bool)
    for T in (Lt, U):
        bare &= (np.diff(T.indptr) == 1) & (np.bincount(T.indices, minlength=n) == 1)
    coupled = diag = None
    if 2 * np.count_nonzero(bare) >= n:
        coupled = np.flatnonzero(~bare)
        diag = U.diagonal()
        Lt, U = Lt[coupled][:, coupled], U[coupled][:, coupled]
    return BlockILU(n=n, nnz=sum(f.nnz for f in factors),
                    pivot_repairs=sum(f.pivot_repairs for f in factors),
                    lower=_prepare(Lt), upper=_prepare(U), coupled=coupled, diag=diag)


def block_solve(filu: BlockILU, rhs) -> np.ndarray:
    """Solve L U y = rhs, block by block: the sweeps with `lower` and `upper`,
    after dividing by U's diagonal when the factors are split."""
    rhs = as_rows(rhs, filu.n, "rhs")
    if filu.coupled is None:
        return filu.upper.solve(filu.lower.solve(rhs, trans="T"))
    out = rhs / (filu.diag if rhs.ndim == 1 else filu.diag[:, None])
    out[filu.coupled] = filu.upper.solve(filu.lower.solve(rhs[filu.coupled], trans="T"))
    return out

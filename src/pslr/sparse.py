"""Sparse matrix utilities: permutations, submatrix extraction, Matrix Market I/O.

Matrices are scipy.sparse CSR throughout (double precision, sorted column
indices, no duplicates).  `canonical` normalizes arbitrary input into that
form; everything else in the package assumes it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


class MatrixMarketError(ValueError):
    """Malformed Matrix Market file; `line` is the 1-based offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def canonical(A) -> sp.csr_matrix:
    """Return A as CSR with float64 values, sorted indices, summed duplicates.
    A complex A is rejected: the cast would keep only its real part."""
    A = sp.csr_matrix(A, copy=False)
    if A.dtype.kind == "c":
        raise ValueError(f"complex matrices are not supported (dtype {A.dtype})")
    A = A.astype(np.float64, copy=False)
    A.sum_duplicates()
    A.sort_indices()
    return A


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}: forward maps old index -> new index."""

    forward: np.ndarray
    inverse: np.ndarray

    @classmethod
    def from_forward(cls, forward) -> "Permutation":
        forward = np.asarray(forward, dtype=np.int64)
        n = forward.size
        inverse = np.empty(n, dtype=np.int64)
        if not np.array_equal(np.sort(forward), np.arange(n)):
            raise ValueError("forward map is not a bijection on {0..n-1}")
        inverse[forward] = np.arange(n, dtype=np.int64)
        return cls(forward=forward, inverse=inverse)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        idx = np.arange(n, dtype=np.int64)
        return cls(forward=idx.copy(), inverse=idx.copy())

    def __len__(self):
        return self.forward.size


def matvec(A, x) -> np.ndarray:
    """y = A x with dimension checking."""
    x = np.asarray(x, dtype=np.float64)
    if A.shape[1] != x.shape[0]:
        raise ValueError(f"dimension mismatch: matrix is {A.shape}, vector has {x.shape[0]}")
    return A @ x


def permute_symmetric(A, p: Permutation) -> sp.csr_matrix:
    """Symmetric permutation: result[p(i), p(j)] = A[i, j]."""
    if A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    if A.shape[0] != len(p):
        raise ValueError(f"permutation over {len(p)} indices, matrix is {A.shape[0]}x{A.shape[0]}")
    A = canonical(A)
    out = A[p.inverse][:, p.inverse]
    return canonical(out)


def extract_submatrix(A, rows, cols) -> sp.csr_matrix:
    """result[a, b] = A[rows[a], cols[b]] for sorted in-range index sets."""
    A = canonical(A)
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    for name, idx, limit in (("row", rows, A.shape[0]), ("column", cols, A.shape[1])):
        if np.any((idx < 0) | (idx >= limit)):
            raise ValueError(f"{name} index set out of range")
        if np.any(np.diff(idx) <= 0):
            raise ValueError(f"{name} index set must be strictly increasing")
    return canonical(A[rows][:, cols])


def read_matrix_market(path) -> sp.csr_matrix:
    """Read a real coordinate Matrix Market file (general or symmetric).

    Symmetric storage is expanded to full; duplicate entries are summed;
    indices are converted from the file's 1-based convention.  A file with
    any nan or infinite value is rejected, with the count of such entries.
    """
    with open(path, "r") as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("empty file", line=1)

    header = lines[0].strip().split()
    if len(header) != 5 or header[0] != "%%MatrixMarket":
        raise MatrixMarketError("expected '%%MatrixMarket matrix coordinate real <symmetry>'", line=1)
    _, obj, fmt, field, symmetry = (header[0],) + tuple(t.lower() for t in header[1:])
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(f"unsupported object/format '{obj} {fmt}'", line=1)
    if field != "real":
        raise MatrixMarketError(f"unsupported field '{field}' (only real is accepted)", line=1)
    if symmetry not in ("general", "symmetric"):
        raise MatrixMarketError(f"unsupported symmetry '{symmetry}'", line=1)

    lineno = 1
    nrows = ncols = nnz = None
    entries_seen = 0
    nonfinite = 0
    first_nonfinite = None
    ii = []
    jj = []
    vv = []
    for raw in lines[1:]:
        lineno += 1
        text = raw.strip()
        if not text or text.startswith("%"):
            continue
        parts = text.split()
        if nrows is None:
            if len(parts) != 3:
                raise MatrixMarketError("size line must be 'nrows ncols nnz'", line=lineno)
            try:
                nrows, ncols, nnz = (int(t) for t in parts)
            except ValueError:
                raise MatrixMarketError("non-integer size line", line=lineno) from None
            if nrows < 0 or ncols < 0 or nnz < 0:
                raise MatrixMarketError("negative dimension or count", line=lineno)
            continue
        if len(parts) != 3:
            raise MatrixMarketError("entry must be 'i j value'", line=lineno)
        try:
            i = int(parts[0])
            j = int(parts[1])
            v = float(parts[2])
        except ValueError:
            raise MatrixMarketError(f"cannot parse entry '{text}'", line=lineno) from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(f"index ({i}, {j}) out of declared range {nrows}x{ncols}", line=lineno)
        entries_seen += 1
        if entries_seen > nnz:
            raise MatrixMarketError(f"more than the declared {nnz} entries", line=lineno)
        if not math.isfinite(v):
            if not nonfinite:
                first_nonfinite = lineno
            nonfinite += 1
        ii.append(i - 1)
        jj.append(j - 1)
        vv.append(v)
        if symmetry == "symmetric" and i != j:
            ii.append(j - 1)
            jj.append(i - 1)
            vv.append(v)

    if nrows is None:
        raise MatrixMarketError("missing size line", line=lineno)
    if entries_seen != nnz:
        raise MatrixMarketError(f"declared {nnz} entries but found {entries_seen}", line=lineno)
    if nonfinite:
        raise MatrixMarketError(f"non-finite value ({nonfinite} non-finite entries in the file)",
                                line=first_nonfinite)
    A = sp.coo_matrix((vv, (ii, jj)), shape=(nrows, ncols))
    return canonical(A)


def write_matrix_market(A, path) -> None:
    """Write A in general real coordinate format, 17 significant digits, so
    `read_matrix_market` gets every value back to the bit."""
    from scipy.io import mmwrite   # here: importing scipy.io adds about 16 ms to every run

    A = canonical(A)   # before the file is made, so a rejected A leaves none
    # through an open file, as mmwrite given a path appends ".mtx" to it
    with open(path, "wb") as fh:
        mmwrite(fh, A, field="real", precision=17, symmetry="general")

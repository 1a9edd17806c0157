"""Sparse matrix utilities: permutations, submatrix extraction, Matrix Market I/O.

Matrices are scipy.sparse CSR throughout (double precision, sorted column
indices, no duplicates).  `canonical` normalizes arbitrary input into that
form; everything else in the package assumes it.
"""

from __future__ import annotations

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

    def __len__(self):
        return self.forward.size


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

    A symmetric file holds the lower triangle only (an entry above the
    diagonal is rejected) and is expanded to full; duplicates are summed;
    indices are converted from the file's 1-based convention.  Sizes and
    indices are ASCII integers and values ASCII floats: a size or entry line
    with an underscore or a non-ASCII character, which Python's own number
    syntax accepts, is rejected.  A file with any nan or infinite value is
    rejected, with the count of such entries.
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

    body = _content(lines)
    lineno, text = next(body, (len(lines), None))
    if text is None:
        raise MatrixMarketError("missing size line", line=lineno)
    if len(parts := text.split()) != 3:
        raise MatrixMarketError("size line must be 'nrows ncols nnz'", line=lineno)
    try:   # int() and float() also read `1_0` as 10 and non-ASCII digits as digits
        if "_" in text or not text.isascii():
            raise ValueError(text)
        nrows, ncols, nnz = map(int, parts)
    except ValueError:
        raise MatrixMarketError("non-integer size line", line=lineno) from None
    if nrows < 0 or ncols < 0 or nnz < 0:
        raise MatrixMarketError("negative dimension or count", line=lineno)

    ii, jj, vv = [], [], []
    for k, (lineno, text) in enumerate(body):
        if len(parts := text.split()) != 3:
            raise MatrixMarketError("entry must be 'i j value'", line=lineno)
        try:   # as in the size line
            if "_" in text or not text.isascii():
                raise ValueError(text)
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketError(f"cannot parse entry '{text}'", line=lineno) from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(f"index ({i}, {j}) out of declared range {nrows}x{ncols}", line=lineno)
        if symmetry == "symmetric" and j > i:
            raise MatrixMarketError(f"entry ({i}, {j}) above the diagonal of a symmetric file", line=lineno)
        if k == nnz:
            raise MatrixMarketError(f"more than the declared {nnz} entries", line=lineno)
        ii.append(i - 1)
        jj.append(j - 1)
        vv.append(v)

    if len(vv) != nnz:
        raise MatrixMarketError(f"declared {nnz} entries but found {len(vv)}", line=len(lines))
    i, j, v = np.array(ii, dtype=np.int64), np.array(jj, dtype=np.int64), np.array(vv)
    if (bad := ~np.isfinite(v)).any():   # the line of the first, from a second pass
        raise MatrixMarketError(f"non-finite value ({bad.sum()} non-finite entries in the file)",
                                line=list(_content(lines))[1 + bad.argmax()][0])
    if symmetry == "symmetric":   # each off-diagonal entry, then its mirror
        keep = np.ravel([np.ones(v.size, bool), i != j], order="F")
        i, j, v = [np.ravel(pair, order="F")[keep] for pair in ((i, j), (j, i), (v, v))]
    return canonical(sp.coo_matrix((v, (i, j)), shape=(nrows, ncols)))


def _content(lines):
    """(line number, text) of each line after the first that is neither
    blank nor a comment, stripped."""
    return ((n, t) for n, raw in enumerate(lines[1:], 2) if (t := raw.strip()) and t[0] != "%")


def write_matrix_market(A, path) -> None:
    """Write A in general real coordinate format, 17 significant digits, so
    `read_matrix_market` gets every value back to the bit."""
    from scipy.io import mmwrite   # here: importing scipy.io adds about 16 ms to every run

    A = canonical(A)   # before the file is made, so a rejected A leaves none
    # through an open file, as mmwrite given a path appends ".mtx" to it
    with open(path, "wb") as fh:
        mmwrite(fh, A, field="real", precision=17, symmetry="general")

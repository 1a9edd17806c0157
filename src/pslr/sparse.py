"""Sparse matrix utilities: input checks, permutations, submatrix
extraction, Matrix Market I/O.

Matrices are scipy.sparse CSR throughout (double precision, sorted column
indices, no duplicates).  `canonical` normalizes arbitrary input into that
form, never changing its argument; everything else in the package assumes
it.  The other inputs are checked here too, each kind by one function:
`check_square` takes a square matrix, dense or sparse, `as_real` a matrix
that is not complex, `as_rows` a vector or a block of vectors with a given
number of rows, `check_count` an integer count with a lower bound,
`check_nonnegative` a tolerance, and `as_indices` an integer index array.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real

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
    A complex A is rejected, by `as_real`."""
    A = as_real(sp.csr_matrix(A, copy=False))
    if not A.has_canonical_format:   # on a copy: A may share its arrays with the argument
        A = A.copy()
        A.sum_duplicates()   # sorts the indices too
    return A


def as_real(A):
    """A dense or sparse `A` as float64; a `ValueError` when it is complex,
    as the cast would keep only its real part."""
    if A.dtype.kind == "c":
        raise ValueError(f"complex matrices are not supported (dtype {A.dtype})")
    return A.astype(np.float64, copy=False)


def check_square(M, what: str = "matrix") -> None:
    """Reject an `M`, dense or sparse, that is not a 2-D square matrix: a
    scalar, a vector and None included."""
    if len(shape := np.shape(M)) != 2 or shape[0] != shape[1]:
        raise ValueError(f"{what} must be square, got shape {shape}")


def as_rows(v, n: int, what: str = "vector") -> np.ndarray:
    """`v` as float64, a vector or a block of vectors in its columns; a
    `ValueError` unless it has `n` rows, which a scalar never has."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[:1] != (n,):
        raise ValueError(f"{what} has {v.shape[0] if v.ndim else 'no'} rows, expected {n}")
    return v


def check_count(value, name: str, least: int = 0) -> None:
    """Reject a `value` that is not an integer, a bool included (numpy
    integers pass), or that is below `least`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_nonnegative(value, name: str) -> None:
    """Reject a `value` that is not a finite real >= 0, a bool included
    (True and False would compare as 1 and 0)."""
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value < np.inf:
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


def as_indices(a, what: str) -> np.ndarray:
    """`a` as an int64 array; a `ValueError` when a non-empty `a` holds
    anything but integers, as the cast would truncate a float or a bool."""
    a = np.asarray(a)
    if a.size and a.dtype.kind not in "iu":
        raise ValueError(f"{what} must hold integers, got dtype {a.dtype}")
    return a.astype(np.int64, copy=False)


@dataclass(frozen=True)
class Permutation:
    """Bijection on {0..n-1}: forward maps old index -> new index."""

    forward: np.ndarray
    inverse: np.ndarray

    @classmethod
    def from_forward(cls, forward) -> "Permutation":
        forward = as_indices(forward, "forward map")
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
    check_square(A)
    if A.shape[0] != len(p):
        raise ValueError(f"permutation over {len(p)} indices, matrix is {A.shape[0]}x{A.shape[0]}")
    A = canonical(A)
    out = A[p.inverse][:, p.inverse]
    return canonical(out)


def extract_submatrix(A, rows, cols) -> sp.csr_matrix:
    """result[a, b] = A[rows[a], cols[b]] for sorted in-range index sets."""
    A = canonical(A)
    rows, cols = as_indices(rows, "row index set"), as_indices(cols, "column index set")
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

import re

import numpy as np
import pytest
import scipy.sparse as sp

from pslr.diagnostics import dense_schur, spectrum
from pslr.ilu import block_solve, factor_blocks, ilut
from pslr.krylov import gmres
from pslr.lowrank import apply_correction, arnoldi, build_correction
from pslr.partition import classify_and_reorder, partition_graph
from pslr.preconditioner import PslrConfig, build
from pslr.problems import ProblemSpec, laplacian3d
from pslr.schur import apply_Err, apply_Es, apply_neumann, apply_S
from pslr.sparse import (
    MatrixMarketError,
    Permutation,
    canonical,
    extract_submatrix,
    permute_symmetric,
    read_matrix_market,
    write_matrix_market,
)


# every public entry that takes a matrix, each reading it through `canonical`,
# or `as_real` where it takes a dense one (`spectrum` takes either)
_ENTRIES = {
    "build": lambda A, path: build(A, PslrConfig(num_subdomains=2, rank=1)),
    "ilut": lambda A, path: ilut(A),
    "factor_blocks": lambda A, path: factor_blocks(A, [2, 2]),
    "partition_graph": lambda A, path: partition_graph(A, 2),
    "classify_and_reorder": lambda A, path: classify_and_reorder(A, np.array([0, 0, 1, 1])),
    "permute_symmetric": lambda A, path: permute_symmetric(A, Permutation.from_forward(np.arange(4))),
    "extract_submatrix": lambda A, path: extract_submatrix(A, [0, 1], [2, 3]),
    "write_matrix_market": lambda A, path: write_matrix_market(A, path),
    "spectrum": lambda A, path: spectrum(A.toarray()),
    "spectrum-sparse": lambda A, path: spectrum(A),
}


class TestCanonical:
    @pytest.mark.parametrize("entry", list(_ENTRIES))
    def test_complex_rejected_where_it_enters(self, entry, tmp_path):
        # a zero imaginary part is rejected too: the dtype decides, before any
        # cast could drop the imaginary part with only a ComplexWarning
        A = sp.csr_matrix(np.diag([4.0, 4.0, 4.0, 4.0]) - np.eye(4, k=1) - np.eye(4, k=-1))
        _ENTRIES[entry](A, tmp_path / "real.mtx")
        with pytest.raises(ValueError, match="complex matrices are not supported"):
            _ENTRIES[entry](A.astype(np.complex128), tmp_path / "complex.mtx")
        assert not (tmp_path / "complex.mtx").exists()

    @pytest.mark.parametrize("make", [np.array, sp.csr_matrix, sp.coo_array],
                             ids=["dense", "csr", "coo"])
    def test_complex_rejected_in_any_container(self, make):
        with pytest.raises(ValueError, match="dtype complex64"):
            canonical(make(np.eye(3, dtype=np.complex64)))

    def test_real_input_keeps_its_bits(self):
        # signed zeros, a subnormal, the largest finite value and an unsorted row
        A = sp.csr_matrix(([-0.0, 5e-324, -1.7976931348623157e308, 1 / 3, 0.1],
                           [2, 0, 1, 0, 1], [0, 3, 5]), shape=(2, 3))
        want = A.toarray()
        C = canonical(A)
        assert C.dtype == np.float64 and C.has_canonical_format
        np.testing.assert_array_equal(C.toarray().view(np.int64), want.view(np.int64))
        for dtype in (np.float32, np.int16):
            M = np.array([[3, -7], [11, 2]], dtype=dtype)
            np.testing.assert_array_equal(canonical(M).toarray(), M.astype(np.float64))

    @pytest.mark.parametrize("entry", list(_ENTRIES))
    def test_argument_keeps_its_arrays(self, entry, tmp_path):
        # each row's columns reversed and its diagonal split in two: scipy's
        # in-place sum_duplicates would sort and sum the caller's arrays
        dense = np.diag([4.0, 4.0, 4.0, 4.0]) - np.eye(4, k=1) - np.eye(4, k=-1)
        data, indices, indptr = [], [], [0]
        for i, row in enumerate(dense):
            cols = [j for j in range(3, -1, -1) if row[j] and j != i]
            data += [row[j] for j in cols] + [1.0, row[i] - 1.0]
            indices += cols + [i, i]
            indptr.append(len(data))
        A = sp.csr_matrix((np.array(data), np.array(indices), np.array(indptr)), shape=(4, 4))
        assert not A.has_canonical_format and np.array_equal(A.toarray(), dense)
        arrays = [a.copy() for a in (A.data, A.indices, A.indptr)]
        _ENTRIES[entry](A, tmp_path / "a.mtx")
        for before, after in zip(arrays, (A.data, A.indices, A.indptr)):
            assert before.dtype == after.dtype and before.tobytes() == after.tobytes()


@pytest.fixture(scope="module")
def built():
    """A preconditioner with interior and interface rows and a rank-2 correction."""
    P = build(laplacian3d(ProblemSpec(4, 4, 4, shift=0.1)), PslrConfig(num_subdomains=4, rank=2))
    assert P.system.p and P.system.q and P.correction.rank == 2
    return P


# every public entry that takes a vector or a block of vectors, each reading it
# through `as_rows`: (the rows it takes, a call with it)
_VECTOR_ENTRIES = {
    "apply": (lambda P: P.system.n, lambda P, v: P.apply(v)),
    "apply_original": (lambda P: P.system.n, lambda P, v: P.apply_original(v)),
    "apply_S": (lambda P: P.system.q, lambda P, v: apply_S(P.ctx, v)),
    "apply_Es": (lambda P: P.system.q, lambda P, v: apply_Es(P.ctx, v)),
    "apply_neumann": (lambda P: P.system.q, lambda P, v: apply_neumann(P.ctx, 2, v)),
    "apply_Err": (lambda P: P.system.q, lambda P, v: apply_Err(P.ctx, 2, v)),
    "block_solve": (lambda P: P.system.p, lambda P, v: block_solve(P.ctx.b_ilu, v)),
    "apply_correction": (lambda P: P.system.q, lambda P, v: apply_correction(P.correction, v)),
}


@pytest.mark.parametrize("entry", list(_VECTOR_ENTRIES))
def test_scalar_vector_rejected_where_it_enters(built, entry):
    rows, call = _VECTOR_ENTRIES[entry]
    n = rows(built)
    assert call(built, np.ones(n)).shape == (n,)
    assert call(built, np.ones((n, 2))).shape == (n, 2)
    with pytest.raises(ValueError, match=f"has {n + 1} rows, expected {n}"):
        call(built, np.ones(n + 1))
    with pytest.raises(ValueError, match=f"has no rows, expected {n}"):
        call(built, 1.0)


# every public entry that takes a square matrix, each checking it with `check_square`
_SQUARE_ENTRIES = {
    "permute_symmetric": lambda M: permute_symmetric(M, Permutation.from_forward([0, 1])),
    "ilut": lambda M: ilut(M),
    "factor_blocks": lambda M: factor_blocks(M, [1, 1]),
    "partition_graph": lambda M: partition_graph(M, 1),
    "classify_and_reorder": lambda M: classify_and_reorder(M, [0, 0]),
    "build": lambda M: build(M, PslrConfig(num_subdomains=1, rank=0)),
    "build_correction.H": lambda M: build_correction(np.zeros((2, 2)), M),
    "spectrum": lambda M: spectrum(M),
}


@pytest.mark.parametrize("M", [np.ones((2, 3)), sp.csr_matrix(np.ones((2, 3))), np.ones(2), 1.0,
                               None], ids=["dense-2x3", "sparse-2x3", "vector", "scalar", "None"])
@pytest.mark.parametrize("entry", list(_SQUARE_ENTRIES))
def test_non_square_matrix_rejected_where_it_enters(entry, M):
    _SQUARE_ENTRIES[entry](0.5 * np.eye(2))
    # scipy would read a scalar as a 1 x 1 matrix and a vector as one row
    with pytest.raises(ValueError, match=re.escape(f"must be square, got shape {np.shape(M)}")):
        _SQUARE_ENTRIES[entry](M)


# every public entry that takes a count, each reading it through `check_count`;
# PslrConfig's fields, read the same way, are tested with the config
_COUNT_ENTRIES = {
    "ProblemSpec.nx": lambda k, P: ProblemSpec(k, 2, 2),
    "ProblemSpec.ny": lambda k, P: ProblemSpec(2, k, 2),
    "ProblemSpec.nz": lambda k, P: ProblemSpec(2, 2, k),
    "partition_graph": lambda k, P: partition_graph(P.system.matrix, k),
    "arnoldi": lambda k, P: arnoldi(lambda v: v, 4, k),
    "arnoldi.dim": lambda k, P: arnoldi(lambda v: v, k, 2),
    "arnoldi.seed": lambda k, P: arnoldi(lambda v: v, 4, 2, seed=k),
    "DenseOracle.series_matrix": lambda k, P: dense_schur(P.system).series_matrix(k),
    "DenseOracle.err_matrix": lambda k, P: dense_schur(P.system).err_matrix(k),
    "apply_neumann": lambda k, P: apply_neumann(P.ctx, k, np.ones(P.system.q)),
    "apply_Err": lambda k, P: apply_Err(P.ctx, k, np.ones(P.system.q)),
    "gmres.maxit": lambda k, P: gmres(lambda v: v, None, np.ones(3), maxit=k),
    "gmres.restart": lambda k, P: gmres(lambda v: v, None, np.ones(3), restart=k),
}


@pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
@pytest.mark.parametrize("entry", list(_COUNT_ENTRIES))
def test_non_integer_count_rejected_where_it_enters(built, entry, value):
    _COUNT_ENTRIES[entry](np.int64(2), built)   # numpy integers pass
    with pytest.raises(ValueError, match=f"must be an integer, got {value!r}"):
        _COUNT_ENTRIES[entry](value, built)


# every public entry that takes an index array, each reading it through `as_indices`
_INDEX_ENTRIES = {
    "factor_blocks": lambda idx: factor_blocks(sp.identity(2, format="csr"), idx),
    "Permutation.from_forward": lambda idx: Permutation.from_forward(idx),
    "extract_submatrix": lambda idx: extract_submatrix(sp.identity(2, format="csr"), idx, [0]),
}


@pytest.mark.parametrize("idx", [[1.5, 1.5], [1.7, 0.2], [True, True], [True, False]],
                         ids=lambda idx: ",".join(map(str, idx)))
@pytest.mark.parametrize("entry", list(_INDEX_ENTRIES))
def test_non_integer_index_array_rejected_where_it_enters(entry, idx):
    # a cast would truncate each, for some entries into a valid array
    with pytest.raises(ValueError, match=f"must hold integers, got dtype {np.asarray(idx).dtype}"):
        _INDEX_ENTRIES[entry](idx)


class TestPermutation:
    def test_forward_inverse_roundtrip(self):
        p = Permutation.from_forward([2, 0, 1])
        np.testing.assert_array_equal(p.forward[p.inverse], np.arange(3))
        np.testing.assert_array_equal(p.inverse[p.forward], np.arange(3))

    def test_not_bijection(self):
        with pytest.raises(ValueError):
            Permutation.from_forward([0, 0, 1])

    @pytest.mark.parametrize("forward", [[0, 1, 3], [-1, 0, 1]])
    def test_out_of_range(self, forward):
        with pytest.raises(ValueError):
            Permutation.from_forward(forward)

    def test_empty(self):
        p = Permutation.from_forward([])
        assert len(p) == 0 and p.inverse.size == 0


class TestPermuteSymmetric:
    def test_identity_permutation(self):
        A = sp.random(10, 10, density=0.3, random_state=0, format="csr")
        B = permute_symmetric(A, Permutation.from_forward(np.arange(10)))
        assert (B != A).nnz == 0

    def test_inverse_roundtrip(self):
        A = sp.random(12, 12, density=0.3, random_state=1, format="csr")
        p = Permutation.from_forward(np.random.default_rng(2).permutation(12))
        pinv = Permutation.from_forward(p.inverse)
        B = permute_symmetric(permute_symmetric(A, p), pinv)
        assert (B != A).nnz == 0

    def test_diagonal_relabeling(self):
        A = sp.diags([1.0, 2.0, 3.0]).tocsr()
        p = Permutation.from_forward([2, 0, 1])
        B = permute_symmetric(A, p)
        np.testing.assert_array_equal(B.diagonal(), [2.0, 3.0, 1.0])

    def test_entry_mapping_matches_dense(self):
        rng = np.random.default_rng(3)
        A = sp.random(15, 15, density=0.3, random_state=3, format="csr")
        fwd = rng.permutation(15)
        p = Permutation.from_forward(fwd)
        B = permute_symmetric(A, p).toarray()
        Ad = A.toarray()
        ref = np.zeros_like(Ad)
        for i in range(15):
            for j in range(15):
                ref[fwd[i], fwd[j]] = Ad[i, j]
        np.testing.assert_array_equal(B, ref)

    def test_spectrum_preserved(self):
        A = sp.random(60, 60, density=0.1, random_state=4, format="csr")
        p = Permutation.from_forward(np.random.default_rng(5).permutation(60))
        e0 = np.sort_complex(np.linalg.eigvals(A.toarray()))
        e1 = np.sort_complex(np.linalg.eigvals(permute_symmetric(A, p).toarray()))
        assert np.max(np.abs(e0 - e1)) <= 1e-10

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            permute_symmetric(sp.identity(4, format="csr"), Permutation.from_forward(np.arange(3)))


class TestExtractSubmatrix:
    def test_full_sets_copy(self):
        A = sp.random(8, 8, density=0.4, random_state=6, format="csr")
        B = extract_submatrix(A, np.arange(8), np.arange(8))
        assert (B != A).nnz == 0

    def test_empty_row_set(self):
        A = sp.identity(5, format="csr")
        B = extract_submatrix(A, [], np.arange(3))
        assert B.shape == (0, 3)

    def test_leading_block_matches_dense(self):
        A = sp.csr_matrix(np.arange(16, dtype=float).reshape(4, 4) + 1)
        B = extract_submatrix(A, [0, 1], [0, 1])
        np.testing.assert_array_equal(B.toarray(), A.toarray()[:2, :2])

    def test_unsorted_rejected(self):
        A = sp.identity(5, format="csr")
        with pytest.raises(ValueError):
            extract_submatrix(A, [1, 0], [0])

    def test_out_of_range_rejected(self):
        A = sp.identity(5, format="csr")
        with pytest.raises(ValueError):
            extract_submatrix(A, [0, 5], [0])


HEADER = "%%MatrixMarket matrix coordinate real general\n"

# (message, 1-based line, file text): each rejection of read_matrix_market
REJECTIONS = [
    ("empty file", 1, ""),
    ("unsupported object/format", 1, "%%MatrixMarket vector array real general\n"),
    ("unsupported symmetry", 1, "%%MatrixMarket matrix coordinate real skew-symmetric\n1 1 0\n"),
    ("size line must be", 4, HEADER + "% comment\n\n2 2\n"),
    ("non-integer size", 2, HEADER + "2 2 x\n"),
    ("negative dimension", 2, HEADER + "2 -2 1\n"),
    ("entry must be", 3, HEADER + "2 2 1\n1 1\n"),
    ("cannot parse entry", 3, HEADER + "2 2 1\n1 1 one\n"),
    ("more than the declared 1", 4, HEADER + "2 2 1\n1 1 1.0\n2 2 1.0\n"),
    ("missing size line", 2, HEADER + "% no size line\n"),
    ("declared 3 entries but found 1", 5, HEADER + "2 2 3\n1 1 1.0\n\n% trailing comment\n"),
    ("non-finite value", 6, HEADER + "2 2 2\n1 1 1.0\n% comment\n\n2 2 nan\n"),
    # the first fault in file order: a malformed entry before one too many,
    # and a missing entry before a nan
    ("cannot parse entry '1 1 x'", 3, HEADER + "2 2 1\n1 1 x\n2 2 1.0\n"),
    ("declared 3 entries but found 2", 4, HEADER + "2 2 3\n1 1 nan\n2 2 1.0\n"),
    # number spellings that Python's int() and float() accept and Matrix Market has not
    ("non-integer size line", 2, HEADER + "1_0 10 1\n1 1 1.0\n"),
    ("cannot parse entry '1_0 1 2.0'", 3, HEADER + "10 10 1\n1_0 1 2.0\n"),
    ("cannot parse entry '\u0661 1 3.0'", 3, HEADER + "2 2 1\n\u0661 1 3.0\n"),
    ("cannot parse entry '1 1 1_0.5'", 3, HEADER + "2 2 1\n1 1 1_0.5\n"),
    # a symmetric file stores the lower triangle only
    ("above the diagonal of a symmetric file", 4,
     "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n2 1 1.0\n1 2 1.0\n"),
]


class TestMatrixMarket:
    def test_identity_roundtrip(self, tmp_path):
        path = tmp_path / "eye.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n2 2 1.0\n")
        A = read_matrix_market(path)
        assert A.shape == (2, 2) and A.nnz == 2

    def test_symmetric_expansion(self, tmp_path):
        # lower triangle of the 3x3 tridiagonal: 3 diagonal + 2 off entries
        path = tmp_path / "tri.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n"
            "3 3 5\n1 1 2.0\n2 1 -1.0\n2 2 2.0\n3 2 -1.0\n3 3 2.0\n")
        A = read_matrix_market(path)
        assert A.nnz == 7
        np.testing.assert_array_equal(A.toarray(), A.toarray().T)

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1.0\n")
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(path)
        assert exc.value.line == 3

    def test_complex_rejected(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        path.write_text("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1.0 0.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "hdr.mtx"
        path.write_text("%%NotMatrixMarket\n1 1 0\n")
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(path)
        assert exc.value.line == 1

    def test_nonfinite_rejected(self, tmp_path):
        path = tmp_path / "nan.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n3 3 4\n"
                        "1 1 1.0\n2 2 nan\n3 3 -inf\n3 1 inf\n")
        with pytest.raises(MatrixMarketError) as exc:
            read_matrix_market(path)
        assert exc.value.line == 4
        assert "3 non-finite entries" in str(exc.value)

    @pytest.mark.parametrize("message, line, text", REJECTIONS, ids=[r[0] for r in REJECTIONS])
    def test_rejection_line(self, tmp_path, message, line, text):
        path = tmp_path / "bad.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError, match=message) as exc:
            read_matrix_market(path)
        assert exc.value.line == line

    def test_symmetric_duplicates_summed_in_file_order(self, tmp_path):
        # (2,1) three times: each entry is followed by its mirror, so both
        # positions sum 1e16, 1.0 and -1e16 in that order
        entries = [(1, 1, 2.0), (2, 1, 1e16), (2, 1, 1.0), (2, 1, -1e16), (2, 2, 3.0)]
        path = tmp_path / "sym.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 5\n"
                        + "".join(f"{i} {j} {v!r}\n" for i, j, v in entries))
        expanded = []
        for i, j, v in entries:
            expanded += [(i - 1, j - 1, v)] + ([(j - 1, i - 1, v)] if i != j else [])
        rows, cols, vals = zip(*expanded)
        want = canonical(sp.coo_matrix((vals, (rows, cols)), shape=(2, 2)))
        A = read_matrix_market(path)
        assert A.shape == want.shape
        for part in ("indptr", "indices", "data"):
            got, ref = getattr(A, part), getattr(want, part)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.5\n1 1 2.5\n")
        A = read_matrix_market(path)
        assert A[0, 0] == 4.0

    def test_write_read_value_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        A = sp.random(20, 20, density=0.2, random_state=7, format="csr")
        A.data[:] = rng.standard_normal(A.nnz)
        path = tmp_path / "rt.mtx"
        write_matrix_market(A, path)
        B = read_matrix_market(path)
        assert (B != A).nnz == 0
        np.testing.assert_array_equal(B.data, A.data)

    def test_write_keeps_path_and_every_bit(self, tmp_path):
        # signed zeros, a subnormal and both ends of the exponent range
        A = sp.csr_matrix(([0.0, -0.0, 5e-324, -1.7976931348623157e308, 1 / 3, 1e-300],
                           ([0, 0, 1, 2, 2, 3], [0, 3, 1, 0, 2, 3])), shape=(4, 5))
        path = tmp_path / "values.txt"
        write_matrix_market(A, path)
        assert [p.name for p in tmp_path.iterdir()] == ["values.txt"]
        B = read_matrix_market(path)
        assert B.shape == A.shape
        np.testing.assert_array_equal(B.indices, A.indices)
        np.testing.assert_array_equal(B.data.view(np.int64), A.data.view(np.int64))

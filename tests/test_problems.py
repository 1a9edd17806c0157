import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from pslr.problems import (
    ProblemSpec,
    _axis_operator,
    convdiff3d,
    count_negative_eigs_analytic,
    laplacian3d,
    parse_problem,
)
from pslr.sparse import canonical


def three_kron(spec: ProblemSpec) -> sp.csr_matrix:
    """The 7-point stencil as a sum of three nested Kronecker products, one
    per axis: the oracle for convdiff3d's kronsum."""
    h = spec.h
    gx, gy, gz = spec.convection
    Dx = _axis_operator(spec.nx, h * gx / 2.0)
    Dy = _axis_operator(spec.ny, h * gy / 2.0)
    Dz = _axis_operator(spec.nz, h * gz / 2.0)
    Ix = sp.identity(spec.nx, format="csr")
    Iy = sp.identity(spec.ny, format="csr")
    Iz = sp.identity(spec.nz, format="csr")
    A = sp.kron(Iz, sp.kron(Iy, Dx)) + sp.kron(Iz, sp.kron(Dy, Ix)) + sp.kron(Dz, sp.kron(Iy, Ix))
    if spec.shift != 0.0:
        A = A - spec.shift * sp.identity(spec.n)
    return canonical(A)


class TestLaplacian3d:
    def test_2x2x2_hand_case(self):
        A = laplacian3d(ProblemSpec(2, 2, 2)).toarray()
        assert A.shape == (8, 8)
        np.testing.assert_array_equal(np.diag(A), np.full(8, 6.0))
        # each vertex of the 2x2x2 cube has exactly 3 neighbors
        assert np.all((A != 0).sum(axis=1) == 4)
        assert A[0, 1] == -1.0 and A[0, 2] == -1.0 and A[0, 4] == -1.0

    def test_x_fastest_ordering(self):
        nx, ny, nz = 3, 4, 5
        A = laplacian3d(ProblemSpec(nx, ny, nz)).toarray()
        # neighbors of grid point (1,1,1): +-1 in x, +-nx in y, +-nx*ny in z
        i = 1 + nx * (1 + ny * 1)
        for j in (i - 1, i + 1, i - nx, i + nx, i - nx * ny, i + nx * ny):
            assert A[i, j] == -1.0

    def test_no_periodic_wraparound(self):
        A = laplacian3d(ProblemSpec(3, 3, 3)).toarray()
        assert A[2, 3] == 0.0  # end of an x-line does not couple to the next line

    def test_shift_subtracts_diagonal(self):
        A0 = laplacian3d(ProblemSpec(4, 4, 4))
        A1 = laplacian3d(ProblemSpec(4, 4, 4, shift=0.3))
        diff = (A0 - A1).toarray()
        np.testing.assert_allclose(diff, 0.3 * np.eye(64), atol=1e-15)

    def test_symmetric(self):
        A = laplacian3d(ProblemSpec(5, 4, 3, shift=0.1))
        assert abs(A - A.T).max() == 0.0

    def test_eigenvalues_analytic(self):
        # stencil eigenvalues are sums of per-axis 1D eigenvalues
        spec = ProblemSpec(4, 3, 2, shift=0.05)
        A = laplacian3d(spec).toarray()
        eig = np.sort(np.linalg.eigvalsh(A))
        cx = 2 - 2 * np.cos(np.arange(1, 5) * np.pi / 5)
        cy = 2 - 2 * np.cos(np.arange(1, 4) * np.pi / 4)
        cz = 2 - 2 * np.cos(np.arange(1, 3) * np.pi / 3)
        ref = np.sort((cx[:, None, None] + cy[None, :, None]
                       + cz[None, None, :]).ravel() - 0.05)
        np.testing.assert_allclose(eig, ref, atol=1e-12)

    def test_rejects_convection(self):
        with pytest.raises(ValueError):
            laplacian3d(ProblemSpec(2, 2, 2, convection=(1.0, 0.0, 0.0)))

    def test_bad_extent(self):
        with pytest.raises(ValueError):
            ProblemSpec(0, 2, 2)


class TestConvdiff3d:
    def test_zero_convection_is_laplacian(self):
        a = convdiff3d(ProblemSpec(3, 3, 3, shift=0.2))
        b = laplacian3d(ProblemSpec(3, 3, 3, shift=0.2))
        assert (a != b).nnz == 0
        np.testing.assert_array_equal(a.data, b.data)

    def test_centered_convection_coefficients(self):
        spec = ProblemSpec(4, 4, 4, convection=(2.0, 0.0, 0.0))
        A = convdiff3d(spec).toarray()
        t = spec.h * 2.0 / 2.0
        assert A[0, 1] == pytest.approx(-1.0 - t)
        assert A[1, 0] == pytest.approx(-1.0 + t)
        # y and z couplings stay symmetric
        assert A[0, 4] == -1.0 and A[4, 0] == -1.0

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(extents=st.tuples(*[st.integers(1, 6)] * 3),
           shift=st.one_of(st.sampled_from([0.0, 6.0]), st.floats(-1.0, 8.0)),
           convection=st.tuples(*[st.one_of(st.sampled_from([0.0, 1e3, -1e3]),
                                            st.floats(-1e3, 1e3))] * 3))
    def test_kronsum_gives_the_three_kron_bytes(self, extents, shift, convection):
        spec = ProblemSpec(*extents, shift=shift, convection=convection)
        A, want = convdiff3d(spec), three_kron(spec)
        # scipy's kron stores the zeros of a factor it takes as dense (here on
        # some grids with nx <= 5 and ny <= 2); the kronsum stores no zero
        assert not np.any(A.data == 0)
        want.eliminate_zeros()
        for part in ("indptr", "indices", "data"):
            got, ref = getattr(A, part), getattr(want, part)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes(), part

    def test_convection_breaks_symmetry_only(self):
        spec = ProblemSpec(3, 3, 3, convection=(1.0, 2.0, 3.0))
        A = convdiff3d(spec).toarray()
        sym = (A + A.T) / 2
        ref = laplacian3d(ProblemSpec(3, 3, 3)).toarray()
        np.testing.assert_allclose(sym, ref, atol=1e-14)


class TestNegativeEigCount:
    @pytest.mark.parametrize("spec", [
        ProblemSpec(4, 4, 4, shift=0.5),
        ProblemSpec(6, 5, 4, shift=0.8),
        ProblemSpec(8, 8, 8, shift=0.3),
    ])
    def test_matches_dense_count(self, spec):
        A = laplacian3d(spec).toarray()
        dense_count = int(np.count_nonzero(np.linalg.eigvalsh(A) < 0))
        assert count_negative_eigs_analytic(spec) == dense_count

    def test_no_shift_positive_definite(self):
        assert count_negative_eigs_analytic(ProblemSpec(10, 10, 10)) == 0

    def test_rejects_convection(self):
        with pytest.raises(ValueError):
            count_negative_eigs_analytic(ProblemSpec(2, 2, 2, convection=(1, 0, 0)))


class TestParseProblem:
    def test_lap3d(self):
        spec, A = parse_problem("lap3d:3,4,5,0.1")
        assert (spec.nx, spec.ny, spec.nz, spec.shift) == (3, 4, 5, 0.1)
        assert A.shape == (60, 60)

    def test_lap3d_is_laplacian3d(self):
        spec, A = parse_problem("lap3d:3,4,5,0.1")
        assert spec == ProblemSpec(3, 4, 5, shift=0.1)
        ref = laplacian3d(spec)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(A, name), getattr(ref, name))

    def test_convdiff3d(self):
        spec, A = parse_problem("convdiff3d:3,3,3,0.0,1.0,2.0,3.0")
        assert spec.convection == (1.0, 2.0, 3.0)
        ref = convdiff3d(spec)
        assert (A != ref).nnz == 0

    @pytest.mark.parametrize("text", [
        "lap3d:3,4",            # too few fields
        "lap3d",                # no args
        "unknown:1,1,1,0",      # bad kind
        "lap3d:a,b,c,d",        # non-numeric
        "lap3d:4,4,4,nan",      # non-finite shift
        "convdiff3d:3,3,3,0,inf,0,0",   # non-finite convection
        "lap3d:2.7,3,3,0",      # non-integer extent
        "convdiff3d:3,3,3.5,0,1,1,1",
    ])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            parse_problem(text)

    def test_integral_float_extent(self):
        spec, A = parse_problem("lap3d:2.0,3,3,0")
        assert (spec.nx, A.shape[0]) == (2, 18)

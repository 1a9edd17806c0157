import numpy as np
import pytest
import scipy.sparse as sp

from pslr.diagnostics import (
    DENSE_GUARD,
    delta_bound,
    dense_schur,
    spectrum,
    spectrum_csv,
    verify_bound,
)
from pslr.lowrank import arnoldi, build_correction
from pslr.partition import classify_and_reorder
from pslr.problems import ProblemSpec, laplacian3d

from conftest import lap1d, partitioned, random_sparse


class TestDenseSchur:
    def test_lap6_schur_by_hand(self, lap6_system):
        # path 0-1-2-3-4-5, interiors {0,1,4,5}, interfaces {2,3}:
        # B = tridiag on the interiors, C = [[2,-1],[-1,2]],
        # S = C - F B^{-1} E with the only couplings 1-2 and 3-4
        _, ps = lap6_system
        oracle = dense_schur(ps)
        Bd = np.array([[2., -1, 0, 0], [-1, 2, 0, 0], [0, 0, 2, -1], [0, 0, -1, 2]])
        np.testing.assert_array_equal(oracle.B, Bd)
        np.testing.assert_array_equal(oracle.C, [[2., -1], [-1, 2]])
        S_ref = oracle.C - oracle.F @ np.linalg.solve(Bd, oracle.E)
        np.testing.assert_allclose(oracle.S, S_ref, atol=1e-14)
        # C0 is the per-subdomain diagonal part: the off-diagonal -1 is cross
        np.testing.assert_array_equal(oracle.C0, [[2., 0], [0, 2]])
        np.testing.assert_array_equal(oracle.Cg, [[0., -1], [-1, 0]])

    def test_splitting_identity(self, lap3d_small_system):
        _, ps = lap3d_small_system
        oracle = dense_schur(ps)
        np.testing.assert_allclose(oracle.C0 - oracle.Es, oracle.S, atol=1e-12)
        np.testing.assert_allclose(oracle.C0 + oracle.Cg, oracle.C, atol=1e-15)

    def test_series_converges_to_inverse(self, lap3d_small_system):
        # rho(C0^{-1} Es) < 1 here, so the series tends to S^{-1}
        _, ps = lap3d_small_system
        oracle = dense_schur(ps)
        Sinv = np.linalg.inv(oracle.S)
        err = [np.linalg.norm(oracle.series_matrix(m) - Sinv, "fro") for m in (0, 2, 8)]
        assert err[0] > err[1] > err[2]

    def test_err_matrix_consistent_with_series(self, lap3d_small_system):
        # S * series(m) = I - Err(m)
        _, ps = lap3d_small_system
        oracle = dense_schur(ps)
        for m in (0, 1, 3):
            lhs = oracle.S @ oracle.series_matrix(m)
            rhs = np.eye(oracle.q) - oracle.err_matrix(m)
            np.testing.assert_allclose(lhs, rhs, atol=1e-11)

    def test_negative_series_degree_rejected(self, lap3d_small_system):
        # -1 would give series_matrix(0) and the identity for Err, so a bound for Err = I
        _, ps = lap3d_small_system
        oracle = dense_schur(ps)
        V, H = np.zeros((oracle.q, 0)), np.zeros((0, 0))
        for call in (lambda: oracle.series_matrix(-1), lambda: oracle.err_matrix(-1),
                     lambda: oracle.sapp_inv(-1, V, H), lambda: delta_bound(oracle, -1, V, H),
                     lambda: verify_bound(oracle, -1, V, H, H)):
            with pytest.raises(ValueError, match="series degree m must be >= 0, got -1"):
                call()

    def test_no_interior(self):
        # 2x2x2 grid in four pairs: every vertex couples to another pair, so p = 0
        ps = partitioned(laplacian3d(ProblemSpec(2, 2, 2)), 4)
        assert (ps.p, ps.q) == (0, 8)
        oracle = dense_schur(ps)
        C = ps.C.toarray()
        C0 = np.zeros((8, 8))
        for lo in range(0, 8, 2):
            C0[lo:lo + 2, lo:lo + 2] = C[lo:lo + 2, lo:lo + 2]
        assert oracle.B.shape == (0, 0)
        np.testing.assert_array_equal(oracle.S, C)
        np.testing.assert_array_equal(oracle.C0, C0)
        np.testing.assert_array_equal(oracle.Es, C0 - C)
        np.testing.assert_array_equal(oracle.Cg, C - C0)
        np.testing.assert_allclose(oracle.C0inv @ C0, np.eye(8), atol=1e-15)

    def test_guard(self):
        A = lap1d(DENSE_GUARD + 1)
        ps = partitioned(A, 2)
        with pytest.raises(ValueError):
            dense_schur(ps)

    def test_singular_B_raises(self):
        # vertices 0 and 1 are the interiors, so B is the singular [[1, 1], [1, 1]]
        A = sp.csr_matrix(np.array([
            [1., 1, 0, 1, 0],
            [1, 1, 0, 0, 0],
            [0, 0, 1, 1, 0],
            [1, 0, 1, 5, 1],
            [0, 0, 0, 1, 1],
        ]))
        ps = classify_and_reorder(A, np.array([0, 0, 1, 0, 1]))
        np.testing.assert_array_equal(ps.B.toarray(), [[1., 1], [1, 1]])
        with pytest.raises(np.linalg.LinAlgError, match="interior block B is singular"):
            dense_schur(ps)


class TestSpectrum:
    def test_sorted_by_modulus(self):
        rep = spectrum(np.diag([1.0, -3.0, 2.0]))
        np.testing.assert_allclose(np.abs(rep.eigenvalues), [3.0, 2.0, 1.0])
        assert rep.spectral_radius == 3.0

    def test_empty(self):
        rep = spectrum(np.zeros((0, 0)))
        assert rep.eigenvalues.size == 0 and rep.spectral_radius == 0.0

    def test_counts(self):
        rep = spectrum(np.diag([0.5, -0.2, -4.0, 1.5]))
        assert rep.num_modulus_gt_one == 2
        assert rep.num_negative_real == 2

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            spectrum(np.zeros((2, 3)))

    def test_sparse_reads_as_its_dense_array(self):
        A = random_sparse(6, density=0.4, seed=1)
        assert (A != A.T).nnz
        sparse, dense = spectrum(A), spectrum(A.toarray())
        np.testing.assert_array_equal(sparse.eigenvalues, dense.eigenvalues)
        assert (sparse.spectral_radius, sparse.num_modulus_gt_one, sparse.num_negative_real) == \
            (dense.spectral_radius, dense.num_modulus_gt_one, dense.num_negative_real)
        # the guard comes first, so an oversized sparse matrix is never made dense
        with pytest.raises(ValueError, match=f"dimension {DENSE_GUARD + 1} exceeds the dense guard"):
            spectrum(sp.identity(DENSE_GUARD + 1, format="csr"))

    def test_csv_roundtrip(self):
        rep = spectrum(np.array([[0.0, -1.0], [1.0, 0.0]]))  # eigenvalues +-i
        rows = spectrum_csv(rep).strip().splitlines()
        assert rows[0] == "re,im"
        vals = sorted(float(r.split(",")[1]) for r in rows[1:])
        assert vals == [-1.0, 1.0]


@pytest.fixture(scope="module")
def case():
    from pslr.schur import build_schur_context, apply_Err
    ps = partitioned(lap1d(120), 4)
    ctx = build_schur_context(ps, droptol=0.0)
    oracle = dense_schur(ps)
    m = 2
    V, H, r = arnoldi(lambda v: apply_Err(ctx, m, v), ps.q, min(4, ps.q), seed=0)
    return oracle, m, V, H, build_correction(V, H)


class TestBound:

    def test_residual_identity_exact(self, case):
        oracle, m, V, H, corr = case
        out = verify_bound(oracle, m, V, H, corr.G)
        assert out["identity_holds"], out
        assert out["identity_residual"] <= 1e-9

    def test_bound_dominates_error(self, case):
        oracle, m, V, H, corr = case
        out = verify_bound(oracle, m, V, H, corr.G)
        assert out["bound_holds"], out
        assert out["relative_error"] <= out["bound"] + 1e-9
        assert out["bound"] == pytest.approx(delta_bound(oracle, m, V, H))

    def test_preconditioned_spectrum_shift(self, case):
        # eig(S_app^{-1} S) = 1 - eig(Z^{-1} X)
        oracle, m, V, H, corr = case
        Sapp = oracle.sapp_inv(m, V, corr.G)
        VHVt = V @ H @ V.T
        X = oracle.err_matrix(m) - VHVt
        Z = np.eye(oracle.q) - VHVt
        e_prec = np.sort_complex(np.linalg.eigvals(Sapp @ oracle.S))
        e_shift = np.sort_complex(1.0 - np.linalg.eigvals(np.linalg.solve(Z, X)))
        np.testing.assert_allclose(e_prec, e_shift, atol=1e-9)

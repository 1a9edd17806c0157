import re

import numpy as np
import pytest

from pslr.lowrank import (
    CorrectionSingularError,
    apply_correction,
    arnoldi,
    build_correction,
)


def _sym_op(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    M = 0.1 * (M + M.T) / 2
    return M


class TestArnoldi:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_orthonormal_basis(self, seed):
        M = _sym_op(50, seed)
        V, H, r = arnoldi(lambda v: M @ v, 50, 12, seed=seed)
        assert r == 12
        gram = V.T @ V
        assert np.max(np.abs(gram - np.eye(r))) <= 1e-12

    def test_hessenberg_structure(self):
        M = _sym_op(40, 2)
        V, H, r = arnoldi(lambda v: M @ v, 40, 10, seed=0)
        assert np.max(np.abs(np.tril(H, -2))) == 0.0

    def test_projection_identity(self):
        # H is the orthogonal projection of the operator onto span(V)
        M = _sym_op(40, 3)
        V, H, r = arnoldi(lambda v: M @ v, 40, 10, seed=0)
        np.testing.assert_allclose(V.T @ (M @ V), H, atol=1e-11)

    def test_recurrence(self):
        # op V = V H + residual supported on the last column only
        M = _sym_op(40, 4)
        V, H, r = arnoldi(lambda v: M @ v, 40, 8, seed=0)
        R = M @ V - V @ H
        assert np.max(np.linalg.norm(R[:, :-1], axis=0)) <= 1e-11
        # the last-column residual is orthogonal to the basis
        assert np.max(np.abs(V.T @ R[:, -1])) <= 1e-11

    def test_happy_breakdown_on_low_rank_operator(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(30)
        w = rng.standard_normal(30)
        M = np.outer(u, w)  # rank one
        V, H, r = arnoldi(lambda v: M @ v, 30, 10, seed=0)
        assert r <= 2
        assert V.shape == (30, r) and H.shape == (r, r)

    def test_full_dimension_reproduces_spectrum(self):
        M = _sym_op(12, 6)
        V, H, r = arnoldi(lambda v: M @ v, 12, 12, seed=0)
        if r == 12:  # no breakdown: H is similar to M
            e0 = np.sort(np.linalg.eigvalsh(M))
            e1 = np.sort(np.linalg.eigvals(H).real)
            np.testing.assert_allclose(e1, e0, atol=1e-9)

    def test_rank_zero(self):
        V, H, r = arnoldi(lambda v: v, 10, 0, seed=0)
        assert r == 0 and V.shape == (10, 0) and H.shape == (0, 0)

    def test_rank_clamped_to_dimension(self):
        M = _sym_op(5, 7)
        V, H, r = arnoldi(lambda v: M @ v, 5, 50, seed=0)
        assert r <= 5

    def test_seed_determinism(self):
        M = _sym_op(20, 8)
        V1, H1, _ = arnoldi(lambda v: M @ v, 20, 6, seed=3)
        V2, H2, _ = arnoldi(lambda v: M @ v, 20, 6, seed=3)
        np.testing.assert_array_equal(V1, V2)
        np.testing.assert_array_equal(H1, H2)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            arnoldi(lambda v: v, 5, -1)

    @pytest.mark.parametrize("request_rank", [10, 20])
    def test_breakdown_is_scale_invariant(self, request_rank):
        # SPD of rank 10 (eigenvalues 1..10): the Krylov space from a generic
        # start has dimension 11, so a request of 20 stops short of it
        Q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((40, 40)))
        M = (Q[:, :10] * np.arange(1.0, 11.0)) @ Q[:, :10].T
        ranks = []
        for scale in (1e-20, 1.0, 1e20):
            S = scale * M
            ranks.append(arnoldi(lambda v: S @ v, 40, request_rank, seed=0)[2])
        assert ranks[0] == ranks[1] == ranks[2]
        if request_rank == 10:
            assert ranks[1] == 10
        else:
            assert 11 <= ranks[1] <= 12

    @pytest.mark.parametrize("qseed", [0, 1, 2])
    def test_breakdown_at_the_krylov_dimension(self, qseed):
        # rank 10, so the Krylov space has dimension 11: at step 11 the
        # remainder is 2e-13 to 3e-12 of the largest ||op(v_i)||, rounding
        # noise that must not become a twelfth basis column
        Q, _ = np.linalg.qr(np.random.default_rng(qseed).standard_normal((40, 40)))
        M = (Q[:, :10] * np.arange(1.0, 11.0)) @ Q[:, :10].T
        V, H, r = arnoldi(lambda v: M @ v, 40, 20, seed=0)
        assert r == 11 and V.shape == (40, 11) and H.shape == (11, 11)

    def test_non_finite_operator_raises(self):
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="Arnoldi"):
            arnoldi(lambda v: np.full_like(v, np.inf), 10, 3)


class TestCorrection:
    def test_woodbury_core(self):
        # (I + G)(I - H) = I  by definition of G
        M = _sym_op(30, 9)
        V, H, r = arnoldi(lambda v: M @ v, 30, 8, seed=0)
        lr = build_correction(V, H)
        np.testing.assert_allclose((np.eye(r) + lr.G) @ (np.eye(r) - H),
                                   np.eye(r), atol=1e-12)

    def test_inverts_on_subspace(self):
        # (I + V G V^T)(I - V H V^T) = I  because V has orthonormal columns
        M = _sym_op(30, 10)
        V, H, r = arnoldi(lambda v: M @ v, 30, 8, seed=0)
        lr = build_correction(V, H)
        q = 30
        lhs = (np.eye(q) + V @ lr.G @ V.T) @ (np.eye(q) - V @ H @ V.T)
        np.testing.assert_allclose(lhs, np.eye(q), atol=1e-12)

    def test_apply_matches_dense(self):
        M = _sym_op(25, 11)
        V, H, r = arnoldi(lambda v: M @ v, 25, 6, seed=0)
        lr = build_correction(V, H)
        rng = np.random.default_rng(12)
        y = rng.standard_normal(25)
        ref = y + V @ (lr.G @ (V.T @ y))
        np.testing.assert_allclose(apply_correction(lr, y), ref, atol=1e-14)

    def test_rank_zero_is_identity(self):
        lr = build_correction(np.zeros((7, 0)), np.zeros((0, 0)))
        y = np.arange(7.0)
        np.testing.assert_array_equal(apply_correction(lr, y), y)
        assert lr.nnz == 0

    def test_empty_basis_has_rank_zero(self):
        lr = build_correction(np.zeros((7, 0)), np.zeros((0, 0)))
        assert lr.rank == 0
        assert (lr.V.shape, lr.H.shape, lr.G.shape) == ((7, 0), (0, 0), (0, 0))

    def test_singular_core_raises(self):
        # H with eigenvalue exactly 1 makes I - H singular
        V = np.eye(3)[:, :1]
        H = np.array([[1.0]])
        with pytest.raises(CorrectionSingularError):
            build_correction(V, H)

    def test_non_finite_H_rejected(self):
        # the singular-pivot test is False for a NaN pivot, so it would pass
        H = np.array([[0.5, np.nan], [0.1, 0.2]])
        with pytest.raises(ArithmeticError, match="not finite"):
            build_correction(np.eye(4)[:, :2], H)

    def test_nonsquare_H_rejected(self):
        with pytest.raises(ValueError):
            build_correction(np.zeros((4, 2)), np.zeros((3, 2)))

    # a V with other columns than H would fail only when the correction is applied
    @pytest.mark.parametrize("V", [np.zeros((4, 3)), np.zeros(4), np.zeros((4, 2, 1))],
                             ids=["3-columns", "vector", "3-D"])
    def test_V_without_the_columns_of_H_rejected(self, V):
        want = f"V must have the 2 columns of H, got shape {V.shape}"
        with pytest.raises(ValueError, match=re.escape(want)):
            build_correction(V, np.zeros((2, 2)))

    def test_storage_accounting(self):
        M = _sym_op(20, 13)
        V, H, r = arnoldi(lambda v: M @ v, 20, 5, seed=0)
        lr = build_correction(V, H)
        assert lr.nnz == 20 * r + r * r

    def test_length_mismatch_rejected(self):
        M = _sym_op(10, 14)
        V, H, r = arnoldi(lambda v: M @ v, 10, 3, seed=0)
        lr = build_correction(V, H)
        with pytest.raises(ValueError):
            apply_correction(lr, np.ones(11))

import numpy as np
import pytest
import scipy.sparse as sp

from pslr.ilu import block_solve, factor_blocks, ilut

from conftest import lap1d, random_sparse


class TestIlut:
    def test_droptol_zero_is_exact_lu(self):
        A = random_sparse(40, density=0.2, seed=0)
        f = ilut(A, droptol=0.0)
        assert f.pivot_repairs == 0
        residual = (f.L @ f.U - A).toarray()
        assert np.max(np.abs(residual)) <= 1e-12 * abs(A).max()

    def test_exact_lu_matches_scipy(self):
        # no-pivoting LU of a diagonally dominant matrix: unique, so the
        # factors themselves must match a dense Doolittle elimination
        A = lap1d(8)
        f = ilut(A, droptol=0.0)
        dense = A.toarray()
        n = 8
        for k in range(n - 1):
            for i in range(k + 1, n):
                dense[i, k] /= dense[k, k]
                dense[i, k + 1:] -= dense[i, k] * dense[k, k + 1:]
        L_ref = np.tril(dense, -1) + np.eye(n)
        U_ref = np.triu(dense)
        np.testing.assert_allclose(f.L.toarray(), L_ref, atol=1e-13)
        np.testing.assert_allclose(f.U.toarray(), U_ref, atol=1e-13)

    def test_unit_lower_diagonal(self):
        f = ilut(random_sparse(25, seed=1), droptol=1e-2)
        np.testing.assert_array_equal(f.L.diagonal(), np.ones(25))

    def test_triangular_structure(self):
        f = ilut(random_sparse(30, seed=2), droptol=1e-3)
        assert sp.tril(f.L, -1).nnz + 30 == f.L.nnz  # strictly lower + diag
        assert sp.triu(f.U, 0).nnz == f.U.nnz

    def test_diagonal_never_dropped(self):
        f = ilut(random_sparse(30, seed=3), droptol=0.5)
        assert np.all(f.U.diagonal() != 0.0)

    def test_larger_droptol_fewer_nonzeros(self):
        A = random_sparse(60, density=0.15, seed=4)
        nnz = [ilut(A, droptol=t).nnz for t in (0.0, 1e-3, 1e-1)]
        assert nnz[0] >= nnz[1] >= nnz[2]

    def test_pivot_repair_counted(self):
        # leading 2x2 antidiagonal gives a zero pivot immediately
        A = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        f = ilut(A, droptol=1e-2)
        assert f.pivot_repairs >= 1
        assert np.all(f.U.diagonal() != 0.0)

    def test_solve_quality_improves_with_droptol(self):
        A = random_sparse(80, density=0.1, seed=6)
        rng = np.random.default_rng(6)
        x = rng.standard_normal(80)
        b = A @ x
        errs = []
        for t in (1e-1, 1e-3, 0.0):
            f = ilut(A, droptol=t)
            y = sp.linalg.spsolve_triangular(f.L, b, lower=True, unit_diagonal=True)
            xhat = sp.linalg.spsolve_triangular(f.U, y, lower=False)
            errs.append(np.linalg.norm(xhat - x) / np.linalg.norm(x))
        assert errs[2] <= 1e-10
        assert errs[2] <= errs[1] <= errs[0] * 1.001

    def test_empty_block(self):
        f = ilut(sp.csr_matrix((0, 0)), droptol=1e-2)
        assert f.n == 0 and f.nnz == 0

    def test_nonsquare_rejected(self):
        with pytest.raises(ValueError):
            ilut(sp.csr_matrix((2, 3)))

    def test_negative_droptol_rejected(self):
        with pytest.raises(ValueError):
            ilut(sp.identity(2, format="csr"), droptol=-1.0)


class TestBlockFactors:
    def test_blocks_factored_independently(self):
        A1, A2 = random_sparse(10, seed=7), random_sparse(12, seed=8)
        A = sp.block_diag([A1, A2], format="csr")
        bf = factor_blocks(A, [10, 12], droptol=0.0)
        for lo, hi, block in ((0, 10, A1), (10, 22, A2)):
            f = ilut(block, droptol=0.0)
            np.testing.assert_allclose(bf.L[lo:hi, lo:hi].toarray(), f.L.toarray())
            np.testing.assert_allclose(bf.U[lo:hi, lo:hi].toarray(), f.U.toarray())
        assert bf.L[10:, :10].nnz == 0 and bf.U[:10, 10:].nnz == 0

    def test_block_solve_exact(self):
        A1, A2 = random_sparse(9, seed=9), random_sparse(11, seed=10)
        A = sp.block_diag([A1, A2], format="csr")
        bf = factor_blocks(A, [9, 11], droptol=0.0)
        rng = np.random.default_rng(11)
        x = rng.standard_normal(20)
        b = A @ x
        xhat = block_solve(bf, b)
        assert np.linalg.norm(xhat - x) <= 1e-10 * np.linalg.norm(x)

    def test_nnz_is_sum_over_blocks(self):
        A = sp.block_diag([random_sparse(8, seed=12), random_sparse(8, seed=13)],
                          format="csr")
        bf = factor_blocks(A, [8, 8], droptol=1e-2)
        assert bf.nnz == sum(ilut(A[lo:lo + 8, lo:lo + 8], droptol=1e-2).nnz for lo in (0, 8))

    def test_bad_tiling_rejected(self):
        with pytest.raises(ValueError):
            factor_blocks(sp.identity(5, format="csr"), [2, 2])

    def test_rhs_length_checked(self):
        bf = factor_blocks(sp.identity(4, format="csr"), [2, 2])
        with pytest.raises(ValueError):
            block_solve(bf, np.ones(5))

    def test_empty_system(self):
        bf = factor_blocks(sp.csr_matrix((0, 0)), [])
        out = block_solve(bf, np.zeros(0))
        assert out.size == 0

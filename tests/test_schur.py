import numpy as np
import pytest
import scipy.sparse as sp

from pslr.diagnostics import dense_schur
from pslr.ilu import factor_blocks
from pslr.partition import classify_and_reorder
from pslr.problems import parse_problem
from pslr.schur import (
    apply_Err,
    apply_Es,
    apply_S,
    apply_neumann,
    build_schur_context,
    solve_B,
    solve_C0,
)
from pslr.sparse import canonical

from conftest import lap1d, partitioned, random_sparse


def block_diagonal(C, sizes):
    """C's diagonal blocks of the given sizes, sliced out with their stored zeros."""
    offsets = np.concatenate([[0], np.cumsum(sizes)])
    return canonical(sp.block_diag([C[lo:hi, lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])],
                                   format="csr"))


@pytest.fixture(scope="module", params=["lap1d", "lap3d", "random"])
def exact_case(request, lap3d_small_system):
    """A partitioned system with droptol=0 factors plus its dense oracle."""
    if request.param == "lap1d":
        ps = partitioned(lap1d(40), 4)
    elif request.param == "lap3d":
        _, ps = lap3d_small_system
    else:
        ps = partitioned(random_sparse(80, density=0.08, seed=5), 4)
    ctx = build_schur_context(ps, droptol=0.0)
    oracle = dense_schur(ps)
    rng = np.random.default_rng(42)
    v = rng.standard_normal(ps.q)
    return ctx, oracle, v


class TestOperatorsAgainstDenseOracle:
    def test_solve_B(self, exact_case):
        ctx, oracle, _ = exact_case
        rng = np.random.default_rng(0)
        f = rng.standard_normal(ctx.system.p)
        ref = np.linalg.solve(oracle.B, f)
        assert np.linalg.norm(solve_B(ctx, f) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_solve_C0(self, exact_case):
        ctx, oracle, v = exact_case
        ref = oracle.C0inv @ v
        assert np.linalg.norm(solve_C0(ctx, v) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_apply_S(self, exact_case):
        ctx, oracle, v = exact_case
        ref = oracle.S @ v
        assert np.linalg.norm(apply_S(ctx, v) - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)

    def test_apply_Es(self, exact_case):
        ctx, oracle, v = exact_case
        ref = oracle.Es @ v
        assert np.linalg.norm(apply_Es(ctx, v) - ref) <= 1e-10 * max(np.linalg.norm(ref), 1.0)

    def test_splitting_consistency(self, exact_case):
        # S v + Es v must equal C0 v by construction of the splitting
        ctx, oracle, v = exact_case
        lhs = apply_S(ctx, v) + apply_Es(ctx, v)
        rhs = block_diagonal(ctx.system.C, ctx.system.interface_sizes) @ v
        assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_apply_neumann(self, exact_case, m):
        ctx, oracle, v = exact_case
        ref = oracle.series_matrix(m) @ v
        got = apply_neumann(ctx, m, v)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_apply_Err(self, exact_case, m):
        ctx, oracle, v = exact_case
        ref = oracle.err_matrix(m) @ v
        got = apply_Err(ctx, m, v)
        assert np.linalg.norm(got - ref) <= 1e-9 * max(np.linalg.norm(ref), 1e-8)

    @pytest.mark.parametrize("m", [0, 2])
    def test_series_residual_relation(self, exact_case, m):
        # S * series(m) = I - Err(m): apply both sides to a random vector
        ctx, oracle, v = exact_case
        lhs = apply_S(ctx, apply_neumann(ctx, m, v))
        rhs = v - apply_Err(ctx, m, v)
        assert np.linalg.norm(lhs - rhs) <= 1e-9 * np.linalg.norm(v)


class TestContextStructure:
    def test_C0_is_block_diagonal_part(self, lap3d_small_system):
        _, ps = lap3d_small_system
        ctx = build_schur_context(ps, droptol=0.0)
        C = ps.C.toarray()
        block_of = np.repeat(np.arange(ps.num_parts), ps.interface_sizes)
        mask = block_of[:, None] == block_of[None, :]
        np.testing.assert_array_equal(C - ps.Cg.toarray(), np.where(mask, C, 0.0))

    @pytest.mark.parametrize("problem,s,droptol", [
        ("lap3d:8,8,8,0.3", 6, 1e-2),
        ("lap3d:8,8,8,0.3", 6, 0.0),
        ("convdiff3d:8,8,8,0.5,20,-10,5", 5, 1e-3),
    ])
    def test_C0_factors_are_those_of_the_block_diagonal_part(self, problem, s, droptol):
        # factor_blocks reads only C's diagonal blocks, so factoring C itself
        # gives C0's factors bit for bit
        ps = partitioned(parse_problem(problem)[1], s)
        got = build_schur_context(ps, droptol=droptol).c0_ilu
        want = factor_blocks(block_diagonal(ps.C, ps.interface_sizes), ps.interface_sizes,
                             droptol=droptol)
        assert (got.nnz, got.pivot_repairs) == (want.nnz, want.pivot_repairs)
        for name in ("L", "U"):
            a, b = getattr(got, name), getattr(want, name)
            for attr in ("indptr", "indices", "data"):
                np.testing.assert_array_equal(getattr(a, attr), getattr(b, attr))

    def test_split_keeps_no_stored_zero_off_the_blocks(self):
        # the stored zeros at (0, 2) and (2, 0) couple the two subdomains, so
        # all four vertices are interface vertices and C is A; the zeros lie
        # off C's two 2x2 blocks, C - C0 drops them, and so must Cg
        A = sp.csr_matrix(([1.0, 0.0, 2.0, 0.0, 3.0, 4.0],
                           ([0, 0, 1, 2, 2, 3], [1, 2, 3, 0, 2, 3])), shape=(4, 4))
        ps = classify_and_reorder(A, np.array([0, 0, 1, 1]))
        C, Cg = ps.C, ps.Cg
        assert ps.p == 0 and (C != A).nnz == 0
        C0 = block_diagonal(C, [2, 2])
        want = canonical(C - C0)
        for name in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(Cg, name), getattr(want, name))
        assert Cg.nnz == 1 and C0.nnz == 3

    def test_vector_length_checked(self, lap3d_small_system):
        _, ps = lap3d_small_system
        ctx = build_schur_context(ps, droptol=0.0)
        with pytest.raises(ValueError):
            apply_S(ctx, np.ones(ctx.q + 1))

    def test_negative_degree_rejected(self, lap3d_small_system):
        _, ps = lap3d_small_system
        ctx = build_schur_context(ps, droptol=0.0)
        with pytest.raises(ValueError):
            apply_neumann(ctx, -1, np.ones(ctx.q))
        with pytest.raises(ValueError):
            apply_Err(ctx, -1, np.ones(ctx.q))

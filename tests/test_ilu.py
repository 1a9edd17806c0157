import heapq
import os
import subprocess
import sys
import textwrap
import time
from functools import partial

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import pslr.ilu
from pslr.ilu import IluFactor, _prepare, _shares, block_solve, factor_blocks, ilut
from pslr.problems import parse_problem
from pslr.sparse import canonical

from conftest import child_env, lap1d, partitioned, random_sparse, sparse_matrices


def _reference_ilut(block, droptol: float = 1e-2) -> IluFactor:
    """The numpy-per-pivot ILUT that `ilut` replaced, kept as its oracle.

    Only its pivot repair at droptol 0 has changed since, with `ilut`'s."""
    A = canonical(block)
    if A.shape[0] != A.shape[1]:
        raise ValueError("block must be square")
    n = A.shape[0]
    if droptol < 0:
        raise ValueError("droptol must be >= 0")
    if n == 0:
        empty = sp.csr_matrix((0, 0))
        return IluFactor(L=empty, U=empty.copy(), n=0, pivot_repairs=0)

    row_norms = np.sqrt(np.asarray(A.multiply(A).sum(axis=1)).ravel())

    # U rows kept as growing arrays for the elimination updates
    u_cols: list[np.ndarray] = [None] * n
    u_vals: list[np.ndarray] = [None] * n
    u_diag = np.empty(n)
    l_rows_i: list[int] = []
    l_rows_j: list[int] = []
    l_rows_v: list[float] = []

    w = np.zeros(n)
    touched_flag = np.zeros(n, dtype=bool)
    pivot_repairs = 0

    for i in range(n):
        cols = A.indices[A.indptr[i]:A.indptr[i + 1]]
        vals = A.data[A.indptr[i]:A.indptr[i + 1]]
        w[cols] = vals
        touched_flag[cols] = True
        touched = list(cols)
        tau = droptol * row_norms[i]

        heap = [int(c) for c in cols if c < i]
        heapq.heapify(heap)
        l_keep = []
        while heap:
            k = heapq.heappop(heap)
            factor = w[k] / u_diag[k]
            w[k] = 0.0
            if abs(factor) < tau:
                continue
            l_keep.append((k, factor))
            uc = u_cols[k]
            uv = u_vals[k]
            if uc.size:
                fresh = uc[~touched_flag[uc]]
                if fresh.size:
                    touched_flag[fresh] = True
                    touched.extend(int(c) for c in fresh)
                    for c in fresh:
                        if c < i:
                            heapq.heappush(heap, int(c))
                w[uc] -= factor * uv
        # diagonal pivot; repair if zero or absent
        diag = w[i]
        if diag == 0.0:
            base = row_norms[i] if row_norms[i] > 0 else 1.0
            repl = droptol * base
            if repl == 0.0:
                repl = 1e-4 * base
            diag = repl  # original pivot was zero/absent: sign taken as +
            pivot_repairs += 1
        upper = [(j, w[j]) for j in touched if j > i and abs(w[j]) >= tau and w[j] != 0.0]

        l_keep.sort()
        upper.sort()
        for j, v in l_keep:
            l_rows_i.append(i)
            l_rows_j.append(j)
            l_rows_v.append(v)
        u_cols[i] = np.array([i] + [j for j, _ in upper], dtype=np.int64)
        u_vals[i] = np.array([diag] + [v for _, v in upper])
        u_diag[i] = diag

        for j in touched:
            w[j] = 0.0
            touched_flag[j] = False

    # assemble CSR factors
    l_rows_i.extend(range(n))
    l_rows_j.extend(range(n))
    l_rows_v.extend([1.0] * n)
    L = sp.csr_matrix((l_rows_v, (l_rows_i, l_rows_j)), shape=(n, n))
    u_i = np.repeat(np.arange(n), [c.size for c in u_cols])
    u_j = np.concatenate(u_cols)
    u_v = np.concatenate(u_vals)
    U = sp.csr_matrix((u_v, (u_i, u_j)), shape=(n, n))
    L.sort_indices()
    U.sort_indices()
    return IluFactor(L=L, U=U, n=n, pivot_repairs=pivot_repairs)


def _assert_same_csr(M, R):
    """Exactly the same CSR arrays, to the bit."""
    np.testing.assert_array_equal(M.indptr, R.indptr)
    np.testing.assert_array_equal(M.indices, R.indices)
    assert M.data.dtype == R.data.dtype == np.float64
    np.testing.assert_array_equal(M.data.view(np.int64), R.data.view(np.int64))


def _assert_same_factors(f, ref):
    """Exactly the same CSR factors and the same repair count."""
    _assert_same_csr(f.L, ref.L)
    _assert_same_csr(f.U, ref.U)
    assert f.pivot_repairs == ref.pivot_repairs


def _oracle_solve(bf, rhs):
    """L U y = rhs through scipy's generic triangular solver."""
    y = sp.linalg.spsolve_triangular(bf.L, rhs, lower=True, unit_diagonal=True)
    return sp.linalg.spsolve_triangular(bf.U, y, lower=False)


def _zero_pivot_block(n, seed):
    """Random block whose first pivot is zero, so ILUT must repair it."""
    A = random_sparse(n, density=0.2, seed=seed).tolil()
    A[0, 0] = 0.0
    return A.tocsr()


# (blocks, droptol): the zero-pivot block is paired with positive droptols,
# where its repaired pivot is droptol * ||row|| and the factors stay well
# conditioned enough for two solvers to agree to 1e-13
_BLOCK_CASES = [
    ([random_sparse(30, density=0.2, seed=20), random_sparse(17, seed=21)], 0.0),
    ([random_sparse(40, density=0.15, seed=22), lap1d(25)], 1e-3),
    ([_zero_pivot_block(24, 23), random_sparse(31, density=0.2, seed=24)], 1e-2),
    ([random_sparse(12, seed=25), _zero_pivot_block(36, 26), random_sparse(9, seed=27)], 1e-3),
]


def _mostly_bare_block(n, core, seed):
    """n x n block whose rows outside a scattered random `core` x `core`
    submatrix hold only a diagonal entry, so they factor to bare pivots."""
    rng = np.random.default_rng(seed)
    idx = np.sort(rng.choice(n, core, replace=False))
    bare = np.setdiff1d(np.arange(n), idx)
    C = random_sparse(core, density=0.3, seed=seed).tocoo()
    rows = np.concatenate([idx[C.row], bare])
    cols = np.concatenate([idx[C.col], bare])
    vals = np.concatenate([C.data, rng.uniform(1.0, 2.0, bare.size) * rng.choice([-1, 1], bare.size)])
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _chain_block(n, core):
    """n x n block: a 1D Laplacian on the first `core` rows, 3 on the diagonal
    after them.  Its factors are bidiagonal on the chain, so each column of L
    and U stores at most one entry off the diagonal."""
    return sp.block_diag([lap1d(core), 3.0 * sp.identity(n - core)], format="csr")


# blocks whose factors are mostly bare pivots, so their SuperLU objects are
# prepared over the coupled rows only
_SPLIT_CASES = [
    ([_mostly_bare_block(40, 12, 30), _mostly_bare_block(50, 15, 31)], 0.0),
    ([_mostly_bare_block(40, 12, 32), _mostly_bare_block(50, 15, 33)], 1e-2),
    ([_chain_block(30, 9), _chain_block(25, 8)], 0.0),
]


def _full_objects(blocks, droptol):
    """SuperLU objects over every row, prepared from the ILUT factors the way
    they were before bare pivots were split off; returns (lower, upper, L, U)."""
    factors = [ilut(blk, droptol) for blk in blocks]
    L = sp.block_diag([f.L for f in factors], format="csr")
    U = sp.block_diag([f.U for f in factors], format="csc")
    return _prepare(L.T), _prepare(U), L, U


def _factor_case(blocks, droptol):
    A = sp.block_diag(blocks, format="csr")
    return factor_blocks(A, [blk.shape[0] for blk in blocks], droptol=droptol)


_DROPTOL_CHECKS = (ilut, lambda A, droptol: factor_blocks(A, [1] * A.shape[0], droptol=droptol))


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

    # factor_blocks checks droptol in the calling process, before any fork
    def test_negative_droptol_rejected(self, shares):
        forks = shares(2)
        for factor in _DROPTOL_CHECKS:
            with pytest.raises(ValueError, match="droptol must be finite and >= 0, got -1.0"):
                factor(sp.identity(2, format="csr"), droptol=-1.0)
        assert forks == []

    @pytest.mark.parametrize("droptol", [np.nan, np.inf])
    def test_non_finite_droptol_rejected(self, droptol, shares):
        forks = shares(2)
        for factor in _DROPTOL_CHECKS:
            with pytest.raises(ValueError, match="droptol"):
                factor(sp.identity(2, format="csr"), droptol=droptol)
        assert forks == []


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

    @pytest.mark.parametrize("sizes", [[-1, 4], [2, -1, 2], [4, -1]])
    def test_negative_block_size_rejected(self, sizes, shares):
        # the sizes sum to 3, but offsets such as [0, -1, 3] would slice
        # A[0:-1, 0:-1] and A[-1:3, -1:3]: rejected before anything forks
        forks = shares(2)
        with pytest.raises(ValueError, match="block sizes do not tile the matrix"):
            factor_blocks(random_sparse(3, seed=1), sizes, droptol=0.0)
        assert forks == []

    def test_rhs_length_checked(self):
        bf = factor_blocks(sp.identity(4, format="csr"), [2, 2])
        with pytest.raises(ValueError):
            block_solve(bf, np.ones(5))

    def test_empty_system(self):
        bf = factor_blocks(sp.csr_matrix((0, 0)), [])
        rhs = np.zeros(0)
        out = block_solve(bf, rhs)
        assert out.size == 0 and out is not rhs

    @pytest.mark.parametrize("sizes", [[], [0], [0, 0]])
    @pytest.mark.parametrize("shape", [(0,), (0, 3)])
    def test_empty_system_solves_any_rhs(self, sizes, shape):
        bf = factor_blocks(sp.csr_matrix((0, 0)), sizes)
        assert bf.coupled.size == 0 and bf.L.shape == bf.U.shape == (0, 0)
        rhs = np.zeros(shape)
        out = block_solve(bf, rhs)
        assert out.shape == shape and out is not rhs


def _assert_same_block_factors(bf, ref):
    """The same factors to the bit, the same counts and the same bare-row split."""
    _assert_same_csr(bf.L, ref.L)
    _assert_same_csr(bf.U, ref.U)
    assert (bf.n, bf.nnz, bf.pivot_repairs) == (ref.n, ref.nnz, ref.pivot_repairs)
    for a, b in ((bf.coupled, ref.coupled), (bf.diag, ref.diag)):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_LAP10 = partitioned(parse_problem("lap3d:10,10,10,0.3")[1], 8)

# (matrix, block sizes, droptol, whether the factors take the bare-row split)
_FAN_OUT_CASES = {
    "lap3d-B": (_LAP10.B, _LAP10.interior_sizes, 1e-2, False),
    "lap3d-C": (_LAP10.C, _LAP10.interface_sizes, 1e-2, True),
    "random": (sp.block_diag(_BLOCK_CASES[3][0], format="csr"),
               [b.shape[0] for b in _BLOCK_CASES[3][0]], _BLOCK_CASES[3][1], False),
    "mostly-bare": (sp.block_diag(_SPLIT_CASES[0][0] + _SPLIT_CASES[2][0], format="csr"),
                    [b.shape[0] for b in _SPLIT_CASES[0][0] + _SPLIT_CASES[2][0]], 0.0, True),
}


class TestFanOut:
    @pytest.mark.parametrize("case", _FAN_OUT_CASES.values(), ids=_FAN_OUT_CASES.keys())
    @pytest.mark.parametrize("k", [2, 3, 64])   # 64 is more shares than blocks
    def test_any_number_of_shares_gives_the_same_factors(self, case, k, shares):
        A, sizes, droptol, split = case
        forks = shares(1)
        ref = factor_blocks(A, sizes, droptol=droptol)
        assert forks == [] and (ref.coupled is not None) == split
        shares(k)
        _assert_same_block_factors(factor_blocks(A, sizes, droptol=droptol), ref)
        assert 1 <= len(forks) <= min(k, len(sizes)) - 1
        with pytest.raises(ChildProcessError):   # every child is reaped
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("weights,k,want", [
        ([5, 5, 5, 5], 2, [(0, 2), (2, 4)]),
        ([3, 1, 2], 1, [(0, 3)]),
        ([100, 1, 1, 1], 2, [(0, 1), (1, 4)]),
        ([100, 1, 1], 3, [(0, 1), (1, 3)]),   # no share is left empty
        ([0, 0, 0], 2, [(0, 3)]),
    ])
    def test_shares_are_contiguous_and_balanced(self, weights, k, want):
        assert _shares(weights, k) == want

    def test_small_matrix_is_factored_in_the_caller(self, monkeypatch):
        # a fork costs more than the ILUT of fewer than 2 * _SHARE_NNZ entries
        def no_fork():
            raise AssertionError("forked")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(os, "fork", no_fork)
        A, sizes, droptol, _ = _FAN_OUT_CASES["lap3d-B"]
        assert A.nnz < 2 * pslr.ilu._SHARE_NNZ
        factor_blocks(A, sizes, droptol=droptol)

    def test_fork_failure_factors_in_the_caller(self, shares, monkeypatch):
        A, sizes, droptol, _ = _FAN_OUT_CASES["random"]
        shares(3)
        ref = factor_blocks(A, sizes, droptol=droptol)

        def no_process():
            raise BlockingIOError(11, "Resource temporarily unavailable")
        monkeypatch.setattr(os, "fork", no_process)
        _assert_same_block_factors(factor_blocks(A, sizes, droptol=droptol), ref)


def _fail_in(where, action, monkeypatch):
    """Make ILUT run `action` on the first block it meets in the calling
    process (where="parent") or in a forked child (where="child")."""
    parent, real = os.getpid(), pslr.ilu.ilut

    def ilut_or_fail(block, droptol=1e-2):
        if (os.getpid() == parent) == (where == "parent"):
            action()
        return real(block, droptol)
    monkeypatch.setattr(pslr.ilu, "ilut", ilut_or_fail)


class TestFanOutFailures:
    @pytest.mark.parametrize("exc", [ValueError("no pivot in the child's share"),
                                     MemoryError("Unable to allocate 8.00 GiB")])
    def test_child_exception_is_raised_in_the_caller(self, exc, shares, monkeypatch):
        shares(2)

        def fail():
            raise exc
        _fail_in("child", fail, monkeypatch)
        with pytest.raises(type(exc), match=str(exc)):
            _factor_case(*_BLOCK_CASES[3])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_own_failure_kills_the_children(self, shares, monkeypatch):
        shares(2)

        def fail():
            raise ValueError("no pivot in the caller's share")
        _fail_in("parent", fail, monkeypatch)
        _fail_in("child", lambda: time.sleep(60), monkeypatch)
        start = time.monotonic()
        with pytest.raises(ValueError, match="caller's share"):
            _factor_case(*_BLOCK_CASES[3])
        assert time.monotonic() - start < 30
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_child_without_a_result(self, shares, monkeypatch):
        shares(2)
        _fail_in("child", lambda: os._exit(3), monkeypatch)
        with pytest.raises(ChildProcessError, match="exit code 3 and no result"):
            _factor_case(*_BLOCK_CASES[3])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_children_leave_pending_output_alone(self):
        # a child that flushed the stdio buffers it inherited would print the
        # caller's pending output a second time
        script = textwrap.dedent("""
            import os, sys
            import pslr.ilu
            from pslr import PslrConfig, build
            from pslr.problems import parse_problem
            os.sched_getaffinity = lambda pid: {0, 1}
            pslr.ilu._SHARE_NNZ = 1
            fork, forks = os.fork, []
            def counted_fork():
                forks.append(1)
                return fork()
            os.fork = counted_fork
            sys.stdout.write("pending line\\n")   # a pipe: buffered, not flushed
            build(parse_problem("lap3d:12,12,12,0.05")[1], PslrConfig(num_subdomains=8, rank=4))
            print("forks", len(forks))
        """)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), timeout=120)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        assert proc.stdout == "pending line\nforks 2\n"


class TestPreparedSolve:
    @pytest.mark.parametrize("blocks,droptol", _BLOCK_CASES)
    def test_matches_triangular_oracle(self, blocks, droptol):
        bf = _factor_case(blocks, droptol)
        rng = np.random.default_rng(28)
        for _ in range(3):
            rhs = rng.standard_normal(bf.n)
            ref = _oracle_solve(bf, rhs)
            out = block_solve(bf, rhs)
            assert np.linalg.norm(out - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_zero_pivot_cases_are_repaired(self):
        repaired = [_factor_case(blocks, t).pivot_repairs for blocks, t in _BLOCK_CASES]
        assert repaired[0] == repaired[1] == 0
        assert repaired[2] >= 1 and repaired[3] >= 1

    def test_zero_pivot_repair_at_droptol_zero_keeps_u_usable(self):
        # an eps * ||row|| pivot left U numerically singular: the compiled
        # sweeps and the oracle then differed by 1.2e-2 here
        blocks = [random_sparse(30, density=0.3, seed=s, diag_boost=0.5) for s in range(5)]
        A = sp.block_diag(blocks, format="lil")
        A[0, 0] = 0.0
        bf = factor_blocks(A.tocsr(), [30] * 5, droptol=0.0)
        assert bf.pivot_repairs == 1
        for k in range(3):
            rhs = np.random.default_rng(k).standard_normal(bf.n)
            ref = _oracle_solve(bf, rhs)
            assert np.abs(block_solve(bf, rhs) - ref).max() <= 1e-10 * np.abs(ref).max()

    @pytest.mark.parametrize("blocks,droptol", _BLOCK_CASES + _SPLIT_CASES)
    def test_prepared_factors_are_the_ilu_factors(self, blocks, droptol):
        # no reordering and no re-pivoting: SuperLU keeps its input as given,
        # so `upper` holds U as its U and `lower` holds L transposed as its U,
        # both beside an identity, over every row or, split, over the coupled
        # rows only; and the factors read back are the standalone ILUT factors
        split = any(blocks is case[0] for case in _SPLIT_CASES)
        bf = _factor_case(blocks, droptol)
        assert (bf.coupled is not None) == split
        rows = bf.coupled if split else np.arange(bf.n)
        if split:
            assert 2 * rows.size <= bf.n
        ident = np.arange(rows.size)
        eye = sp.identity(rows.size, format="csc")
        for solver in (bf.lower, bf.upper):
            assert solver.shape == (rows.size, rows.size)
            np.testing.assert_array_equal(solver.perm_r, ident)
            np.testing.assert_array_equal(solver.perm_c, ident)
            assert abs(solver.L - eye).max() == 0.0
        factors = [ilut(blk, droptol) for blk in blocks]
        L = sp.block_diag([f.L for f in factors], format="csr")
        U = sp.block_diag([f.U for f in factors], format="csr")
        _assert_same_csr(canonical(bf.lower.U.T), L[rows][:, rows])
        _assert_same_csr(canonical(bf.upper.U), U[rows][:, rows])
        for M, R in ((bf.L, L), (bf.U, U)):
            _assert_same_csr(M, R)

    def test_factors_stored_once(self):
        for case in (_BLOCK_CASES[1], _SPLIT_CASES[0]):
            bf = _factor_case(*case)
            stored = [name for name, value in vars(bf).items() if sp.issparse(value)]
            assert stored == []

    @pytest.mark.parametrize("blocks,droptol", _SPLIT_CASES)
    def test_split_solve(self, blocks, droptol):
        # the coupled rows are exactly those whose L or U row or column
        # stores an entry off the diagonal; the bare rows are rhs / diag to
        # the bit, as the full objects' sweeps give them
        bf = _factor_case(blocks, droptol)
        lower, upper, L, U = _full_objects(blocks, droptol)
        off = [abs(M - sp.diags(M.diagonal())) for M in (L, U)]
        touched = sum(np.diff(M.indptr) + np.bincount(M.indices, minlength=bf.n) for M in off)
        np.testing.assert_array_equal(bf.coupled, np.flatnonzero(touched))
        np.testing.assert_array_equal(bf.diag, U.diagonal())
        bare = np.flatnonzero(touched == 0)
        rng = np.random.default_rng(34)
        for rhs in (rng.standard_normal(bf.n), rng.standard_normal((bf.n, 3))):
            full = upper.solve(lower.solve(rhs, trans="T"))
            out = block_solve(bf, rhs)
            assert out.shape == rhs.shape
            np.testing.assert_array_equal(out[bare], full[bare])
            assert np.abs(out - full).max() <= 1e-13 * np.abs(full).max()
        for _ in range(3):
            rhs = rng.standard_normal(bf.n)
            ref = _oracle_solve(bf, rhs)
            assert np.linalg.norm(block_solve(bf, rhs) - ref) <= 1e-13 * np.linalg.norm(ref)

    def test_split_solve_bit_identical_on_chains(self):
        # each factor column stores at most one entry off the diagonal, so no
        # sweep sums two products and the order SuperLU stores them in cannot
        # matter: the split solve equals the full objects' to the bit.  (With
        # more entries per column, SuperLU's panel search may store a column's
        # entries in another order in the smaller object, and the coupled rows
        # then agree to rounding, as `test_split_solve` checks.)
        blocks, droptol = _SPLIT_CASES[2]
        bf = _factor_case(blocks, droptol)
        lower, upper, _, _ = _full_objects(blocks, droptol)
        rng = np.random.default_rng(35)
        for rhs in (rng.standard_normal(bf.n), rng.standard_normal((bf.n, 4))):
            full = upper.solve(lower.solve(rhs, trans="T"))
            np.testing.assert_array_equal(block_solve(bf, rhs).view(np.int64),
                                          full.view(np.int64))

    @pytest.mark.parametrize("n,split", [(18, True), (17, False)])
    def test_split_takes_at_least_half(self, n, split):
        # a 9-row chain: 9 coupled rows, so 9 bare rows of 18 split and 8 of 17 do not
        bf = factor_blocks(_chain_block(n, 9), [n], droptol=0.0)
        assert (bf.coupled is not None) == split
        assert bf.lower.shape == ((9, 9) if split else (n, n))

    def test_all_diagonal_needs_no_superlu(self):
        # no coupled row: the two SuperLU objects are 0 x 0 and sweep nothing
        d = np.array([2.0, -3.0, 0.5, 7.0, -1.25, 4.0])
        bf = factor_blocks(sp.diags(d, format="csr"), [2, 4], droptol=1e-2)
        assert bf.coupled.size == 0 and bf.lower.shape == bf.upper.shape == (0, 0)
        _assert_same_csr(bf.L, sp.identity(6, format="csr"))
        _assert_same_csr(bf.U, sp.diags(d, format="csr"))
        rhs = np.random.default_rng(36).standard_normal((6, 2))
        np.testing.assert_array_equal(block_solve(bf, rhs), rhs / d[:, None])
        np.testing.assert_array_equal(block_solve(bf, rhs[:, 0]), rhs[:, 0] / d)

    def test_b_like_factors_stay_whole(self):
        # a 3D Laplacian block: its factors couple nearly every row
        A = parse_problem("lap3d:6,6,6,0.0")[1]
        bf = factor_blocks(A, [A.shape[0]], droptol=1e-2)
        assert bf.coupled is None and bf.diag is None
        assert bf.lower.shape == bf.upper.shape == A.shape

    def test_stored_zero_multiplier(self):
        # at droptol 0 the explicit zero A[2, 0] gives a kept multiplier of
        # 0.0: ILUT stores it and counts it, SuperLU drops it from L
        A = sp.csr_matrix(([2.0, 1.0, 0.0, 1.0], ([0, 1, 2, 2], [0, 1, 0, 2])), shape=(3, 3))
        f = ilut(A, 0.0)
        bf = factor_blocks(A, [3], droptol=0.0)
        assert f.L.nnz == 4 and bf.L.nnz == 3
        assert bf.nnz == f.nnz == 7
        np.testing.assert_array_equal(bf.L.toarray(), f.L.toarray())
        _assert_same_csr(bf.U, f.U)
        rhs = np.array([1.0, -2.0, 3.0])
        y = sp.linalg.spsolve_triangular(f.L, rhs, lower=True, unit_diagonal=True)
        np.testing.assert_array_equal(block_solve(bf, rhs),
                                      sp.linalg.spsolve_triangular(f.U, y, lower=False))

    def test_reused_factors_match_fresh_ones(self):
        bf = _factor_case(*_BLOCK_CASES[2])
        rng = np.random.default_rng(29)
        rhs = [rng.standard_normal(bf.n) for _ in range(20)]
        outs = [block_solve(bf, r) for r in rhs]
        for r, out in zip(rhs, outs):
            np.testing.assert_array_equal(out, block_solve(_factor_case(*_BLOCK_CASES[2]), r))
        np.testing.assert_array_equal(block_solve(bf, rhs[0]), outs[0])


def _diagonal_blocks(problem, s):
    """Every B_i and C0_i diagonal block of a partitioned problem."""
    ps = partitioned(parse_problem(problem)[1], s)
    for M, sizes in ((ps.B, ps.interior_sizes), (ps.C, ps.interface_sizes)):
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        for lo, hi in zip(offsets[:-1], offsets[1:]):
            yield M[lo:hi, lo:hi]


# small blocks, for exact comparisons with the reference ILUT
_sparse_blocks = partial(sparse_matrices, 14)


class TestAgainstReference:
    @pytest.mark.parametrize("problem,s,droptol", [
        ("lap3d:10,10,10,0.3", 8, 1e-2),
        ("lap3d:10,10,10,0.3", 8, 0.0),
        ("convdiff3d:10,10,10,0.0,40,40,40", 8, 1e-3),
        ("convdiff3d:10,10,10,0.5,20,-10,5", 6, 1e-2),
    ])
    def test_workload_blocks(self, problem, s, droptol):
        for block in _diagonal_blocks(problem, s):
            _assert_same_factors(ilut(block, droptol), _reference_ilut(block, droptol))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(block=_sparse_blocks(), droptol=st.sampled_from([0.0, 1e-3, 1e-2, 0.5]))
    def test_random_blocks(self, block, droptol):
        # a chain of tiny repaired pivots can overflow: both sides must agree
        # on the resulting inf and nan too, so numpy's warnings are silenced
        with np.errstate(over="ignore", invalid="ignore"):
            ref = _reference_ilut(block, droptol)
        _assert_same_factors(ilut(block, droptol), ref)

    def test_zero_and_absent_pivots(self):
        # row 0 has no diagonal, row 1 an explicit zero one, row 3 is empty
        rows = [0, 0, 1, 1, 1, 2, 2, 2, 4, 4, 4]
        cols = [1, 4, 0, 1, 2, 1, 2, 4, 0, 2, 4]
        vals = [2.0, 1.0, 1.0, 0.0, 3.0, 1.0, 4.0, 1.0, 1.0, 1.0, 2.0]
        A = sp.csr_matrix((vals, (rows, cols)), shape=(5, 5))
        assert A.nnz == 11
        for droptol in (0.0, 1e-3, 1e-2, 0.5):
            f = ilut(A, droptol)
            assert f.pivot_repairs >= 2   # rows 0 and 3 at least
            _assert_same_factors(f, _reference_ilut(A, droptol))

    @pytest.mark.parametrize("droptol", [0.0, 1e-2])
    def test_previous_row_leaves_no_value(self, droptol):
        # row 2 writes columns 2 and 4; row 3 stores neither but reaches
        # both through the fill of U row 0, column 2 left of its diagonal
        # and column 4 right of it; row 4 reaches row 3's fill the same way
        # through U row 1.  Row 5 is empty, so its pivot is repaired although
        # row 4 wrote column 5.  A value or mark left over from the previous
        # row would turn that fill into an update of a stale entry, or that
        # entry into the pivot
        rows = [0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 4, 4, 4]
        cols = [0, 2, 4, 1, 2, 4, 0, 2, 4, 0, 3, 1, 4, 5]
        vals = [4.0, 1.0, 1.0, 4.0, 2.0, 2.0, 1.0, 4.0, 1.0, 1.0, 4.0, 1.0, 4.0, 1.0]
        A = sp.csr_matrix((vals, (rows, cols)), shape=(6, 6))
        f = ilut(A, droptol)
        assert f.pivot_repairs == 1
        assert f.L[3, 2] != 0.0 and f.U[3, 4] != 0.0 and f.L[4, 2] != 0.0
        _assert_same_factors(f, _reference_ilut(A, droptol))
        if droptol == 0.0:
            np.testing.assert_allclose((f.L @ f.U)[:5].toarray(), A[:5].toarray(), atol=1e-15)

    def test_zero_factor_fill_keeps_its_sign(self):
        # at droptol 0 the explicit zero A[2, 0] gives a kept factor of 0.0;
        # its fill at column 1 is 0.0 - 0.0 * 1.0 = +0.0 (not -0.0), and the
        # factor taken from it is stored in L with that sign
        A = sp.csr_matrix(([2.0, 1.0, 1.0, 0.0, 1.0], ([0, 0, 1, 2, 2], [0, 1, 1, 0, 2])),
                          shape=(3, 3))
        f = ilut(A, 0.0)
        assert f.L.nnz == 5 and not np.signbit(f.L.data).any()
        _assert_same_factors(f, _reference_ilut(A, 0.0))


def _skeel(T, x):
    """Componentwise condition of the triangular solve T z = b at z = x:
    || |T^-1| |T| |x| ||_inf / ||x||_inf (Skeel)."""
    T = T.toarray()
    return (np.abs(np.linalg.inv(T)) @ (np.abs(T) @ np.abs(x))).max() / np.abs(x).max()


class TestPreparedRandomBlocks:
    def test_factors_and_solve(self):
        """Derived factors equal the ILUT factors in value, and `block_solve`
        equals the two-`spsolve_triangular` oracle to 1e-12 relative, on 200
        derandomized sets of 1-3 random blocks.

        Ill-conditioned blocks can make the oracle itself inexact. The solve
        comparison skips a case whose rounding bound n * eps * kappa(L, y) *
        kappa(U, x), with Skeel's componentwise condition numbers, exceeds
        the tolerance, or whose oracle solution overflows: 10 of the 200
        here, all at droptol 0.
        """
        eps = np.finfo(np.float64).eps
        skipped = []

        @settings(max_examples=200, deadline=None, derandomize=True)
        @given(blocks=st.lists(_sparse_blocks(), min_size=1, max_size=3),
               droptol=st.sampled_from([0.0, 1e-3, 1e-2, 0.5]))
        def check(blocks, droptol):
            A = sp.block_diag(blocks, format="csr")
            n = A.shape[0]
            rhs = np.random.default_rng(n).standard_normal(n)
            with np.errstate(over="ignore", invalid="ignore"):
                factors = [ilut(blk, droptol) for blk in blocks]
                L = sp.block_diag([f.L for f in factors], format="csr")
                U = sp.block_diag([f.U for f in factors], format="csr")
                bf = factor_blocks(A, [blk.shape[0] for blk in blocks], droptol)
                np.testing.assert_array_equal(bf.L.toarray(), L.toarray())
                np.testing.assert_array_equal(bf.U.toarray(), U.toarray())
                assert bf.nnz == L.nnz + U.nnz
                y = sp.linalg.spsolve_triangular(L, rhs, lower=True, unit_diagonal=True)
                ref = sp.linalg.spsolve_triangular(U, y, lower=False)
                if (not np.isfinite(ref).all()
                        or n * eps * _skeel(L, y) * _skeel(U, ref) > 1e-12):
                    skipped.append(droptol)
                    return
            out = block_solve(bf, rhs)
            # max norms: a finite ref can still overflow a 2-norm
            assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()

        check()
        assert len(skipped) <= 20

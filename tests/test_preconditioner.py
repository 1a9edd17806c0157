import os
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

import pslr.schur as schur
from pslr.diagnostics import dense_schur
from pslr.krylov import gmres
from pslr.preconditioner import PslrConfig, build
from pslr.problems import ProblemSpec, laplacian3d

from conftest import lap1d, random_sparse


class TestConfig:
    def test_defaults_valid(self):
        PslrConfig()

    def test_numpy_integers_accepted(self):
        cfg = PslrConfig(*np.array([4, 2, 3], dtype=np.int64), droptol=0, seed=np.int32(5))
        assert (cfg.num_subdomains, cfg.series_degree, cfg.rank, cfg.seed) == (4, 2, 3, 5)

    @pytest.mark.parametrize("kwargs", [
        {"num_subdomains": 0},
        {"series_degree": -1},
        {"rank": -2},
        {"droptol": -0.1},
        {"droptol": np.nan},
        {"droptol": np.inf},
        {"droptol": True},
        {"droptol": False},
        {"droptol": 1j},
        {"num_subdomains": 2.5},
        {"series_degree": 1.5},
        {"rank": 2.5},
        {"rank": True},
        {"seed": 1.0},
        {"seed": -1},
    ])
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            PslrConfig(**kwargs)
        with pytest.raises(ValueError):   # replace re-validates
            replace(PslrConfig(), **kwargs)


class TestApply:
    def test_matches_dense_application(self):
        """The whole application pipeline against an explicit dense formula."""
        A = laplacian3d(ProblemSpec(5, 5, 5))
        cfg = PslrConfig(num_subdomains=4, series_degree=2, rank=5,
                         droptol=0.0, seed=0)
        P = build(A, cfg)
        oracle = dense_schur(P.system)
        lr = P.correction
        Sapp_inv = oracle.sapp_inv(2, lr.V, lr.G)
        Binv = np.linalg.inv(oracle.B)
        rng = np.random.default_rng(1)
        b = rng.standard_normal(P.system.n)
        f, g = b[:P.system.p], b[P.system.p:]
        y = Sapp_inv @ (g - oracle.F @ (Binv @ f))
        x = Binv @ (f - oracle.E @ y)
        ref = np.concatenate([x, y])
        got = P.apply(b)
        assert np.linalg.norm(got - ref) <= 1e-9 * np.linalg.norm(ref)

    def test_apply_original_consistent(self):
        A = laplacian3d(ProblemSpec(4, 4, 4))
        P = build(A, PslrConfig(num_subdomains=3, droptol=0.0, rank=4))
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.shape[0])
        perm = P.system.perm
        z = P.apply_original(b)
        zp = P.apply(b[perm.inverse])
        np.testing.assert_allclose(z, zp[perm.forward], atol=1e-14)

    def test_exact_configuration_degenerates_gmres(self):
        # droptol 0 + correction rank up to the interface dimension: the
        # preconditioned spectrum collapses to 1, GMRES needs <= 2 steps
        A = random_sparse(60, density=0.1, seed=3)
        P = build(A, PslrConfig(num_subdomains=3, series_degree=1, rank=60,
                                droptol=0.0, seed=0))
        b = A @ np.random.default_rng(4).standard_normal(60)
        x, rep = gmres(lambda v: A @ v, P.apply_original, b, tol=1e-10)
        assert rep.converged and rep.iterations <= 2
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)

    def test_single_subdomain_ilu_only(self):
        A = lap1d(30)
        P = build(A, PslrConfig(num_subdomains=1, droptol=0.0))
        assert P.system.q == 0
        rng = np.random.default_rng(5)
        b = rng.standard_normal(30)
        ref = np.linalg.solve(A.toarray(), b)
        assert np.linalg.norm(P.apply_original(b) - ref) <= 1e-10 * np.linalg.norm(ref)

    def test_accelerates_gmres(self):
        A = laplacian3d(ProblemSpec(8, 8, 8))
        b = A @ np.random.default_rng(6).standard_normal(A.shape[0])
        _, plain = gmres(lambda v: A @ v, None, b)
        P = build(A, PslrConfig(num_subdomains=4))
        _, prec = gmres(lambda v: A @ v, P.apply_original, b)
        assert prec.converged
        assert prec.iterations < plain.iterations

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_matrix_rejected(self, bad):
        A = lap1d(10).tolil()
        A[3, 3] = bad
        A[7, 6] = bad
        with pytest.raises(ValueError, match="2 non-finite entries"):
            build(A.tocsr(), PslrConfig(num_subdomains=2, rank=2))

    def test_matrix_without_entries_rejected(self):
        with pytest.raises(ValueError, match="no stored entries"):
            build(sp.csr_matrix((5, 5)), PslrConfig(num_subdomains=2, rank=2))

    def test_length_checked(self):
        P = build(lap1d(10), PslrConfig(num_subdomains=2, rank=2))
        with pytest.raises(ValueError):
            P.apply(np.ones(11))

    def test_overflowing_apply_raises(self):
        # finite but nearly singular: pivots of 1e-196 and 1e-115 beside entries
        # of 3e8.  It builds with no interface rows, and the B solve overflows
        rows, cols = [0, 0, 1, 2, 5, 5], [0, 5, 1, 2, 2, 5]
        vals = [2.6195489410610631e-196, -3e8, -3e8, 2e8, 3e8, -5.1349076380786693e-115]
        A = sp.csr_matrix((vals, (rows, cols)), shape=(6, 6))
        P = build(A, PslrConfig(num_subdomains=2, series_degree=0, rank=0, droptol=1e-2))
        assert P.system.q == 0
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ArithmeticError, match="preconditioner diverged"):
            P.apply(np.full(6, 0.74))


def _count_block_solves(monkeypatch, ctx):
    """Count the B and C0 block solves made through `pslr.schur`, told apart
    by which of the context's factors each one uses."""
    counts = {"B": 0, "C0": 0}

    def counted(filu, rhs, _solve=schur.block_solve):
        counts["B" if filu is ctx.b_ilu else "C0" if filu is ctx.c0_ilu else "other"] += 1
        return _solve(filu, rhs)
    monkeypatch.setattr(schur, "block_solve", counted)
    return counts


class TestSolveCounts:
    @pytest.mark.parametrize("m", [0, 1, 3])
    def test_per_apply(self, m, monkeypatch):
        A = laplacian3d(ProblemSpec(6, 6, 6, shift=0.1))
        P = build(A, PslrConfig(num_subdomains=4, series_degree=m, rank=4))
        assert P.system.q > 0 and P.correction.rank > 0
        b = np.random.default_rng(3).standard_normal(A.shape[0])
        want = P.apply(b)
        counts = _count_block_solves(monkeypatch, P.ctx)
        for _ in range(3):
            np.testing.assert_array_equal(P.apply(b), want)
        assert counts == {"B": 3 * (2 + m), "C0": 3 * (m + 1)}

    def test_no_interface(self, monkeypatch):
        A = laplacian3d(ProblemSpec(4, 4, 4))
        P = build(A, PslrConfig(num_subdomains=1, series_degree=2, rank=3))
        assert P.system.q == 0
        counts = _count_block_solves(monkeypatch, P.ctx)
        P.apply(np.ones(A.shape[0]))
        assert counts == {"B": 1, "C0": 0}


class TestFillStats:
    def test_accounting_identities(self):
        A = laplacian3d(ProblemSpec(6, 6, 6))
        P = build(A, PslrConfig(num_subdomains=4, rank=8))
        st = P.stats
        assert st.nnz_matrix == A.nnz
        assert st.fill_ilu == pytest.approx(st.nnz_ilu / A.nnz)
        assert st.fill_lowrank == pytest.approx(st.nnz_lowrank / A.nnz)
        assert st.fill_total == pytest.approx(st.fill_ilu + st.fill_lowrank)
        q, r = P.system.q, P.correction.rank
        assert st.nnz_lowrank == q * r + r * r
        assert st.nnz_ilu == P.ctx.b_ilu.nnz + P.ctx.c0_ilu.nnz

    def test_ilu_fill_invariant_under_rank(self):
        A = laplacian3d(ProblemSpec(6, 6, 6))
        fills = set()
        for rank in (0, 4, 12):
            P = build(A, PslrConfig(num_subdomains=4, rank=rank))
            fills.add(P.stats.fill_ilu)
        assert len(fills) == 1

    def test_rank_zero_no_lowrank_storage(self):
        P = build(lap1d(20), PslrConfig(num_subdomains=2, rank=0))
        assert P.stats.fill_lowrank == 0.0
        assert P.stats.fill_total == P.stats.fill_ilu


class TestDeterminism:
    def test_same_config_identical_build(self):
        A = laplacian3d(ProblemSpec(5, 5, 5, shift=0.1))
        cfg = PslrConfig(num_subdomains=4, rank=6, seed=7)
        P1, P2 = build(A, cfg), build(A, cfg)
        np.testing.assert_array_equal(P1.correction.V, P2.correction.V)
        np.testing.assert_array_equal(P1.correction.G, P2.correction.G)
        assert P1.stats.nnz_ilu == P2.stats.nnz_ilu
        rng = np.random.default_rng(8)
        b = rng.standard_normal(A.shape[0])
        np.testing.assert_array_equal(P1.apply_original(b), P2.apply_original(b))


class TestFanOut:
    def test_shares_give_the_same_solve(self, shares):
        A = laplacian3d(ProblemSpec(12, 12, 12, shift=0.05))
        b = A @ np.random.default_rng(9).standard_normal(A.shape[0])
        cfg = PslrConfig(num_subdomains=8, series_degree=2, rank=6)
        runs = []
        for k in (1, 2):
            forks = shares(k)
            P = build(A, cfg)
            _, report = gmres(lambda v: A @ v, P.apply_original, b)
            runs.append((report.iterations, report.final_relres, P.stats.fill_ilu,
                         P.stats.fill_lowrank, P.stats.fill_total, len(forks)))
        assert runs[0][:-1] == runs[1][:-1]
        assert (runs[0][-1], runs[1][-1]) == (0, 2)   # one fork for B, one for C0
        with pytest.raises(ChildProcessError):   # no child outlives the build
            os.waitpid(-1, os.WNOHANG)


class TestRecorrected:
    A = laplacian3d(ProblemSpec(6, 6, 6, shift=0.1))
    CFG = PslrConfig(num_subdomains=4, series_degree=2, rank=8, seed=1)

    @pytest.mark.parametrize("m, rank", [
        (2, 5),    # leading columns of the existing basis
        (2, 8),
        (3, 5),    # new series degree: fresh Arnoldi
        (2, 12),   # rank grows: fresh Arnoldi
    ])
    def test_equals_fresh_build(self, m, rank):
        derived = build(self.A, self.CFG).recorrected(m, rank)
        want = build(self.A, PslrConfig(num_subdomains=4, series_degree=m, rank=rank,
                                        seed=self.CFG.seed))
        np.testing.assert_array_equal(derived.correction.V, want.correction.V)
        np.testing.assert_array_equal(derived.correction.G, want.correction.G)
        assert derived.config.series_degree == m
        assert derived.stats.fill_total == want.stats.fill_total
        b = np.random.default_rng(2).standard_normal(self.A.shape[0])
        np.testing.assert_array_equal(derived.apply_original(b), want.apply_original(b))

    def test_shares_partition_and_factors(self):
        P = build(self.A, self.CFG)
        derived = P.recorrected(4, 3)
        assert derived.system is P.system and derived.ctx is P.ctx
        assert derived.stage_s.order == P.stage_s.order

    def test_stage_seconds(self):
        P = build(self.A, self.CFG)
        st = P.stage_s
        assert min(st) >= 0.0 and st.arnoldi > 0.0
        reused = P.recorrected(self.CFG.series_degree, 3)   # leading columns: no Arnoldi
        assert reused.stage_s[:3] == st[:3]
        fresh = P.recorrected(self.CFG.series_degree + 1, 3)
        assert fresh.stage_s[:2] == st[:2]

    def test_rank_zero_runs_no_arnoldi(self, monkeypatch):
        import pslr.preconditioner as pre
        monkeypatch.setattr(pre, "arnoldi", None)   # any Arnoldi run would fail
        P = build(self.A, replace(self.CFG, rank=0))
        assert P.correction.rank == 0 and P.correction.V.shape == (P.system.q, 0)
        assert P.stage_s.arnoldi == 0.0

    def test_build_time_counts_shared_factors(self, monkeypatch):
        import time
        import pslr.preconditioner as pre

        def slow_factors(*a, _fn=pre.build_schur_context, **k):
            time.sleep(0.2)
            return _fn(*a, **k)
        monkeypatch.setattr(pre, "build_schur_context", slow_factors)
        P = build(self.A, self.CFG)
        for derived in (P.recorrected(2, 3), P.recorrected(3, 3)):
            assert derived.stage_s.factor >= 0.2

    def test_stopped_arnoldi_is_not_rerun(self, monkeypatch):
        import pslr.preconditioner as pre
        P = build(self.A, PslrConfig(num_subdomains=4, series_degree=2, rank=500))
        assert P.correction.rank <= P.system.q < 500
        monkeypatch.setattr(pre, "arnoldi", None)   # any Arnoldi run would fail
        derived = P.recorrected(2, 600)
        np.testing.assert_array_equal(derived.correction.V, P.correction.V)
        assert derived.stats.fill_total == P.stats.fill_total

    def test_invalid_settings_rejected(self):
        with pytest.raises(ValueError):
            build(self.A, self.CFG).recorrected(-1, 3)

import platform
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.sparse as sp

from pslr import krylov
from pslr.krylov import arnoldi_steps, gmres
from pslr.lowrank import arnoldi
from pslr.preconditioner import PslrConfig, build
from pslr.problems import parse_problem

from conftest import child_env, lap1d, random_sparse


ON_LINUX = sys.platform.startswith("linux")

# A child's ru_maxrss starts at the RSS of the process that forked it, the
# test runner here, so the peak is read from VmHWM, which starts afresh at exec.
PEAK_MIB = textwrap.dedent("""
    def peak_mib():
        with open("/proc/self/status") as fh:
            return next(int(l.split()[1]) for l in fh if l.startswith("VmHWM:")) / 1024
""")


def _peak_growth_mib(code):
    """Run `code`, which prints peak_mib() growth, in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", PEAK_MIB + textwrap.dedent(code)],
                         env=child_env(), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return float(out.stdout)


def _dense_spd(n, seed):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


@pytest.fixture(scope="module")
def lap3d_pslr():
    """The reordered lap3d 10^3 matrix (shift 0.3), its PSLR apply (s=4, m=2,
    rank 5) and b = A x for a seeded random x."""
    _, A = parse_problem("lap3d:10,10,10,0.3")
    P = build(A, PslrConfig(num_subdomains=4, series_degree=2, rank=5, seed=0))
    Ap = P.system.matrix
    return Ap, P.apply, Ap @ np.random.default_rng(0).standard_normal(Ap.shape[0])


class TestGmres:
    """The promises of the `krylov` module docstring, then GMRES's own."""

    # sparse, so that the residual a test recomputes is the solver's to the bit
    converging = (sp.csr_matrix(_dense_spd(20, 7)), np.ones(20), 1e-10)
    # indefinite and badly scaled
    starved = (lap1d(200).toarray() - 0.5 * np.eye(200), np.ones(200), 1e-14, 5)

    def test_zero_rhs(self):
        x, rep = gmres(lambda v: v, None, np.zeros(4))
        assert rep.converged and rep.iterations == 0
        np.testing.assert_array_equal(x, np.zeros(4))

    @pytest.mark.parametrize("tol", [1.0, 2.0])
    def test_tol_of_one_or_more_returns_zero(self, tol):
        # the unit-scaled b is [0.75, 0, 0], of norm 0.75; x = 0 leaves relres 1
        A = np.diag([1.0, 2.0, 3.0])
        x, rep = gmres(lambda v: A @ v, None, np.array([0.75, 0.0, 0.0]), tol=tol)
        assert rep.converged and rep.iterations == 0 and rep.history == [1.0]
        assert rep.final_relres == 1.0
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_history_contract(self):
        A, b, tol = self.converging
        x, rep = gmres(lambda v: A @ v, None, b, tol=tol)
        assert rep.converged
        assert rep.history[0] == 1.0
        assert rep.history[-1] == rep.final_relres
        assert len(rep.history) == rep.iterations + 1

    def test_final_relres_is_the_true_residual(self):
        A, b, tol = self.converging
        x, rep = gmres(lambda v: A @ v, None, b, tol=tol)
        assert rep.final_relres == np.linalg.norm(b - A @ x) / np.linalg.norm(b)
        assert rep.final_relres == rep.history[-1]

    def test_failure_contract(self):
        # will not converge in maxit iterations, so all of them are run and
        # reported, with one history entry each
        A, b, tol, maxit = self.starved
        x, rep = gmres(lambda v: A @ v, None, b, tol=tol, maxit=maxit)
        assert not rep.converged
        assert rep.iterations == maxit
        assert len(rep.history) == maxit + 1
        assert rep.history[0] == 1.0
        assert rep.final_relres > tol

    @pytest.mark.parametrize("maxit", [3, 500])
    def test_converged_is_a_python_bool(self, maxit):
        A, b, _ = self.converging
        _, rep = gmres(lambda v: A @ v, None, b, maxit=maxit)
        assert type(rep.converged) is bool and rep.converged == (maxit == 500)

    @pytest.mark.parametrize("k", [-600, -7, 5, 900])
    def test_power_of_two_scaling_is_exact(self, lap3d_pslr, k):
        A, apply_M, b = lap3d_pslr
        x0, rep0 = gmres(lambda v: A @ v, apply_M, b)
        x, rep = gmres(lambda v: A @ v, apply_M, np.ldexp(b, k))
        np.testing.assert_array_equal(x, np.ldexp(x0, k))
        assert rep.history == rep0.history

    def test_solves_spd_system(self):
        A = _dense_spd(30, 0)
        rng = np.random.default_rng(1)
        x_true = rng.standard_normal(30)
        b = A @ x_true
        x, rep = gmres(lambda v: A @ v, None, b, tol=1e-10)
        assert rep.converged
        assert np.linalg.norm(x - x_true) <= 1e-7 * np.linalg.norm(x_true)
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-10

    def test_solves_nonsymmetric_system(self):
        A = random_sparse(100, density=0.1, seed=2).toarray()
        rng = np.random.default_rng(3)
        b = A @ rng.standard_normal(100)
        x, rep = gmres(lambda v: A @ v, None, b)
        assert rep.converged
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-8

    def test_full_gmres_finite_termination(self):
        # exact arithmetic: full GMRES converges in at most n steps
        A = _dense_spd(15, 4)
        b = np.ones(15)
        x, rep = gmres(lambda v: A @ v, None, b, tol=1e-12)
        assert rep.converged and rep.iterations <= 15

    def test_exact_preconditioner_one_iteration(self):
        A = _dense_spd(20, 5)
        Ainv = np.linalg.inv(A)
        b = np.arange(1.0, 21.0)
        x, rep = gmres(lambda v: A @ v, lambda v: Ainv @ v, b)
        assert rep.converged and rep.iterations <= 2

    def test_right_preconditioning_returns_unpreconditioned_solution(self):
        # with M != I the returned x must still solve A x = b, not A M^{-1}
        A = _dense_spd(25, 6)
        M = np.diag(np.diag(A))
        Minv = np.diag(1.0 / np.diag(A))
        b = np.ones(25)
        x, rep = gmres(lambda v: A @ v, lambda v: Minv @ v, b, tol=1e-10)
        assert np.linalg.norm(b - A @ x) / np.linalg.norm(b) <= 1e-10

    def test_breakdown_short_of_tol_reports_iterations_run(self):
        # three distinct eigenvalues: the Krylov space is exhausted after 3
        # steps at relres ~1e-16, which cannot reach tol=1e-20
        A = np.diag([1.0, 2.0, 3.0] * 4)
        b = np.arange(1.0, 13.0)
        x, rep = gmres(lambda v: A @ v, None, b, tol=1e-20, maxit=50)
        assert not rep.converged
        assert rep.iterations == 3
        assert len(rep.history) == rep.iterations + 1
        assert rep.history[-1] == rep.final_relres <= 1e-14

    @pytest.mark.parametrize("maxit", [1, 500])
    def test_non_finite_residual_raises(self, maxit):
        # the one step breaks down at the solution x = 1e10 / 1e-300, which
        # overflows; that raises whether or not maxit ended the loop
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
            gmres(lambda v: 1e-300 * v, None, np.array([1e10]), maxit=maxit)

    @pytest.mark.skipif(not ON_LINUX, reason="reads VmHWM from /proc")
    def test_unreached_basis_columns_stay_untouched(self):
        # a 100000 x 201 basis is 153 MiB; a run that stops after one
        # iteration must not make all of it resident
        growth = _peak_growth_mib("""
            import numpy as np
            from pslr.krylov import gmres

            n = 100_000
            d = np.linspace(1.0, 2.0, n)
            b = np.ones(n)
            apply_A = lambda v: d * v
            apply_M = lambda v: v / d
            gmres(lambda v: 2.0 * v, None, np.ones(10), maxit=2)  # warm-up
            before = peak_mib()
            x, rep = gmres(apply_A, apply_M, b, tol=1e-8, maxit=200)
            assert rep.converged and rep.iterations == 1, rep
            print(peak_mib() - before)
        """)
        assert growth < 40.0

    @pytest.mark.skipif(not ON_LINUX or platform.libc_ver()[0] != "glibc",
                        reason="glibc's mmap threshold decides where the basis comes from")
    def test_repeated_solves_touch_only_the_basis_they_build(self):
        # an 8000 x 500 basis is 30.5 MiB: once the warm-up frees its mmapped
        # one, glibc raises its mmap threshold above that size and later bases
        # come from the heap, where a zero-filled one would be cleared in full
        growth = _peak_growth_mib("""
            import numpy as np
            from pslr.krylov import gmres

            d = np.repeat([1.0, 2.0, 3.0, 4.0, 5.0], 1600)
            b = np.ones(d.size)

            def solve():
                x, rep = gmres(lambda v: d * v, None, b, tol=1e-10, maxit=500)
                assert rep.converged and rep.iterations == 5, rep

            solve()   # warm-up
            before = peak_mib()
            for _ in range(4):
                solve()
            print(peak_mib() - before)
        """)
        assert growth < 8.0

    def test_restarted_converges(self):
        A = _dense_spd(40, 8)
        b = np.ones(40)
        x_full, rep_full = gmres(lambda v: A @ v, None, b)
        x_r, rep_r = gmres(lambda v: A @ v, None, b, restart=5)
        assert rep_r.converged
        assert rep_r.iterations >= rep_full.iterations
        assert np.linalg.norm(b - A @ x_r) / np.linalg.norm(b) <= 1e-8

    @pytest.mark.parametrize("restart", [0, 5])
    def test_one_product_per_step_and_cycle(self, restart):
        # one A-product per Arnoldi step plus one true residual per cycle: the
        # zero start's residual is b, and a cycle's last one starts the next
        A = _dense_spd(40, 8)
        calls = 0

        def apply_A(v):
            nonlocal calls
            calls += 1
            return A @ v
        _, rep = gmres(apply_A, None, np.ones(40), restart=restart)
        cycles = 1 if restart == 0 else -(-rep.iterations // restart)
        assert rep.converged and cycles > (restart > 0)
        assert calls == rep.iterations + cycles

    def test_tol_reached_before_the_first_cycle(self):
        x, rep = gmres(lambda v: 2.0 * v, None, np.ones(4), tol=1.0)
        assert rep.converged and rep.iterations == 0 and rep.history == [1.0]
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_zero_operator_raises(self):
        # the first step breaks down with a zero pivot, so the update is not finite
        with np.errstate(all="ignore"), pytest.raises(ArithmeticError):
            gmres(lambda v: 0 * v, None, np.ones(4))

    @pytest.mark.parametrize("a_scale,b_scale", [(1.0, 1e12), (1e-15, 1.0),
                                                 (1.0, 1e-170), (1.0, 1e160)])
    def test_scale_does_not_change_the_iteration(self, lap3d_pslr, a_scale, b_scale):
        # the breakdown test is in the operator's units and ||b|| is taken
        # after an exact power-of-two scaling, so neither stops the solve early
        Ap, apply_M, b = lap3d_pslr
        x0, rep0 = gmres(lambda v: Ap @ v, apply_M, b)
        x, rep = gmres(lambda v: a_scale * (Ap @ v), apply_M, b_scale * b)
        assert rep0.converged and rep0.iterations > 10
        assert rep.converged and rep.iterations == rep0.iterations
        np.testing.assert_allclose(x * (a_scale / b_scale), x0, rtol=1e-6)

    def test_matches_reference_iteration_count(self):
        # same operator, zero guess, same tol: iteration counts should agree
        # with scipy's gmres run unrestarted
        A = sp.csr_matrix(_dense_spd(50, 9))
        b = np.ones(50)
        x, rep = gmres(lambda v: A @ v, None, b, tol=1e-8)
        ref = np.zeros(50)
        count = [0]
        import scipy.sparse.linalg as spla
        spla.gmres(A, b, rtol=1e-8, restart=50, maxiter=1,
                   callback=lambda rk: count.__setitem__(0, count[0] + 1),
                   callback_type="pr_norm")
        assert abs(rep.iterations - count[0]) <= 2


class _NanWorkspace:
    """numpy as `pslr.krylov` sees it, except that `empty` fills with NaN, so
    a read of a workspace entry that was never written shows in the results."""

    def __init__(self):
        self.calls = 0

    def empty(self, shape, dtype=float, order="C"):
        self.calls += 1
        return np.full(shape, np.nan, dtype=dtype, order=order)

    def __getattr__(self, name):
        return getattr(np, name)


def _rank10_operator(seed=0):
    """A 40 x 40 symmetric operator of rank 10: its Krylov space has dimension 11."""
    Q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((40, 40)))
    M = (Q[:, :10] * np.arange(1.0, 11.0)) @ Q[:, :10].T
    return lambda v: M @ v


class TestWorkspace:
    """Uninitialized workspaces: every entry read was written first."""

    @staticmethod
    def _clean_and_nan_filled(monkeypatch, run):
        clean = run()
        nan_np = _NanWorkspace()
        with monkeypatch.context() as m:
            m.setattr(krylov, "np", nan_np)
            filled = run()
        assert nan_np.calls > 0   # the workspaces did come from `empty`
        return clean, filled

    @staticmethod
    def _assert_same(clean, filled):
        for a, b in zip(clean, filled):
            a, b = np.asarray(a), np.asarray(b)
            assert np.all(np.isfinite(b))
            np.testing.assert_array_equal(b, a)

    @pytest.mark.parametrize("restart", [0, 5])
    def test_gmres(self, monkeypatch, restart):
        # restart=5 puts several cycle boundaries inside the run
        A = _dense_spd(40, 8)

        def run():
            x, rep = gmres(lambda v: A @ v, None, np.ones(40), restart=restart)
            assert rep.converged and rep.iterations > 5
            return x, rep.history

        self._assert_same(*self._clean_and_nan_filled(monkeypatch, run))

    def test_gmres_breakdown(self, monkeypatch):
        # the Krylov space is exhausted after 3 of 50 steps
        A = np.diag([1.0, 2.0, 3.0] * 4)

        def run():
            x, rep = gmres(lambda v: A @ v, None, np.arange(1.0, 13.0), tol=1e-20, maxit=50)
            assert rep.iterations == 3
            return x, rep.history

        self._assert_same(*self._clean_and_nan_filled(monkeypatch, run))

    @pytest.mark.parametrize("op,rank", [(_rank10_operator(), 20), (lambda v: np.cumsum(v), 12)])
    def test_arnoldi(self, monkeypatch, op, rank):
        # the rank-10 operator breaks down at step 11 of 20; the running sum
        # runs all 12 steps
        def run():
            V, H, r = arnoldi(op, 40, rank, seed=0)
            assert r == (11 if rank == 20 else 12)
            return V, H

        self._assert_same(*self._clean_and_nan_filled(monkeypatch, run))

    def test_arnoldi_steps_basis_and_columns(self, monkeypatch):
        # every yielded column h and the basis read so far, step by step
        def run():
            return [(V[:, :j + 1].copy(), h, hnext)
                    for V, j, h, hnext, _ in arnoldi_steps(_rank10_operator(1), np.ones(40), 20)]

        clean, filled = self._clean_and_nan_filled(monkeypatch, run)
        assert len(clean) == len(filled) == 11
        for a, b in zip(clean, filled):
            self._assert_same(a, b)


@pytest.mark.parametrize("solver", [gmres])
@pytest.mark.parametrize("setting", [{"tol": np.nan}, {"tol": -1e-8}, {"maxit": -1},
                                     {"tol": np.inf}, {"tol": True}, {"tol": 1j}],
                         ids=["tol-nan", "tol-negative", "maxit-negative", "tol-inf", "tol-bool",
                              "tol-complex"])
def test_bad_settings_rejected(solver, setting):
    name = next(iter(setting))
    with pytest.raises(ValueError, match=name):
        solver(lambda v: 2.0 * v, None, np.ones(5), **setting)


# a scalar or None has no rows to solve for, and a block of right-hand sides
# would fail inside the iteration, each with an error of numpy's
@pytest.mark.parametrize("solver", [gmres])
@pytest.mark.parametrize("b", [None, 1.0, np.ones((3, 2))], ids=["None", "scalar", "block"])
def test_non_vector_b_rejected(solver, b):
    with pytest.raises(ValueError, match=re.escape(f"b must be a vector, got shape {np.shape(b)}")):
        solver(lambda v: v, None, b)


def test_negative_restart_rejected():
    with pytest.raises(ValueError, match="restart"):
        gmres(lambda v: 2.0 * v, None, np.ones(5), restart=-2)


class TestNonFinite:
    def test_arnoldi_steps_raises_at_the_first_non_finite_step(self):
        calls = []

        def op(v):
            calls.append(1)
            return np.full_like(v, np.inf) if len(calls) == 3 else np.cumsum(v)

        steps = arnoldi_steps(op, np.ones(10), 6)
        with np.errstate(invalid="ignore"), pytest.raises(ArithmeticError, match="Arnoldi"):
            for _ in steps:
                pass
        assert len(calls) == 3

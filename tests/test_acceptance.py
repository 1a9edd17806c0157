"""Acceptance gate: one test per acceptance criterion, one pass/fail line each.

Every criterion prints a single ``criterion NN PASS/FAIL`` line directly to
the terminal (bypassing capture) before asserting, so a full run always shows
eleven verdict lines.  Tolerances are pinned in-line; instances are chosen
small enough that the whole gate runs in a few minutes.
"""

import json

import numpy as np
import pytest

import conftest

from pslr.diagnostics import delta_bound, dense_schur, verify_bound
from pslr.krylov import gmres
from pslr.lowrank import arnoldi, build_correction
from pslr.preconditioner import PslrConfig, build
from pslr.problems import ProblemSpec, count_negative_eigs_analytic, laplacian3d
from pslr.schur import apply_Err, build_schur_context
from pslr.sparse import permute_symmetric, Permutation

from conftest import lap1d, partitioned, random_sparse


def _verdict(num: int, ok: bool, detail: str):
    line = f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, line


# the n = 2000 Laplacian instance used by criteria 5 and 6: a long thin
# grid so the interface stays small relative to the interiors
GRID_2000 = ProblemSpec(1, 8, 250)


def _solve_pslr(A, cfg, tol=1e-8, maxit=500):
    P = build(A, cfg)
    b = A @ np.random.default_rng(cfg.seed).standard_normal(A.shape[0])
    _, report = gmres(lambda v: A @ v, P.apply_original, b,
                      tol=tol, maxit=maxit)
    return P, report


def test_criterion_01_series_residual_identity():
    """I - S*series(m) equals (Es C0^{-1})^{m+1} entrywise, exact factors."""
    cases = [
        ("lap1d-200", lap1d(200), 4),
        ("lap3d-6^3", laplacian3d(ProblemSpec(6, 6, 6)), 4),
        ("random-150", random_sparse(150, density=0.06, seed=1), 3),
    ]
    worst = 0.0
    for _, A, s in cases:
        ps = partitioned(A, s)
        oracle = dense_schur(ps)
        ctx = build_schur_context(ps, droptol=0.0)
        rng = np.random.default_rng(0)
        v = rng.standard_normal(ps.q)
        for m in range(5):
            remainder = np.eye(oracle.q) - oracle.S @ oracle.series_matrix(m)
            power = oracle.err_matrix(m)
            worst = max(worst, float(np.max(np.abs(remainder - power))))
            # the matrix-free operator realizes the same power form
            gap = np.linalg.norm(apply_Err(ctx, m, v) - power @ v)
            worst = max(worst, gap / max(np.linalg.norm(power @ v), 1e-30))
    _verdict(1, worst <= 1e-10, f"max entrywise/apply deviation {worst:.2e} <= 1e-10")


def test_criterion_02_negative_eigenvalue_counts():
    """Analytic counts for the two pinned shifted Laplacians, zero tolerance."""
    got = (count_negative_eigs_analytic(ProblemSpec(32, 32, 32, shift=0.16)),
           count_negative_eigs_analytic(ProblemSpec(50, 50, 50, shift=0.14)))
    _verdict(2, got == (20, 78), f"counts {got} == (20, 78)")


def test_criterion_03_splitting_spectrum_inside_unit_interval():
    """eig(C0^{-1} Es) strictly inside (-1, 1) for the unshifted Laplacian."""
    lo, hi = np.inf, -np.inf
    for grid in ((6, 6, 6), (12, 12, 12)):
        A = laplacian3d(ProblemSpec(*grid))
        for s in (2, 5, 8):
            oracle = dense_schur(partitioned(A, s))
            eigs = np.linalg.eigvals(oracle.C0inv @ oracle.Es)
            assert np.max(np.abs(eigs.imag)) <= 1e-10
            lo = min(lo, float(eigs.real.min()))
            hi = max(hi, float(eigs.real.max()))
    ok = (-1 + 1e-12) < lo and hi < (1 - 1e-12)
    _verdict(3, ok, f"eig range [{lo:.6f}, {hi:.6f}] inside (-1, 1)")


def test_criterion_04_residual_identity_and_bound():
    """S^{-1}-S_app^{-1} = S^{-1} X Z^{-1} to 1e-9, and error <= Delta."""
    cases = [
        (laplacian3d(ProblemSpec(10, 10, 10)), 5, 2, 10),
        (laplacian3d(ProblemSpec(8, 8, 8, shift=0.1)), 4, 3, 8),
        (random_sparse(300, density=0.03, seed=2), 4, 1, 6),
    ]
    worst_id, ok_bound = 0.0, True
    for A, s, m, rank in cases:
        ps = partitioned(A, s)
        oracle = dense_schur(ps)
        ctx = build_schur_context(ps, droptol=0.0)
        V, H, r = arnoldi(lambda v: apply_Err(ctx, m, v), ps.q,
                          min(rank, ps.q), seed=0)
        corr = build_correction(V, H)
        out = verify_bound(oracle, m, V, H, corr.G, tol=1e-9)
        worst_id = max(worst_id, out["identity_residual"])
        ok_bound = ok_bound and out["bound_holds"]
    ok = worst_id <= 1e-9 and ok_bound
    _verdict(4, ok, f"identity residual {worst_id:.2e} <= 1e-9, bound holds: {ok_bound}")


@pytest.fixture(scope="module")
def lap2000():
    A = laplacian3d(GRID_2000)
    ps = partitioned(A, 5)
    ctx = build_schur_context(ps, droptol=0.0)
    return A, ps, ctx, dense_schur(ps)


def test_criterion_05_delta_values_n2000(lap2000):
    """Delta(3,15) in [0.25, 0.75], Delta(5,15) in [0.07, 0.30], decreasing."""
    _, ps, ctx, oracle = lap2000
    deltas = {}
    for m in (3, 5):
        V, H, _ = arnoldi(lambda v: apply_Err(ctx, m, v), ps.q, 15, seed=0)
        deltas[m] = delta_bound(oracle, m, V, H)
    ok = (0.25 <= deltas[3] <= 0.75 and 0.07 <= deltas[5] <= 0.30
          and deltas[5] < deltas[3])
    _verdict(5, ok, f"Delta(3,15)={deltas[3]:.3f} in [0.25,0.75], "
                    f"Delta(5,15)={deltas[5]:.3f} in [0.07,0.30]")


def test_criterion_06_iteration_counts_n2000(lap2000):
    """GMRES tol 1e-8 on the same instance: <= 34 iters at m=3, <= 16 at m=5."""
    A = lap2000[0]
    its = {}
    b = A @ np.random.default_rng(0).standard_normal(A.shape[0])
    # the fixture's partition and exact factors, and its Arnoldi bases
    base = build(A, PslrConfig(num_subdomains=5, series_degree=3, rank=15, droptol=0.0))
    for m in (3, 5):
        P = base.recorrected(m, 15)
        _, rep = gmres(lambda v: A @ v, P.apply_original, b, tol=1e-8)
        assert rep.converged
        its[m] = rep.iterations
    ok = its[3] <= 34 and its[5] <= 16 and its[5] <= its[3]
    _verdict(6, ok, f"iterations m=3: {its[3]} <= 34, m=5: {its[5]} <= 16")


def test_criterion_07_series_degree_sweep_32cubed():
    """32^3, shift 0.16 (20 negative eigenvalues): iterations non-increasing
    in m with its(0)/its(5) >= 1.5."""
    A = laplacian3d(ProblemSpec(32, 32, 32, shift=0.16))
    its = []
    for m in range(6):
        _, rep = _solve_pslr(A, PslrConfig(num_subdomains=35, series_degree=m,
                                           rank=15, droptol=1e-2, seed=2))
        assert rep.converged
        its.append(rep.iterations)
    mono = all(its[i + 1] <= its[i] for i in range(5))
    ratio = its[0] / its[5]
    ok = mono and ratio >= 1.5
    _verdict(7, ok, f"its={its} non-increasing: {mono}, its(0)/its(5)={ratio:.2f} >= 1.5")


def test_criterion_08_rank_dichotomy():
    """Indefinite robustness: with the series alone (rank 0) GMRES must fail
    within 500 iterations, while rank 30 must converge (32^3 scale, shift
    placed to give 20 negative eigenvalues).

    Red, and left red rather than tuned.  The failing half is rank 0: full
    GMRES converges in 136 iterations (rank 30 needs 145).  A rank-0 run
    never touches the correction, so its count is fixed by the instance
    (partition, ILUT(1e-2), series degree 3) and the accelerator.  With
    exact factors Es C0^{-1} has 20 eigenvalues just outside the unit circle;
    the ILUT error pulls them inside (spectral radius of Err 0.948), so the
    series alone converges, and even exact factors give 127 iterations.
    Restarted GMRES does not restore the dichotomy: under GMRES(40) neither
    side converges in 500 iterations (rank 0 reaches relres 4.4e-7; rank 30
    reaches 1.2e-6 with the r-step Arnoldi correction and 8.3e-7 with one
    built on a converged ARPACK invariant subspace of Err).
    The paper's abstract does not name the accelerator, restart or budget
    behind its series-only failures.  That the Arnoldi correction adds
    iterations instead of removing them is a weakness of the correction, not
    of this test.

    At droptol 1e-3 the criterion's shape appears, with a converged-subspace
    correction only (figures of ROADMAP items 3 and 4; iterations as rank 0 /
    r-step rank 15 / r-step rank 30 / converged rank 15 / converged rank 30,
    tol 1e-8, at most 500 iterations):
      L32 under GMRES(40): fail / fail / fail / 356 / 113.  Err has 13
        eigenvalues above 1 (largest 1.178).
      P20 (lap3d 20^3, shift 0.2, s=16, m=3) under GMRES(20):
        377 / 214 / 292 / 36 / 27.  Err has 4 eigenvalues above 1 (1.193).
    Re-measured with the library (`build(...).recorrected(3, rank)`, `gmres`
    with restart 40 or 20, maxit 500, b = A x for x from seed 0): L32 ranks
    0 / 15 / 30 stop at relres 2.49e-7 / 5.51e-7 / 1.77e-7 after 500
    iterations; P20 ranks 0 / 15 / 30 converge in 377 / 214 / 292.  The Err
    eigenvalue counts were re-measured with ARPACK (k=30, tol 1e-6).  The
    converged-subspace columns were not re-measured.
    """
    A = laplacian3d(ProblemSpec(32, 32, 32, shift=0.16))
    reports = {}
    for rank in (0, 30):
        _, rep = _solve_pslr(A, PslrConfig(num_subdomains=35, series_degree=3,
                                           rank=rank, droptol=1e-2, seed=0),
                             maxit=500)
        reports[rank] = rep
    ok = (not reports[0].converged) and reports[30].converged
    _verdict(8, ok, f"rank 0 fails: {not reports[0].converged} "
                    f"(its={reports[0].iterations}), rank 30 converges: "
                    f"{reports[30].converged} (its={reports[30].iterations})")


def test_criterion_09_exact_degeneration():
    """Exact factors + interface-dimension correction: GMRES in <= 2 steps."""
    cases = [
        ("random-60", random_sparse(60, density=0.1, seed=3), 3, 1),
        ("lap1d-20", lap1d(20), 2, 1),
    ]
    results = []
    for name, A, s, m in cases:
        q = partitioned(A, s).q
        P, rep = _solve_pslr(A, PslrConfig(num_subdomains=s, series_degree=m,
                                           rank=q, droptol=0.0, seed=0),
                             tol=1e-10)
        results.append((name, rep.converged, rep.iterations))
        # spectral identity: every preconditioned eigenvalue collapses to 1
        oracle = dense_schur(P.system)
        lr = P.correction
        if lr.rank == P.system.q:
            eigs = np.linalg.eigvals(oracle.sapp_inv(m, lr.V, lr.G) @ oracle.S)
            assert np.max(np.abs(eigs - 1.0)) <= 1e-8
    ok = all(c and it <= 2 for _, c, it in results)
    _verdict(9, ok, f"{[(n, it) for n, _, it in results]} all <= 2 iterations")


def test_criterion_10_structural_invariants():
    """Reassembly, exact-LU, Arnoldi/Woodbury identities, fill accounting."""
    import scipy.sparse as sp
    from pslr.ilu import ilut
    A = laplacian3d(ProblemSpec(6, 6, 6, shift=0.05))
    ps = partitioned(A, 4)
    checks = {}

    # partition reassembly is exact, bit for bit
    reassembled = sp.bmat([[ps.B, ps.E], [ps.F, ps.C]], format="csr")
    back = permute_symmetric(ps.matrix, Permutation.from_forward(ps.perm.inverse))
    checks["reassembly"] = ((reassembled != ps.matrix).nnz == 0
                            and (back != A).nnz == 0
                            and np.array_equal(back.data, A.data))

    # droptol = 0 reproduces the matrix exactly
    f = ilut(random_sparse(50, density=0.15, seed=4), droptol=0.0)
    lu_gap = float(np.max(np.abs((f.L @ f.U
                                  - random_sparse(50, density=0.15, seed=4)).toarray())))
    checks["exact-lu"] = lu_gap <= 1e-12

    # Arnoldi orthonormality, Hessenberg form, Woodbury inverse
    ctx = build_schur_context(ps, droptol=0.0)
    V, H, r = arnoldi(lambda v: apply_Err(ctx, 2, v), ps.q, 8, seed=0)
    corr = build_correction(V, H)
    checks["arnoldi"] = (np.max(np.abs(V.T @ V - np.eye(r))) <= 1e-12
                         and np.max(np.abs(np.tril(H, -2))) == 0.0)
    checks["woodbury"] = np.max(np.abs(
        (np.eye(r) + corr.G) @ (np.eye(r) - H) - np.eye(r))) <= 1e-12

    # fill accounting: total = ilu + lowrank; ilu part invariant in rank
    fills, totals_ok = set(), True
    for rank in (0, 5, 10):
        P = build(A, PslrConfig(num_subdomains=4, rank=rank))
        st = P.stats
        fills.add(st.fill_ilu)
        totals_ok = totals_ok and abs(st.fill_total
                                      - (st.fill_ilu + st.fill_lowrank)) <= 1e-15
    checks["fill"] = totals_ok and len(fills) == 1

    ok = all(checks.values())
    _verdict(10, ok, ", ".join(f"{k}={'ok' if v else 'BAD'}" for k, v in checks.items()))


def test_criterion_11_determinism_across_threads(tmp_path):
    """Identical manifests give identical iteration counts and fill stats
    under thread limits 1 and 4.

    The exact `final_relres` match holds here because at n = 1728 no BLAS
    call runs threaded.  On the benchmark instances at seed 0, one against
    two BLAS threads keeps the iterations but not the bits: L32 takes 145
    both ways with `final_relres` 9.281124796067677e-09 against
    9.281124795843059e-09, cd40 28 with 8.02067115211317e-09 against
    8.020671151140604e-09, and the bits differ still with `np.linalg.norm`
    replaced by a reduction that calls no BLAS.
    """
    import subprocess
    import sys
    payloads = []
    for threads in (1, 4):
        out = tmp_path / f"t{threads}.json"
        # `-m pslr` goes through the same launcher as the console script, so
        # --threads is exported before numpy loads in the child
        proc = subprocess.run(
            [sys.executable, "-m", "pslr", "solve", "--problem", "lap3d:12,12,12,0.05",
             "--s", "6", "--rank", "10", "--threads", str(threads), "--out", str(out)],
            capture_output=True, text=True, env=conftest.child_env())
        assert proc.returncode == 0, proc.stderr
        payloads.append(json.loads(out.read_text()))
    keys = ("its", "converged", "fill_ilu", "fill_lowrank", "fill_total",
            "final_relres")
    ok = all(payloads[0][k] == payloads[1][k] for k in keys)
    _verdict(11, ok, f"threads 1 vs 4: its {payloads[0]['its']} == "
                     f"{payloads[1]['its']}, fills equal: {ok}")

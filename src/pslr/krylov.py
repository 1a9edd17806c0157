"""Right-preconditioned GMRES and preconditioned CG.

Both solvers start from a zero initial guess and stop when the true-system
relative residual ||b - A x|| / ||b|| drops below `tol`; a non-finite
residual raises `ArithmeticError`, whatever stopped the iteration.  GMRES is
full (unrestarted) unless a restart length is given; within a cycle the
residual is tracked through the Givens-rotated Hessenberg recurrence and
re-measured on the true system at cycle boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import time

import numpy as np


class NotSpdError(RuntimeError):
    """CG hit a non-positive curvature direction: matrix not SPD."""


@dataclass
class SolveReport:
    converged: bool
    iterations: int
    final_relres: float
    history: list = field(default_factory=list)  # relative residuals: 1.0, then one per iteration
    time_s: float = 0.0


def _identity(v):
    return v


def gmres(apply_A, apply_M, b, tol: float = 1e-8, maxit: int = 500, restart: int = 0):
    """Solve A x = b with right preconditioning: A M^{-1} u = b, x = M^{-1} u.

    `restart=0` means full GMRES.  Returns (x, SolveReport).
    """
    if apply_M is None:
        apply_M = _identity
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    t0 = time.perf_counter()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, [1.0], time.perf_counter() - t0)

    # the residual of x = 0 is b; each cycle leaves the residual of its x
    x = np.zeros(n)
    r, beta = b, bnorm
    history = [1.0]
    total = 0
    converged = False
    relres = 1.0

    while total < maxit and not converged:
        if relres <= tol:   # only before the first cycle: later ones test at their end
            converged = True
            break
        cycle = maxit - total if restart <= 0 else min(restart, maxit - total)
        # column-major: each basis vector is contiguous, and the columns
        # never reached stay unwritten, so their pages are never touched
        V = np.zeros((n, cycle + 1), order="F")
        Hcol = np.zeros((cycle + 1, cycle))
        cs = np.zeros(cycle)
        sn = np.zeros(cycle)
        g = np.zeros(cycle + 1)
        g[0] = beta
        V[:, 0] = r / beta

        j = 0
        breakdown = False
        while j < cycle:
            w = apply_A(apply_M(V[:, j]))
            h = V[:, :j + 1].T @ w
            w = w - V[:, :j + 1] @ h
            h2 = V[:, :j + 1].T @ w
            w = w - V[:, :j + 1] @ h2
            h = h + h2
            hnext = np.linalg.norm(w)
            if not (np.all(np.isfinite(h)) and np.isfinite(hnext)):
                raise ArithmeticError("GMRES diverged: non-finite values in the recurrence")
            Hcol[:j + 1, j] = h
            Hcol[j + 1, j] = hnext
            # apply accumulated Givens rotations, then the new one
            for i in range(j):
                t = cs[i] * Hcol[i, j] + sn[i] * Hcol[i + 1, j]
                Hcol[i + 1, j] = -sn[i] * Hcol[i, j] + cs[i] * Hcol[i + 1, j]
                Hcol[i, j] = t
            denom = np.hypot(Hcol[j, j], hnext)
            if denom == 0.0:
                cs[j], sn[j] = 1.0, 0.0
            else:
                cs[j], sn[j] = Hcol[j, j] / denom, hnext / denom
            Hcol[j, j] = denom
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            total += 1
            j += 1
            est = abs(g[j]) / bnorm
            history.append(est)
            if hnext <= 1e-14 * beta:
                breakdown = True  # invariant subspace: least-squares solve is exact
                break
            if est <= tol:
                break
            if j < cycle:
                V[:, j] = w / hnext

        if j > 0:
            y = np.zeros(j)
            for i in range(j - 1, -1, -1):
                y[i] = (g[i] - Hcol[i, i + 1:j] @ y[i + 1:j]) / Hcol[i, i]
            x = x + apply_M(V[:, :j] @ y)
        r = b - apply_A(x)
        beta = np.linalg.norm(r)
        relres = beta / bnorm
        history[-1] = relres  # true residual at the cycle boundary
        if relres <= tol:
            converged = True
        elif breakdown:
            break  # subspace exhausted without convergence

    if not np.isfinite(relres):   # whatever stopped the loop, maxit included
        raise ArithmeticError("GMRES diverged: non-finite residual")
    # one history entry per iteration run, also after a breakdown stop
    report = SolveReport(converged, total, relres, history, time.perf_counter() - t0)
    return x, report


def cg(apply_A, apply_M, b, tol: float = 1e-8, maxit: int = 500):
    """Preconditioned conjugate gradient for SPD systems; zero initial guess."""
    if apply_M is None:
        apply_M = _identity
    b = np.asarray(b, dtype=np.float64)
    n = b.shape[0]
    t0 = time.perf_counter()
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:
        return np.zeros(n), SolveReport(True, 0, 0.0, [1.0], time.perf_counter() - t0)

    x = np.zeros(n)
    r = b.copy()
    z = apply_M(r)
    p = z.copy()
    rz = r @ z
    history = [1.0]
    converged = False
    relres = 1.0
    it = 0
    for it in range(1, maxit + 1):
        Ap = apply_A(p)
        pAp = p @ Ap
        if pAp <= 0.0:
            raise NotSpdError("matrix not SPD: non-positive curvature encountered")
        alpha = rz / pAp
        x = x + alpha * p
        r = r - alpha * Ap
        relres = np.linalg.norm(r) / bnorm
        if not np.isfinite(relres):
            raise ArithmeticError("CG diverged: non-finite residual")
        history.append(relres)
        if relres <= tol:
            converged = True
            break
        z = apply_M(r)
        rz_new = r @ z
        p = z + (rz_new / rz) * p
        rz = rz_new

    report = SolveReport(converged, it, relres, history, time.perf_counter() - t0)
    return x, report

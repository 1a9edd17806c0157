"""Right-preconditioned GMRES and the Arnoldi process.

GMRES is the one accelerator: the PSLR preconditioner is not symmetric,
even for a symmetric A (ILUT's L is not U^T, and the correction's H is
Hessenberg), so CG's convergence theory does not hold for it.

`gmres` takes b as one vector, starts from x = 0 and returns
(x, SolveReport).  It solves for b scaled by the power of two that brings
max|b| into [1/2, 1), so ||b|| can neither underflow nor overflow; the
scaling is exact, so at ordinary scales the iterates are the same to the bit.
The Arnoldi norms are rescaled the same way (`_norm`) once they leave
2**+-400, so no operator scale within the float range stops the iteration.
`history` holds the relative residual of each iterate, x = 0 first, so
`iterations == len(history) - 1`.  Its last entry, the true-system
||b - A x|| / ||b|| of the returned x, is `final_relres`, and `converged`
says whether that meets `tol`.  A zero b, which x = 0 solves, records
history [0.0]; a `tol` of 1 or more, which x = 0 already meets, records
[1.0].  Both return x = 0 after 0 iterations.  A non-finite final residual,
whatever stopped the iteration, or a solution that overflows when scaled
back raises `ArithmeticError`; `PslrPreconditioner.apply` raises one itself
on a non-finite output, before GMRES sees it.

GMRES is full (unrestarted) unless a restart length is given; each cycle
runs `arnoldi_steps`, as `lowrank.arnoldi` does, tracks the residual through
Givens rotations and re-measures it on the true system at its end.
"""

from __future__ import annotations

from dataclasses import dataclass
import time

import numpy as np
from scipy.linalg.blas import dtrsv
from scipy.linalg.lapack import dlartg

from .sparse import check_count, check_nonnegative


# below this fraction of the largest ||op(v_i)|| so far, an Arnoldi remainder
# is rounding noise: a 40x40 operator of rank 10 leaves 1.9e-13 to 3.2e-12 of
# it once its Krylov space is exhausted, the pinned workloads 2.3e-2 or more
BREAKDOWN_RTOL = 1e-10


@dataclass
class SolveReport:
    converged: bool
    history: list   # relative residuals: that of x = 0, then one per iteration
    time_s: float

    @property
    def iterations(self) -> int:
        return len(self.history) - 1

    @property
    def final_relres(self) -> float:
        return self.history[-1]


def _identity(v):
    return v


def _exponent(x) -> int:
    """The e for which max|x * 2**-e| is in [1/2, 1); 0 for a zero x."""
    return int(np.frexp(np.max(np.abs(x), initial=0.0))[1])


def _norm(x):
    """||x||, neither overflowing nor underflowing: the plain norm while max|x|
    is within [2**-401, 2**400), else the norm of x * 2**-e, times 2**e, with
    e = _exponent(x); both scalings are exact."""
    e = _exponent(x)
    return np.linalg.norm(x) if abs(e) <= 400 else np.ldexp(np.linalg.norm(np.ldexp(x, -e)), e)


def arnoldi_steps(op, v0, steps: int, name: str = "Arnoldi"):
    """The Arnoldi process on `op` from the direction of `v0`, one step per yield.

    Step j orthogonalizes w = op(v_j) against v_0..v_j by two passes of
    classical Gram-Schmidt and yields (V, j, h, hnext, breakdown): the
    Hessenberg column h above the subdiagonal hnext = ||w||.  It breaks down,
    and stops after that yield, when hnext is at most BREAKDOWN_RTOL times
    the largest ||op(v_i)|| so far, so a scaled operator or start stops at the
    same step; ||op(v_j)|| alone is no scale, being rounding noise past the
    Krylov dimension.  A non-finite hnext, which a non-finite h or op(v_j)
    also gives, raises `ArithmeticError` with `name` in its message.

    V is column-major with `steps` columns and is not initialized: step j
    writes column j before anything reads it, and callers read only
    V[:, :j+1].  So the pages of columns never reached are never touched.
    A zero-filled V would touch all of them whenever the block comes from
    the heap, as glibc serves blocks below its mmap threshold (raised up to
    32 MiB once a large mmapped block is freed), and `calloc` then clears
    the whole block: 32 MB for an 8000 x 500 basis that a solve uses 35
    columns of.
    """
    V = np.empty((v0.shape[0], steps), order="F")
    w, hnext = v0, _norm(v0)
    opnorm = 0.0
    for j in range(steps):
        V[:, j] = w / hnext
        w = np.asarray(op(V[:, j]), dtype=np.float64)
        opnorm = max(opnorm, _norm(w))
        basis = V[:, :j + 1]
        h = basis.T @ w
        w = w - basis @ h
        h2 = basis.T @ w
        w = w - basis @ h2
        hnext = _norm(w)
        if not np.isfinite(hnext):
            raise ArithmeticError(f"{name} diverged: non-finite values in the recurrence")
        breakdown = hnext <= BREAKDOWN_RTOL * opnorm
        yield V, j, h + h2, hnext, breakdown
        if breakdown:
            return


def _gmres_cycles(apply_A, apply_M, b, bnorm, tol, maxit, restart):
    # the residual of x = 0 is b; each cycle leaves the residual of its x
    x = np.zeros_like(b)
    r, beta, relres = b, bnorm, 1.0
    history = [1.0]
    total = 0
    breakdown = False
    while total < maxit and relres > tol and not breakdown:
        cycle = maxit - total if restart == 0 else min(restart, maxit - total)
        R = np.empty((cycle, cycle))   # rotated Hessenberg columns, upper triangle only
        rotations = []                 # (c, s) of each Givens rotation
        g = [beta]                     # the rotated least-squares right-hand side
        for V, j, h, hnext, breakdown in arnoldi_steps(lambda v: apply_A(apply_M(v)), r, cycle,
                                                       name="GMRES"):
            col = h.tolist()
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            c, s, col[j] = dlartg(col[j], hnext)
            rotations.append((c, s))
            R[:j + 1, j] = col
            g.append(-s * g[j])
            g[j] *= c
            total += 1
            history.append(abs(g[j + 1]) / bnorm)
            if history[-1] <= tol:
                break
        k = j + 1
        x = x + apply_M(V[:, :k] @ dtrsv(R[:k, :k], np.array(g[:k])))
        r = b - apply_A(x)
        beta = np.linalg.norm(r)
        relres = beta / bnorm
        history[-1] = relres  # true residual at the cycle boundary
    return x, history


def gmres(apply_A, apply_M, b, tol: float = 1e-8, maxit: int = 500, restart: int = 0):
    """Solve A x = b with right preconditioning: A M^{-1} u = b, x = M^{-1} u.

    `restart=0` means full GMRES.  Returns (x, SolveReport) under the
    contract of the module docstring.
    """
    if np.ndim(b) != 1:
        raise ValueError(f"b must be a vector, got shape {np.shape(b)}")
    check_nonnegative(tol, "tol")
    check_count(maxit, "maxit")
    check_count(restart, "restart")
    if apply_M is None:
        apply_M = _identity
    t0 = time.perf_counter()
    b = np.asarray(b, dtype=np.float64)   # np.ldexp would keep a float32 b in float32
    e = _exponent(b)
    b = np.ldexp(b, -e)
    bnorm = np.linalg.norm(b)
    if bnorm == 0.0:   # x = 0 is the solution
        x, history = np.zeros_like(b), [0.0]
    else:
        x, history = _gmres_cycles(apply_A, apply_M, b, bnorm, tol, maxit, restart)
    if not np.isfinite(history[-1]):   # whatever stopped the iteration, maxit included
        raise ArithmeticError("GMRES diverged: non-finite residual")
    x = np.ldexp(x, e)
    if not np.all(np.isfinite(x)):
        raise ArithmeticError("GMRES diverged: the solution overflows")
    return x, SolveReport(bool(history[-1] <= tol), history, time.perf_counter() - t0)

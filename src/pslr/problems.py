"""7-point-stencil test matrices: shifted 3D Laplacian and shifted
convection-diffusion on the unit cube with zero Dirichlet boundaries.

Matrices are the h^2-scaled operators: Laplacian diagonal 6, neighbor
coefficients -1, with the shift sigma (= h^2 * beta) subtracted from the
diagonal.  Grid ordering is lexicographic with x fastest.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .sparse import canonical


@dataclass(frozen=True)
class ProblemSpec:
    nx: int
    ny: int
    nz: int
    shift: float = 0.0
    convection: tuple = (0.0, 0.0, 0.0)   # gamma

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("grid extents must be >= 1")

    @property
    def h(self) -> float:
        return 1.0 / (self.nx + 1)

    @property
    def n(self) -> int:
        return self.nx * self.ny * self.nz


def _axis_operator(n: int, gamma_term: float) -> sp.csr_matrix:
    """1D stencil: diag 2, sub-diagonal -1 + t, super-diagonal -1 - t."""
    main = np.full(n, 2.0)
    sub = np.full(n - 1, -1.0 + gamma_term)
    sup = np.full(n - 1, -1.0 - gamma_term)
    return sp.diags([sub, main, sup], [-1, 0, 1], format="csr")


def convdiff3d(spec: ProblemSpec) -> sp.csr_matrix:
    """Shifted convection-diffusion operator (centered differences).

    The convection term contributes -+ h*gamma_d/2 on the two axis-d
    neighbors; gamma = 0 reduces to the shifted Laplacian.
    """
    Dx, Dy, Dz = (_axis_operator(n, spec.h * g / 2.0)
                  for n, g in zip((spec.nx, spec.ny, spec.nz), spec.convection, strict=True))
    # kronsum(A, B) runs A's index fastest: global index = i + nx*(j + ny*k)
    A = sp.kronsum(sp.kronsum(Dx, Dy), Dz)
    if spec.shift != 0.0:
        A = A - spec.shift * sp.identity(spec.n)
    return canonical(A)


def laplacian3d(spec: ProblemSpec) -> sp.csr_matrix:
    """Shifted 3D Laplacian: diagonal 6 - shift, -1 to the six neighbors."""
    if any(g != 0.0 for g in spec.convection):
        raise ValueError("laplacian3d requires zero convection")
    return convdiff3d(spec)


def count_negative_eigs_analytic(spec: ProblemSpec) -> int:
    """Number of negative eigenvalues of the shifted Laplacian, no matrix formed.

    The stencil eigenvalues are 6 - 2 cos(i pi hx) - 2 cos(j pi hy)
    - 2 cos(k pi hz) - shift over all grid index triples.
    """
    if any(g != 0.0 for g in spec.convection):
        raise ValueError("analytic count requires zero convection")
    cx = 2.0 - 2.0 * np.cos(np.arange(1, spec.nx + 1) * np.pi / (spec.nx + 1))
    cy = 2.0 - 2.0 * np.cos(np.arange(1, spec.ny + 1) * np.pi / (spec.ny + 1))
    cz = 2.0 - 2.0 * np.cos(np.arange(1, spec.nz + 1) * np.pi / (spec.nz + 1))
    lam = cx[:, None, None] + cy[None, :, None] + cz[None, None, :] - spec.shift
    return int(np.count_nonzero(lam < 0.0))


# the parameters of each problem kind, in the order a problem string lists them;
# lap3d is convdiff3d at zero convection
_USAGE = {"lap3d": "nx,ny,nz,shift", "convdiff3d": "nx,ny,nz,shift,gx,gy,gz"}


def parse_problem(text: str):
    """Parse a CLI problem string, ``kind:parameters`` as in _USAGE,
    into (ProblemSpec, matrix)."""
    try:
        kind, args = text.split(":", 1)
        values = [float(t) for t in args.split(",")]
    except ValueError:
        raise ValueError(f"malformed problem string '{text}'") from None
    if not np.all(np.isfinite(values)):
        raise ValueError(f"problem string '{text}' has a non-finite value")
    if any(v != int(v) for v in values[:3]):
        raise ValueError(f"problem string '{text}' has a non-integer grid extent")
    if kind not in _USAGE:
        raise ValueError(f"unknown problem kind '{kind}'")
    if len(values) != _USAGE[kind].count(",") + 1:
        raise ValueError(f"{kind} expects {_USAGE[kind]}")
    nx, ny, nz = (int(v) for v in values[:3])
    spec = ProblemSpec(nx, ny, nz, shift=values[3],
                       convection=tuple(values[4:]) or ProblemSpec.convection)
    return spec, convdiff3d(spec)

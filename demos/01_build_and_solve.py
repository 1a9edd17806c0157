"""Build the preconditioner for a shifted 3D Laplacian and solve one system.

The shift makes the operator indefinite (a handful of negative eigenvalues),
which is the regime this preconditioner targets: plain GMRES crawls, ILU on
the whole matrix struggles with the indefiniteness, but the interior/interface
split plus the corrected Schur-complement series brings the count down.

Run:  python demos/01_build_and_solve.py
"""

import numpy as np

from pslr import (
    PslrConfig,
    ProblemSpec,
    build,
    count_negative_eigs_analytic,
    gmres,
    laplacian3d,
)


def main():
    spec = ProblemSpec(20, 20, 20, shift=0.12)
    A = laplacian3d(spec)
    print(f"matrix: {A.shape[0]} rows, {A.nnz} nonzeros, "
          f"{count_negative_eigs_analytic(spec)} negative eigenvalues")

    rng = np.random.default_rng(0)
    b = A @ rng.standard_normal(A.shape[0])

    _, plain = gmres(lambda v: A @ v, None, b, tol=1e-8, maxit=500)
    print(f"unpreconditioned GMRES: converged={plain.converged} "
          f"in {plain.iterations} iterations")

    cfg = PslrConfig(num_subdomains=16, series_degree=3, rank=15, droptol=1e-2)
    P = build(A, cfg)
    st = P.stats
    print(f"preconditioner: {P.system.num_parts} subdomains, interface size "
          f"{P.system.q}, correction rank {P.correction.rank}")
    print(f"fill: ilu {st.fill_ilu:.2f} + low-rank {st.fill_lowrank:.2f} "
          f"= {st.fill_total:.2f} x nnz(A), built in {sum(P.stage_s):.2f}s")

    x, rep = gmres(lambda v: A @ v, P.apply_original, b, tol=1e-8)
    relres = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    print(f"preconditioned GMRES:   converged={rep.converged} "
          f"in {rep.iterations} iterations, true relres {relres:.2e}")


if __name__ == "__main__":
    main()

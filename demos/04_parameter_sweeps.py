"""Cost/benefit sweeps: series degree m and correction rank on one matrix.

Higher m buys fewer Krylov iterations at zero extra memory (the series is
applied matrix-free); higher rank adds dense storage (q*r + r^2 entries) but
targets exactly the modes the series damps slowest.  The ILU fill is shared
by every configuration, so it stays constant across both sweeps.

Run:  python demos/04_parameter_sweeps.py
"""

import numpy as np

from pslr import PslrConfig, ProblemSpec, build, gmres, laplacian3d


def main():
    A = laplacian3d(ProblemSpec(16, 16, 16, shift=0.1))
    b = A @ np.random.default_rng(0).standard_normal(A.shape[0])
    # one partition and one set of ILU factors; each row derives its correction
    base = build(A, PslrConfig(num_subdomains=12, series_degree=3, rank=30,
                               droptol=1e-2, seed=0))

    def solve(m, rank):
        P = base.recorrected(m, rank)
        _, rep = gmres(lambda v: A @ v, P.apply_original, b, tol=1e-8)
        return P, rep

    print("series-degree sweep (rank 15):")
    print(f"{'m':>3} {'iters':>6} {'fill_total':>11}")
    for m in range(6):
        P, rep = solve(m, 15)
        print(f"{m:>3} {rep.iterations:>6} {P.stats.fill_total:>11.3f}")

    print("\nrank sweep (m = 3):")
    print(f"{'rank':>5} {'iters':>6} {'fill_ilu':>9} {'fill_lowrank':>13}")
    for rank in (0, 5, 15, 30):
        P, rep = solve(3, rank)
        st = P.stats
        print(f"{rank:>5} {rep.iterations:>6} {st.fill_ilu:>9.3f} "
              f"{st.fill_lowrank:>13.3f}")
    print("\nfill_ilu is identical on every row: the factors are independent")
    print("of the correction, so rank only trades memory for iterations.")


if __name__ == "__main__":
    main()

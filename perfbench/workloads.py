"""Pinned benchmark workloads and the counts recorded for them.

Each workload fixes every input the program sees except the seed, which the
benchmark passes through as ``PslrConfig.seed`` (Arnoldi start vector) and as
the seed of the right-hand side ``b = A @ x_rand``, exactly as
``pslr solve --seed`` does.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "solve": one build + one GMRES; "sweep": `pslr sweep`
    problem: str                  # pslr problem string, e.g. lap3d:32,32,32,0.16
    s: int
    m: int
    rank: int                     # solve: requested rank; sweep: rank of the setup build
    droptol: float = 1e-2
    tol: float = 1e-8
    maxit: int = 500
    sweep_ranks: tuple = ()       # sweep only: the --values of `--axis rank`

    def config_kwargs(self, seed: int) -> dict:
        return dict(num_subdomains=self.s, series_degree=self.m, rank=self.rank,
                    droptol=self.droptol, seed=seed)

    def cli_args(self, seed: int, out: str | None = None) -> list:
        """Arguments of the `pslr` command line that runs this workload."""
        common = ["--problem", self.problem, "--s", str(self.s), "--m", str(self.m),
                  "--droptol", repr(self.droptol), "--krylov", "gmres",
                  "--tol", repr(self.tol), "--maxit", str(self.maxit), "--restart", "0",
                  "--seed", str(seed), *(["--out", out] if out else [])]
        if self.kind == "sweep":
            return ["sweep", *common, "--axis", "rank",
                    "--values", ",".join(str(r) for r in self.sweep_ranks)]
        return ["solve", *common, "--rank", str(self.rank)]


# Why each workload exists is recorded in README.md and BENCHMARK.json.
WORKLOADS = {w.name: w for w in [
    # ROADMAP baseline "L32" (criteria 07/08): indefinite, solve-bound.
    Workload("l32-indefinite", "solve", "lap3d:32,32,32,0.16", s=35, m=3, rank=15,
             droptol=1e-2),
    # Nonsymmetric definite convection-diffusion: setup-bound (ILUT, partition).
    Workload("cd40-setup", "solve", "convdiff3d:40,40,40,0.0,40,40,40", s=64, m=2, rank=5,
             droptol=1e-3),
    # `pslr sweep --axis rank`: one build prefix reused by six solves, via the cli layer.
    # Its setup build uses the largest swept rank, the Arnoldi run the sweep truncates.
    Workload("l20-rank-sweep", "sweep", "lap3d:20,20,20,0.12", s=16, m=3, rank=30,
             droptol=1e-2, sweep_ranks=(0, 5, 10, 15, 20, 30)),
    # Tiny instances for the harness self-test.
    Workload("tiny-solve", "solve", "lap3d:6,6,6,0.05", s=4, m=2, rank=3),
    Workload("tiny-sweep", "sweep", "lap3d:6,6,6,0.05", s=4, m=2, rank=4,
             sweep_ranks=(0, 2, 4)),
    Workload("tiny-starved", "solve", "lap3d:6,6,6,0.05", s=4, m=2, rank=3, maxit=2),
]}

# GMRES iterations and fill_total recorded for the default seed. For the sweep,
# iterations are summed over rows and fill_total is the largest-rank row's. A
# mismatch is a change of behaviour, not noise: both repeat exactly for a seed.
REFERENCE = {
    "l32-indefinite": {0: {"iterations": 145, "fill_total": 1.7385679472477065}},
    "cd40-setup": {0: {"iterations": 28, "fill_total": 2.1114438868613137}},
    "l20-rank-sweep": {0: {"iterations": 207, "fill_total": 2.632351}},
}

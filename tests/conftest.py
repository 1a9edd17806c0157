import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import strategies as st

# one "criterion NN PASS/FAIL" line per acceptance criterion, echoed in the
# terminal summary so a full run always shows every verdict
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)

import pslr
import pslr.ilu
from pslr.partition import classify_and_reorder, partition_graph
from pslr.problems import ProblemSpec, laplacian3d


def child_env():
    """Environment for a child interpreter that runs pslr.

    PYTHONPATH is the absolute directory holding the pslr imported here, so
    the child runs the same code whatever its working directory.
    """
    return {**os.environ, "PYTHONPATH": str(Path(pslr.__file__).resolve().parent.parent)}


@pytest.fixture
def shares(monkeypatch):
    """`shares(k)` makes `factor_blocks` cut any matrix into k shares, or one
    per block if fewer, by faking a k-CPU affinity mask and lifting the
    least nnz of a share.  It returns the list of the `os.fork` calls this
    process makes.  `factor_blocks` reads only the size of the mask and
    sets none, so the fake mask places no process."""
    fork = os.fork
    forks = []

    def counted_fork():
        forks.append(os.getpid())
        return fork()

    def force(k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))
        monkeypatch.setattr(pslr.ilu, "_SHARE_NNZ", 1)
        monkeypatch.setattr(os, "fork", counted_fork)
        return forks

    return force


def lap1d(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


def random_sparse(n, density=0.1, seed=0, diag_boost=4.0):
    """Random nonsymmetric sparse matrix with a dominant diagonal."""
    A = sp.random(n, n, density=density, random_state=seed, format="csr",
                  data_rvs=np.random.default_rng(seed).standard_normal)
    return (A + diag_boost * sp.identity(n)).tocsr()


@st.composite
def sparse_matrices(draw, max_n, per_row=4, scales=None):
    """Random square sparse matrices of finite values, n <= max_n: duplicates,
    explicit zeros, empty rows, and diagonals that may be zero or absent.
    Small integer values make exact cancellation, and so exact-zero fill,
    likely. With `scales`, every value is multiplied by one drawn from it."""
    n = draw(st.integers(1, max_n))
    coords = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    values = st.one_of(st.integers(-3, 3).map(float),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))
    entries = draw(st.lists(st.tuples(coords, values), max_size=per_row * n))
    diag = draw(st.lists(st.one_of(st.none(), values), min_size=n, max_size=n))
    scale = draw(st.sampled_from(scales)) if scales else 1.0
    rows = [i for (i, _), _ in entries] + [i for i, d in enumerate(diag) if d is not None]
    cols = [j for (_, j), _ in entries] + [i for i, d in enumerate(diag) if d is not None]
    vals = [v for _, v in entries] + [d for d in diag if d is not None]
    return sp.csr_matrix(([scale * v for v in vals], (rows, cols)), shape=(n, n))


def partitioned(A, s):
    return classify_and_reorder(A, partition_graph(A, s))


@pytest.fixture(scope="session")
def lap6_system():
    """1D Laplacian n=6 split into two halves: interfaces are {2, 3}."""
    A = lap1d(6)
    return A, partitioned(A, 2)


@pytest.fixture(scope="session")
def lap3d_small_system():
    A = laplacian3d(ProblemSpec(6, 6, 6))
    return A, partitioned(A, 4)

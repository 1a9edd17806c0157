import os
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

# one "criterion NN PASS/FAIL" line per acceptance criterion, echoed in the
# terminal summary so a full run always shows every verdict
ACCEPTANCE_VERDICTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_VERDICTS):
            terminalreporter.write_line(line)

import pslr
from pslr.partition import classify_and_reorder, partition_graph
from pslr.problems import ProblemSpec, laplacian3d


def child_env():
    """Environment for a child interpreter that runs pslr.

    PYTHONPATH is the absolute directory holding the pslr imported here, so
    the child runs the same code whatever its working directory; inherited
    PSLR_* defaults are dropped so they cannot change the run under test.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PSLR_")}
    env["PYTHONPATH"] = str(Path(pslr.__file__).resolve().parent.parent)
    return env


def lap1d(n):
    return sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


def random_sparse(n, density=0.1, seed=0, diag_boost=4.0):
    """Random nonsymmetric sparse matrix with a dominant diagonal."""
    A = sp.random(n, n, density=density, random_state=seed, format="csr",
                  data_rvs=np.random.default_rng(seed).standard_normal)
    return (A + diag_boost * sp.identity(n)).tocsr()


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

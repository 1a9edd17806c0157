"""Property tests: build and apply on random finite sparse matrices either
raise a documented error or give finite results, and `pslr solve` keeps its
exit-code contract on them."""

import contextlib
import io
import json
from functools import partial

import numpy as np
from hypothesis import given, settings, strategies as st

from pslr.cli import main
from pslr.lowrank import CorrectionSingularError
from pslr.preconditioner import PslrConfig, build
from pslr.sparse import write_matrix_market

from conftest import sparse_matrices

# the errors `build` documents for a square matrix of finite values
DOCUMENTED = (ValueError, CorrectionSingularError)


# n <= 40, values scaled over 16 orders of magnitude
_matrices = partial(sparse_matrices, 40, 5, [1e-8, 1.0, 1e8])


_configs = st.builds(PslrConfig, num_subdomains=st.sampled_from([1, 2, 3]),
                     series_degree=st.sampled_from([0, 1, 2]), rank=st.sampled_from([0, 2]),
                     droptol=st.sampled_from([1e-3, 1e-2]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(A=_matrices(), cfg=_configs)
def test_build_and_apply_are_finite(A, cfg):
    try:
        P = build(A, cfg)
    except DOCUMENTED:
        return
    rng = np.random.default_rng(A.shape[0])
    for _ in range(3):
        z = P.apply_original(rng.standard_normal(A.shape[0]))
        assert z.shape == (A.shape[0],) and np.isfinite(z).all()


def test_solve_exit_code_contract(tmp_path):
    """`pslr solve --matrix` exits 0 (converged), 1 (one `error:` line) or
    2 (not converged), and never lets an exception escape."""
    mtx, out = tmp_path / "a.mtx", tmp_path / "o.json"

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(A=_matrices(), cfg=_configs)
    def check(A, cfg):
        write_matrix_market(A, mtx)
        out.unlink(missing_ok=True)
        err = io.StringIO()
        # a nearly singular draw can overflow the preconditioner; GMRES then
        # reports the divergence, and numpy's own warnings are not the contract
        with contextlib.redirect_stderr(err), np.errstate(all="ignore"):
            code = main(["solve", "--matrix", str(mtx), "--s", str(cfg.num_subdomains),
                         "--m", str(cfg.series_degree), "--rank", str(cfg.rank),
                         "--droptol", str(cfg.droptol), "--out", str(out)])
        errors = [ln for ln in err.getvalue().splitlines() if ln.startswith("error:")]
        assert code in (0, 1, 2)
        if code == 1:
            assert len(errors) == 1 and not out.exists()
        else:
            assert errors == []
            assert json.loads(out.read_text())["converged"] is (code == 0)

    check()

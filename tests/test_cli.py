import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import pslr.cli
import pslr.preconditioner
from pslr.cli import build_parser, main
from pslr.diagnostics import dense_schur
from pslr.sparse import write_matrix_market

from conftest import child_env, lap1d

PROBLEM = "lap3d:6,6,6,0.0"


def run_solve(tmp_path, *extra):
    out = tmp_path / "stats.json"
    code = main(["solve", "--problem", PROBLEM, "--s", "4", "--rank", "6",
                 "--out", str(out), *extra])
    return code, json.loads(out.read_text()) if out.exists() else None


class TestSolve:
    def test_converged_run(self, tmp_path):
        code, stats = run_solve(tmp_path)
        assert code == 0
        assert stats["converged"] is True
        assert stats["final_relres"] <= 1e-8
        assert stats["its"] > 0

    def test_stats_schema(self, tmp_path):
        _, stats = run_solve(tmp_path)
        for key in ("its", "converged", "fill_ilu", "fill_lowrank", "fill_total",
                    "o_t", "p_t", "i_t", "t_t", "final_relres", "manifest"):
            assert key in stats
        assert stats["fill_total"] == pytest.approx(
            stats["fill_ilu"] + stats["fill_lowrank"])
        assert stats["manifest"]["problem"] == PROBLEM

    def test_nonconvergence_exit_code(self, tmp_path):
        code, stats = run_solve(tmp_path, "--maxit", "2", "--tol", "1e-14")
        assert code == 2
        assert stats["converged"] is False
        assert stats["its"] == 2

    def test_matrix_file_input(self, tmp_path):
        mtx = tmp_path / "a.mtx"
        write_matrix_market(lap1d(40), mtx)
        out = tmp_path / "o.json"
        code = main(["solve", "--matrix", str(mtx), "--s", "2", "--rank", "2",
                     "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["converged"] is True

    def test_matrix_and_problem_conflict(self, tmp_path, capsys):
        mtx = tmp_path / "a.mtx"
        write_matrix_market(lap1d(5), mtx)
        code = main(["solve", "--matrix", str(mtx), "--problem", PROBLEM])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_neither_input(self):
        assert main(["solve"]) == 1

    def test_missing_file(self):
        assert main(["solve", "--matrix", "/nonexistent/x.mtx"]) == 1

    def test_nonfinite_matrix_file(self, tmp_path, capsys):
        mtx = tmp_path / "nan.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 3 3\n"
                       "1 1 nan\n2 2 1.0\n3 3 1.0\n")
        assert main(["solve", "--matrix", str(mtx), "--s", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "1 non-finite entries" in err

    def test_cg_on_indefinite_is_an_error(self, capsys):
        code = main(["solve", "--problem", "lap3d:8,8,8,0.5", "--s", "4", "--krylov", "cg"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "not SPD" in err

    def test_singular_correction_is_an_error(self, tmp_path, capsys):
        # the path-graph Laplacian is singular, so at droptol 0 and a rank
        # that spans the interface, I - H is singular
        d = np.full(6, 2.0)
        d[[0, -1]] = 1.0
        mtx = tmp_path / "singular.mtx"
        write_matrix_market(lap1d(6) - sp.diags(2.0 - d), mtx)
        code = main(["solve", "--matrix", str(mtx), "--s", "2", "--m", "0",
                     "--rank", "10", "--droptol", "0"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "correction singular" in err

    def test_diverging_solve_is_an_error(self, tmp_path, capsys):
        # pivots of 1e-196 and 1e-115 beside entries of 3e8: the
        # preconditioner overflows, and GMRES stops on the non-finite values
        mtx = tmp_path / "overflow.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n6 6 6\n"
                       "1 1 2.6195489410610631e-196\n1 6 -300000000\n2 2 -300000000\n"
                       "3 3 200000000\n6 3 300000000\n6 6 -5.1349076380786693e-115\n")
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["solve", "--matrix", str(mtx), "--s", "2", "--m", "0",
                         "--rank", "0", "--droptol", "0.01"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "GMRES diverged" in err

    def test_matrix_without_entries_is_an_error(self, tmp_path, capsys):
        mtx = tmp_path / "empty.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n4 4 0\n")
        assert main(["solve", "--matrix", str(mtx), "--s", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no stored entries" in err

    def test_cg_on_spd(self, tmp_path):
        out = tmp_path / "o.json"
        code = main(["solve", "--problem", PROBLEM, "--s", "4", "--rank", "0",
                     "--krylov", "cg", "--out", str(out)])
        assert code == 0

    def test_partition_dump(self, tmp_path):
        pj = tmp_path / "parts.json"
        code, _ = run_solve(tmp_path, "--partition-out", str(pj))
        assert code == 0
        parts = json.loads(pj.read_text())
        assert len(parts) == 216 and set(parts) == {0, 1, 2, 3}

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSLR_MAXIT", "2")
        monkeypatch.setenv("PSLR_TOL", "1e-14")
        code, stats = run_solve(tmp_path)
        assert code == 2 and stats["its"] == 2

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PSLR_MAXIT", "2")
        code, stats = run_solve(tmp_path, "--maxit", "300", "--tol", "1e-8")
        assert code == 0 and stats["converged"] is True

    def test_manifest_fields(self, tmp_path):
        _, stats = run_solve(tmp_path)
        assert stats["manifest"] == {
            "matrix": None, "problem": PROBLEM, "s": 4, "m": 3, "rank": 6, "droptol": 0.01,
            "krylov": "gmres", "tol": 1e-8, "maxit": 500, "restart": 0, "seed": 0,
            "threads": 0, "out": str(tmp_path / "stats.json"), "partition_out": None,
            "axis": None, "values": [], "target": None}

    @pytest.mark.parametrize("env, args", [({}, ["--s", "abc"]),
                                           ({"PSLR_S": "abc"}, []),
                                           ({"PSLR_KRYLOV": "bogus"}, [])],
                             ids=["flag", "env-type", "env-choice"])
    def test_bad_value_is_a_usage_error(self, monkeypatch, capsys, env, args):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        assert_usage_error(capsys, ["solve", "--problem", PROBLEM, *args])


def assert_usage_error(capsys, argv):
    """`main(argv)` exits 1 with one `error:` line, before any work."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--target", "Err", "--krylov", "cg"],
    ["spectrum", "--target", "Err", "--tol", "1e-3"],
    ["spectrum", "--target", "Err", "--maxit", "2"],
    ["spectrum", "--target", "Err", "--restart", "5"],
    ["spectrum", "--target", "Err", "--partition-out", "x"],
    ["sweep", "--axis", "m", "--values", "1", "--partition-out", "x"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flag_rejected(capsys, argv):
    assert_usage_error(capsys, [*argv, "--problem", PROBLEM])


@pytest.mark.parametrize("command", ["solve", "sweep", "spectrum"])
def test_help_exits_0(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert "--droptol" in capsys.readouterr().out


class TestSweep:
    def _rows(self, text):
        lines = text.strip().splitlines()
        header = lines[0].split(",")
        return [dict(zip(header, l.split(","))) for l in lines[1:]]

    def test_m_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--problem", PROBLEM, "--s", "4", "--rank", "6",
                     "--axis", "m", "--values", "0,1,2", "--out", str(out)])
        assert code == 0
        rows = self._rows(out.read_text())
        assert [r["value"] for r in rows] == ["0", "1", "2"]
        assert all(r["converged"] == "True" for r in rows)
        # one set of ILU factors reused: identical fill on every row
        assert len({r["fill_ilu"] for r in rows}) == 1

    def test_rank_sweep_fill_grows(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--problem", PROBLEM, "--s", "4",
                     "--axis", "rank", "--values", "0,4,8", "--out", str(out)])
        assert code == 0
        rows = self._rows(out.read_text())
        fills = [float(r["fill_lowrank"]) for r in rows]
        assert fills[0] == 0.0 and fills[0] < fills[1] < fills[2]
        assert len({r["fill_ilu"] for r in rows}) == 1

    def test_s_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--problem", PROBLEM, "--rank", "4",
                     "--axis", "s", "--values", "2,4", "--out", str(out)])
        assert code == 0
        assert len(self._rows(out.read_text())) == 2

    def _sweep(self, tmp_path, *args):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--problem", PROBLEM, "--s", "4", "--rank", "6",
                     *args, "--out", str(out)]) == 0
        return self._rows(out.read_text())

    @staticmethod
    def _count_stages(monkeypatch):
        """Count the stage calls `build` and `recorrected` make; arnoldi by rank."""
        import pslr.preconditioner as pre
        calls = {"partition_graph": 0, "build_schur_context": 0}
        ranks = []
        for name in calls:
            def counted(*a, _fn=getattr(pre, name), _name=name, **k):
                calls[_name] += 1
                return _fn(*a, **k)
            monkeypatch.setattr(pre, name, counted)

        def counted_arnoldi(op, dim, rank, _fn=pre.arnoldi, **k):
            ranks.append(rank)
            return _fn(op, dim, rank, **k)
        monkeypatch.setattr(pre, "arnoldi", counted_arnoldi)
        return calls, ranks

    def _same_as_solve(self, tmp_path, row, *solve_args):
        _, stats = run_solve(tmp_path, *solve_args)
        assert int(row["its"]) == stats["its"]
        assert row["fill_total"] == f"{stats['fill_total']:.6f}"

    def test_m_rows_equal_solve(self, tmp_path):
        for row in self._sweep(tmp_path, "--axis", "m", "--values", "0,1,3"):
            self._same_as_solve(tmp_path, row, "--m", row["value"])

    def test_largest_rank_row_equals_solve(self, tmp_path):
        rows = self._sweep(tmp_path, "--axis", "rank", "--values", "2,8,5")
        self._same_as_solve(tmp_path, rows[1], "--rank", "8")

    def test_rank_above_interface_reuses_basis(self, tmp_path, monkeypatch):
        # n = 216, so Arnoldi stops at the interface dimension, far below 500
        _, ranks = self._count_stages(monkeypatch)
        rows = self._sweep(tmp_path, "--axis", "rank", "--values", "400,500")
        assert ranks == [500]
        assert rows[0]["fill_lowrank"] == rows[1]["fill_lowrank"]
        self._same_as_solve(tmp_path, rows[0], "--rank", "400")

    def test_m_sweep_builds_prefix_once(self, tmp_path, monkeypatch):
        calls, ranks = self._count_stages(monkeypatch)
        self._sweep(tmp_path, "--axis", "m", "--values", "0,1,2")
        assert calls == {"partition_graph": 1, "build_schur_context": 1}
        assert ranks == [0, 6, 6, 6]   # the rank-0 build, then one run per m

    def test_rank_sweep_runs_arnoldi_once(self, tmp_path, monkeypatch):
        calls, ranks = self._count_stages(monkeypatch)
        self._sweep(tmp_path, "--axis", "rank", "--values", "0,4,8")
        assert calls == {"partition_graph": 1, "build_schur_context": 1}
        assert ranks == [8]

    def test_bad_axis_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--problem", PROBLEM,
                                       "--axis", "q", "--values", "1"])


class TestSpectrum:
    def test_esc0inv_csv(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--problem", "lap3d:5,5,5,0.0", "--s", "4",
                     "--target", "EsC0inv", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "re,im"
        moduli = [abs(complex(float(r.split(",")[0]), float(r.split(",")[1])))
                  for r in rows[1:]]
        # sorted by modulus, and strictly inside the unit disk for sigma=0
        assert moduli == sorted(moduli, reverse=True)
        assert moduli[0] < 1.0

    def test_prec_spectrum_near_one(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--problem", "lap3d:5,5,5,0.0", "--s", "4",
                     "--m", "4", "--rank", "8", "--target", "precS",
                     "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().splitlines()[1:]
        eigs = np.array([complex(float(r.split(",")[0]), float(r.split(",")[1]))
                         for r in rows])
        assert np.median(np.abs(eigs - 1.0)) < 0.5

    @staticmethod
    def _eigs(text):
        rows = text.splitlines()
        assert rows[0] == "re,im"
        return np.array([complex(*map(float, r.split(","))) for r in rows[1:]])

    def test_stdout_equals_out_file(self, tmp_path, capsys):
        args = ["spectrum", "--problem", "lap3d:5,5,5,0.0", "--s", "4", "--target", "Err"]
        out = tmp_path / "spec.csv"
        assert main([*args, "--out", str(out)]) == 0
        assert main(args) == 0
        text = capsys.readouterr().out
        assert text == out.read_bytes().decode()
        assert "\r" not in text and text.endswith("\n")
        for row in text.splitlines()[1:]:
            re, im = row.split(",")
            float(re), float(im)

    @pytest.mark.parametrize("target, rtol", [("EsC0inv", 1e-12), ("Err", 1e-12),
                                              ("precS", 1e-7)])
    def test_exact_factors_match_dense_oracle(self, monkeypatch, capsys, target, rtol):
        """At --droptol 0 the built operators are the exact ones; they come from
        one `preconditioner.build`, not from the stages called on their own."""
        built = []

        def recording_build(*a, _fn=pslr.preconditioner.build, **k):
            built.append(_fn(*a, **k))
            return built[-1]

        def stage_not_allowed(*a, **k):
            raise AssertionError("spectrum must build through preconditioner.build")

        monkeypatch.setattr(pslr.preconditioner, "build", recording_build)
        for name in ("partition_graph", "classify_and_reorder", "build_schur_context",
                     "arnoldi", "build_correction"):
            monkeypatch.setattr(pslr.cli, name, stage_not_allowed)
        assert not hasattr(pslr.cli, "dense_schur")
        m = 4
        assert main(["spectrum", "--problem", "lap3d:5,5,5,0.0", "--s", "4", "--m", str(m),
                     "--rank", "8", "--droptol", "0", "--target", target]) == 0
        eigs = self._eigs(capsys.readouterr().out)
        [P] = built
        assert P.correction.rank == 8
        oracle = dense_schur(P.system)
        M = {"EsC0inv": lambda: oracle.Es @ oracle.C0inv,
             "Err": lambda: oracle.err_matrix(m),
             "precS": lambda: oracle.sapp_inv(m, P.correction.V, P.correction.G) @ oracle.S,
             }[target]()
        ref = np.linalg.eigvals(M)
        rho = np.abs(ref).max()
        assert eigs.size == ref.size == P.system.q
        assert np.abs(eigs[:, None] - ref[None, :]).min(axis=1).max() <= rtol * rho

    def test_droptol_changes_spectrum(self, capsys):
        args = ["spectrum", "--problem", "lap3d:5,5,5,0.0", "--s", "4", "--target", "EsC0inv"]
        assert main([*args, "--droptol", "0"]) == 0
        exact = self._eigs(capsys.readouterr().out)
        assert main(args) == 0
        ilut = self._eigs(capsys.readouterr().out)
        assert exact.size == ilut.size
        assert abs(np.abs(exact[0]) - np.abs(ilut[0])) > 1e-3

    def test_guard_exceeded(self):
        assert main(["spectrum", "--problem", "lap3d:20,20,20,0.0",
                     "--target", "EsC0inv"]) == 1

    def test_bad_target(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spectrum", "--problem", PROBLEM,
                                       "--target", "bogus"])


# every public name `pslr/__init__.py` has exported since the first release;
# the package resolves them lazily, so a typo there would only show on use
PUBLIC_NAMES = (
    "Permutation", "matvec", "permute_symmetric", "extract_submatrix",
    "read_matrix_market", "write_matrix_market", "MatrixMarketError",
    "PartitionSpec", "PartitionedSystem", "partition_graph", "classify_and_reorder",
    "IluFactor", "BlockILU", "ilut", "factor_blocks", "block_solve",
    "SchurContext", "build_schur_context", "apply_S", "apply_Es", "apply_neumann",
    "apply_Err",
    "LowRankCorrection", "CorrectionSingularError", "arnoldi", "build_correction",
    "apply_correction",
    "PslrConfig", "PslrPreconditioner", "FillStats", "build",
    "SolveReport", "NotSpdError", "gmres", "cg",
    "ProblemSpec", "laplacian3d", "convdiff3d", "count_negative_eigs_analytic",
    "DenseOracle", "SpectrumReport", "dense_schur", "spectrum", "delta_bound",
    "verify_bound", "emit_spectrum_csv",
    "__version__",
)


def _run_child(args):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=child_env())


def _assert_help(proc):
    assert proc.returncode == 0, proc.stderr
    for word in ("solve", "sweep", "spectrum"):
        assert word in proc.stdout


def test_public_names_resolve():
    import pslr
    for name in PUBLIC_NAMES:
        assert getattr(pslr, name) is not None, name
    assert set(PUBLIC_NAMES) - {"__version__"} <= set(pslr.__all__)


def test_perfbench_patch_points_exist():
    """perfbench/spans.py wraps names on pslr's modules and raises TraceCheckError
    when one is gone; a rename must fail here, not only in the benchmark."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    with spans.Tracer("t").patched():
        pass


def test_launcher_loads_no_numpy():
    """The launcher can only size the BLAS pool if numpy is not loaded yet."""
    proc = _run_child(["-c", "import sys, pslr._main; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_console_entry_point():
    """The `pslr` script that pyproject.toml declares runs and lists the commands."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["pslr"]
    module, func = target.split(":")
    code = (f"import importlib, sys; "
            f"sys.exit(importlib.import_module({module!r}).{func}())")
    _assert_help(_run_child(["-c", code, "--help"]))


@pytest.mark.skipif(shutil.which("pslr") is None, reason="pslr console script not installed")
def test_installed_console_script():
    _assert_help(subprocess.run([shutil.which("pslr"), "--help"],
                                capture_output=True, text=True))


class TestThreadsWarning:
    ARGS = ["solve", "--problem", "lap3d:4,4,4,0.0", "--s", "2", "--rank", "2"]

    def test_in_process_request_warns(self, tmp_path, monkeypatch, capsys):
        from pslr._main import _THREAD_VARS
        for var in _THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        code = main([*self.ARGS, "--threads", "2", "--out", str(tmp_path / "o.json")])
        assert code == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning:")]
        assert len(warnings) == 1 and "--threads 2" in warnings[0]
        assert json.loads((tmp_path / "o.json").read_text())["manifest"]["threads"] == 2

    def test_launcher_request_is_silent(self, tmp_path):
        out = tmp_path / "o.json"
        proc = _run_child(["-m", "pslr", *self.ARGS, "--threads", "1", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "warning:" not in proc.stderr
        assert json.loads(out.read_text())["manifest"]["threads"] == 1

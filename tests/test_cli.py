import importlib.util
import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import pslr.cli
import pslr.ilu
import pslr.preconditioner
from pslr.cli import build_parser, main
from pslr.diagnostics import dense_schur
from pslr.lowrank import CorrectionSingularError
from pslr.partition import partition_graph
from pslr.problems import parse_problem
from pslr.sparse import write_matrix_market

from conftest import child_env, lap1d

PROBLEM = "lap3d:6,6,6,0.0"


def run_solve(tmp_path, *extra):
    out = tmp_path / "stats.json"
    code = main(["solve", "--problem", PROBLEM, "--s", "4", "--rank", "6",
                 "--out", str(out), *extra])
    return code, json.loads(out.read_text()) if out.exists() else None


# every flag that names an output path, on each subcommand that reads it
OUTPUT_FLAGS = pytest.mark.parametrize("command", [
    ["solve", "--out"], ["solve", "--partition-out"],
    ["sweep", "--axis", "rank", "--values", "0", "--out"],
    ["spectrum", "--target", "Err", "--out"],
], ids=["solve-out", "solve-partition-out", "sweep-out", "spectrum-out"])


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
                    "o_t", "p_t", "i_t", "t_t", "final_relres", "history", "manifest"):
            assert key in stats
        assert len(stats["history"]) == stats["its"] + 1
        assert stats["history"][0] == 1.0 and stats["history"][-1] == stats["final_relres"]
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

    def test_scaled_matrix_file_converges(self, tmp_path):
        # GMRES's breakdown test is in the operator's units, so 1e12 * A does
        # not stop it after one step
        mtx = tmp_path / "a.mtx"
        write_matrix_market(1e12 * parse_problem("lap3d:10,10,10,0.3")[1], mtx)
        out = tmp_path / "o.json"
        code = main(["solve", "--matrix", str(mtx), "--s", "4", "--m", "2", "--rank", "5",
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

    def test_malformed_matrix_file(self, tmp_path, capsys):
        mtx = tmp_path / "short.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 1.0\n")
        assert main(["solve", "--matrix", str(mtx)]) == 1
        err = capsys.readouterr().err
        assert err == "error: line 3: declared 3 entries but found 1\n"

    @pytest.mark.parametrize("exc, message", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000001,)"),
         "Unable to allocate 7.28 TiB"),
        (MemoryError(), "MemoryError"),
    ], ids=["message", "bare"])
    def test_out_of_memory_is_an_error(self, monkeypatch, capsys, exc, message):
        # what a size line of 10^12 rows raises, without allocating anything
        def exhausted(path):
            raise exc
        monkeypatch.setattr(pslr.cli, "read_matrix_market", exhausted)
        assert main(["solve", "--matrix", "huge.mtx"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert message in err

    def test_out_of_memory_in_a_forked_share(self, monkeypatch, capsys, shares):
        shares(2)
        parent, ilut = os.getpid(), pslr.ilu.ilut

        def exhausted(block, droptol=1e-2):
            if os.getpid() != parent:
                raise MemoryError("Unable to allocate 8.00 GiB for the child's block")
            return ilut(block, droptol)
        monkeypatch.setattr(pslr.ilu, "ilut", exhausted)
        assert main(["solve", "--problem", "lap3d:12,12,12,0.05", "--s", "8"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 8.00 GiB for the child's block\n"
        assert captured.out == ""
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

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

    @pytest.mark.parametrize("error", [CorrectionSingularError])
    def test_breakdown_is_an_arithmetic_error(self, error):
        # the test above exits 1 because `main` catches ArithmeticError, one
        # of its four failure kinds, and does not name the class
        assert issubclass(error, ArithmeticError)
        assert error.__name__ not in vars(pslr.cli)

    def test_diverging_solve_is_an_error(self, tmp_path, capsys):
        # pivots of 1e-196 and 1e-115 beside entries of 3e8: the
        # preconditioner's apply overflows, and raises on the non-finite values
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
        assert "preconditioner diverged" in err

    def test_overflowing_series_residual_is_an_error(self, tmp_path, capsys):
        # diagonal 1e-6 beside off-diagonals of -1: at m=3 the Arnoldi H
        # already holds entries of 1e96, and at m=20 the series residual
        # operator overflows in the first Arnoldi step
        _, A = parse_problem("lap3d:6,6,6,0.0")
        A = A.tolil()
        A.setdiag(1e-6)
        mtx = tmp_path / "tiny_diagonal.mtx"
        write_matrix_market(A.tocsr(), mtx)
        with np.errstate(all="ignore"):
            code = main(["solve", "--matrix", str(mtx), "--s", "4", "--m", "20",
                         "--rank", "3"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Arnoldi diverged" in err

    @pytest.mark.parametrize("args", [
        ["solve"],
        ["sweep", "--axis", "rank", "--values", "1,2"],
    ], ids=["gmres", "sweep"])
    def test_matrix_near_overflow_is_one_error_line(self, capsys, args):
        # finite entries of 1e308: the first norm overflows, and numpy's
        # warning must not come before, or instead of, the one error line
        code = main([*args, "--problem", "lap3d:4,4,4,1e308", "--s", "2", "--rank", "2"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "diverged" in err

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads VmSize from /proc")
    def test_address_space_limit_is_an_error(self):
        # SuperLU reserves about 20 times the entries of each factor it is
        # given: 29 MiB of address space (2 MiB resident) for lap3d 20^3 at
        # s=16. 16 MiB above the child's size after its imports leaves room
        # for everything else the build allocates before SuperLU fails.
        code = textwrap.dedent("""
            import resource, sys
            import pslr.cli

            with open("/proc/self/status") as fh:
                size = next(int(l.split()[1]) for l in fh if l.startswith("VmSize:")) * 1024
            resource.setrlimit(resource.RLIMIT_AS,
                               (size + (16 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
            sys.exit(pslr.cli.main(["solve", "--problem", "lap3d:20,20,20,0.0", "--s", "16",
                                    "--rank", "5", "--out", "/dev/null"]))
        """)
        out = subprocess.run([sys.executable, "-c", code], env=child_env(),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 1, out.stderr
        assert out.stderr.startswith("error:") and out.stderr.count("\n") == 1, out.stderr
        assert "SuperLU" in out.stderr

    def test_matrix_without_entries_is_an_error(self, tmp_path, capsys):
        mtx = tmp_path / "empty.mtx"
        mtx.write_text("%%MatrixMarket matrix coordinate real general\n4 4 0\n")
        assert main(["solve", "--matrix", str(mtx), "--s", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "no stored entries" in err

    def test_partition_dump(self, tmp_path):
        pj = tmp_path / "parts.json"
        code, _ = run_solve(tmp_path, "--partition-out", str(pj))
        assert code == 0
        parts = json.loads(pj.read_text())
        assert len(parts) == 216 and set(parts) == {0, 1, 2, 3}
        # the dump, derived from the reordered system, is the partition itself
        assert parts == partition_graph(parse_problem(PROBLEM)[1], 4).tolist()

    def test_pslr_environment_is_ignored(self):
        # flags are the only way to set a run: PSLR_* variables left in the
        # shell, invalid ones included, change neither the run nor its manifest
        args = ["-m", "pslr", "solve", "--problem", "lap3d:6,6,6,0.05", "--s", "4",
                "--threads", "1"]
        leftover = {"PSLR_MAXIT": "2", "PSLR_DROPTOL": "inf", "PSLR_THREADS": "-3"}
        runs = [subprocess.run([sys.executable, *args], capture_output=True, text=True,
                               env=env, timeout=120)
                for env in (child_env(), {**child_env(), **leftover})]
        for proc in runs:
            assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        clean, polluted = (json.loads(proc.stdout) for proc in runs)
        for key in ("its", "fill_ilu", "fill_lowrank", "fill_total", "manifest"):
            assert polluted[key] == clean[key], key

    def test_times_come_from_stage_record(self):
        A = parse_problem(PROBLEM)[1]
        manifest = pslr.cli.RunManifest(problem=PROBLEM, s=4, rank=6)
        P = pslr.preconditioner.build(A, pslr.cli._config(manifest))
        for Q in (P, P.recorrected(2, 3)):
            _, report = pslr.cli._solve_with(A, Q, manifest)
            row = pslr.cli._stats_payload(Q, report, manifest)
            sec = Q.stage_s
            assert row["o_t"] == sec.order
            assert row["p_t"] == sec.factor + sec.arnoldi + sec.core
            assert row["i_t"] == report.time_s
            assert row["t_t"] == row["p_t"] + row["i_t"]
        # the recorrected row reuses P's factors and still counts their seconds
        assert sec.factor == P.stage_s.factor > 0.0 and row["p_t"] >= sec.factor

    def test_manifest_fields(self, tmp_path):
        _, stats = run_solve(tmp_path)
        assert stats["manifest"] == {
            "matrix": None, "problem": PROBLEM, "s": 4, "m": 3, "rank": 6, "droptol": 0.01,
            "krylov": "gmres", "tol": 1e-8, "maxit": 500, "restart": 0, "seed": 0,
            "threads": 0, "out": str(tmp_path / "stats.json"), "partition_out": None,
            "axis": None, "values": [], "target": None}

    @pytest.mark.parametrize("args", [
        ["--droptol", "nan"],
        ["--droptol", "inf"],
        ["--tol", "nan"],
        ["--tol", "-1"],
        ["--maxit", "-1"],
        ["--restart", "-2"],
        ["--tol", "inf"],
        ["--s", "0"],
        ["--m", "-1"],
        ["--rank", "-1"],
        ["--seed", "-1"],
        ["--droptol", "-1"],
        ["--threads", "-3"],
        ["--axis", "m", "--values", "3,-1"],
        ["--axis", "rank", "--values", "30,-1"],
        ["--axis", "s", "--values", "4,0"],
    ], ids=["droptol-nan", "droptol-inf", "tol-nan", "tol-negative", "maxit-negative",
            "restart-negative", "tol-inf", "s-zero",
            "m-negative", "rank-negative", "seed-negative", "droptol-negative",
            "threads-negative", "m-values", "rank-values", "s-values"])
    def test_bad_setting_is_an_error(self, capsys, monkeypatch, args):
        # rejected before the matrix is read, on every subcommand that reads the setting
        def not_read(manifest):
            raise AssertionError("matrix read before the settings were checked")
        monkeypatch.setattr(pslr.cli, "_load_matrix", not_read)
        if "--axis" in args:
            commands = [["sweep"]]
        else:   # a rank sweep does not read --rank, nor an m sweep --m
            axis = "m" if args[0] == "--rank" else "rank"
            commands = [["solve"], ["sweep", "--axis", axis, "--values", "0"]]
            if args[0] in ("--s", "--m", "--rank", "--seed", "--droptol", "--threads"):
                commands.append(["spectrum", "--target", "precS"])
        for command in commands:
            assert main([*command, "--problem", PROBLEM, "--s", "4", *args]) == 1
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured
            assert captured.out == ""

    @OUTPUT_FLAGS
    def test_missing_output_directory_is_an_error(self, capsys, monkeypatch, tmp_path, command):
        # rejected before the matrix is read, with the message the write would give
        def not_read(manifest):
            raise AssertionError("matrix read before the output path was checked")
        monkeypatch.setattr(pslr.cli, "_load_matrix", not_read)
        path = str(tmp_path / "missing" / "result")
        assert main([*command, path, "--problem", PROBLEM]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{path}'\n"
        assert list(tmp_path.iterdir()) == []

    @OUTPUT_FLAGS
    def test_output_path_that_is_a_directory_is_an_error(self, capsys, monkeypatch, tmp_path,
                                                         command):
        # rejected before the matrix is read, with the message the write would give
        def not_read(manifest):
            raise AssertionError("matrix read before the output path was checked")
        monkeypatch.setattr(pslr.cli, "_load_matrix", not_read)
        assert main([*command, str(tmp_path), "--problem", PROBLEM]) == 1
        assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("rank", ["0", "3"])
    def test_negative_seed_is_an_error(self, capsys, rank):
        # rejected before the build: at rank > 0, Arnoldi would hand it to numpy first
        assert main(["solve", "--problem", PROBLEM, "--s", "4", "--rank", rank,
                     "--seed", "-1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "seed" in err, err

    def test_non_integer_extent_is_an_error(self, capsys):
        assert main(["solve", "--problem", "lap3d:2.7,3,3,0", "--s", "2"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "integer" in err

    @pytest.mark.parametrize("args", [["--s", "abc"], ["--krylov", "bogus"], ["--thread", "1"],
                                      ["--axis", "s", "--values", "1,,2"]],
                             ids=["flag", "krylov-choice", "abbreviated-flag", "sweep-values"])
    def test_bad_value_is_a_usage_error(self, capsys, args):
        command = "sweep" if "--axis" in args else "solve"
        err = assert_usage_error(capsys, [command, "--problem", PROBLEM, *args])
        assert "<lambda>" not in err   # the one line names the type


def assert_usage_error(capsys, argv) -> str:
    """`main(argv)` exits 1 with one `error:` line, before any work; returns it."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    return err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--target", "Err", "--krylov", "gmres"],
    ["spectrum", "--target", "Err", "--tol", "1e-3"],
    ["spectrum", "--target", "Err", "--maxit", "2"],
    ["spectrum", "--target", "Err", "--restart", "5"],
    ["spectrum", "--target", "Err", "--partition-out", "x"],
    ["sweep", "--axis", "m", "--values", "1", "--partition-out", "x"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_unread_flag_rejected(capsys, argv):
    assert_usage_error(capsys, [*argv, "--problem", PROBLEM])


@pytest.mark.parametrize("command", [["solve"], ["sweep", "--axis", "rank", "--values", "0"]],
                         ids=["solve", "sweep"])
def test_cg_rejected(capsys, monkeypatch, command):
    # GMRES is the one accelerator: the preconditioner is not symmetric, so CG is no choice
    def not_read(manifest):
        raise AssertionError("matrix read for an accelerator that does not exist")
    monkeypatch.setattr(pslr.cli, "_load_matrix", not_read)
    with pytest.raises(SystemExit) as exc:
        main([*command, "--problem", PROBLEM, "--krylov", "cg"])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1, captured
    assert "'cg'" in captured.err and captured.out == ""


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
        assert ranks == [6, 6, 6]   # one run per m; the m=0 row reuses the build's run

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

    def test_correction_unused_by_target_is_not_built(self, tmp_path, capsys):
        # the singular correction of TestSolve::test_singular_correction_is_an_error
        # does not enter EsC0inv, so --rank cannot make its spectrum fail
        d = np.full(6, 2.0)
        d[[0, -1]] = 1.0
        mtx = tmp_path / "singular.mtx"
        write_matrix_market(lap1d(6) - sp.diags(2.0 - d), mtx)
        code = main(["spectrum", "--matrix", str(mtx), "--s", "2", "--m", "0",
                     "--rank", "10", "--droptol", "0", "--target", "EsC0inv"])
        assert code == 0
        eigs = self._eigs(capsys.readouterr().out)
        assert abs(eigs[0] - 1.0) < 1e-12

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
        # only precS applies the correction, so only its build makes one
        assert P.correction.rank == (8 if target == "precS" else 0)
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


# every public name `pslr/__init__.py` exports; the package resolves them
# lazily, so a typo there would only show on use
PUBLIC_NAMES = (
    "Permutation", "permute_symmetric", "extract_submatrix",
    "read_matrix_market", "write_matrix_market", "MatrixMarketError",
    "PartitionedSystem", "partition_graph", "classify_and_reorder",
    "IluFactor", "BlockILU", "ilut", "factor_blocks", "block_solve",
    "SchurContext", "build_schur_context", "apply_S", "apply_Es", "apply_neumann",
    "apply_Err",
    "LowRankCorrection", "CorrectionSingularError", "arnoldi", "build_correction",
    "apply_correction",
    "PslrConfig", "PslrPreconditioner", "FillStats", "build",
    "SolveReport", "gmres",
    "ProblemSpec", "laplacian3d", "convdiff3d", "count_negative_eigs_analytic",
    "DenseOracle", "SpectrumReport", "dense_schur", "spectrum", "delta_bound",
    "verify_bound",
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


def _perfbench_spans():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_perfbench_patch_points_exist():
    """perfbench/spans.py wraps names on pslr's modules and raises TraceCheckError
    when one is gone; a rename must fail here, not only in the benchmark."""
    spans = _perfbench_spans()
    with spans.Tracer("t").patched():
        pass


def test_perfbench_trace_contract_on_a_split_C0(tmp_path):
    """The tiny benchmark workloads factor C0 over every row; this solve's C0
    takes the bare-row split, and its trace must keep the contract too."""
    spans = _perfbench_spans()
    tr = spans.Tracer("split")
    with tr.patched(), tr.span("cli.main"):
        code = main(["solve", "--problem", "lap3d:8,8,8,0.05", "--s", "4", "--m", "2",
                     "--rank", "3", "--out", str(tmp_path / "o.json")])
    assert code == 0
    assert spans.check_structure(tr, m=2) == []
    (c0,) = [filu for kind, filu, *_ in tr._factors.values() if kind == "C0"]
    assert c0.coupled is not None and (c0.coupled.size, c0.n) == (74, 230)


@pytest.mark.parametrize("workload", ["tiny-solve", "tiny-sweep"])
def test_perfbench_trace_contract(workload):
    """perfbench/spans.py keys solve spans on the BlockILU object, reads its
    `L`, `U` and `n`, and requires one `block_solve` per B or C0 solve; a
    traced benchmark run exits 0 only while the library keeps that contract."""
    root = Path(__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "0", "--seconds", "1", "--trace", "1"],
                          cwd=root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_launcher_loads_no_numpy():
    """The launcher can only size the BLAS pool if numpy is not loaded yet."""
    proc = _run_child(["-c", "import sys, pslr._main; print('numpy' in sys.modules)"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_module_is_not_a_launch_path():
    """Run as a script, the cli would skip the launcher and its BLAS-thread
    rule, so it refuses, with one line that names the launcher, and does no work."""
    proc = _run_child(["-m", "pslr.cli", "solve", "--problem", "lap3d:6,6,6,0.05", "--s", "4"])
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1, proc.stderr
    assert "`pslr`" in proc.stderr and "`python -m pslr`" in proc.stderr
    assert proc.stdout == ""


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

    @pytest.mark.parametrize("limited, flags, exported", [
        (True, [], "1"), (True, ["--threads", "2"], "2"), (False, [], None)],
        ids=["limited", "limited-threads-flag", "unlimited"])
    def test_launcher_under_address_space_limit(self, tmp_path, monkeypatch, capsys,
                                                limited, flags, exported):
        """Under a finite RLIMIT_AS the launcher exports 1 BLAS thread, with one
        warning, unless --threads is given.  Run in-process with getrlimit
        patched: no process runs under a real limit, and as numpy is loaded
        already, only the exports and the warning are checked."""
        resource = pytest.importorskip("resource")
        from pslr._main import _THREAD_VARS, main as launch
        soft = 1 << 40 if limited else resource.RLIM_INFINITY
        monkeypatch.setattr(resource, "getrlimit", lambda which: (
            soft if which == resource.RLIMIT_AS else resource.RLIM_INFINITY,
            resource.RLIM_INFINITY))
        # the launcher writes os.environ: give it a copy without the thread variables
        monkeypatch.setattr(os, "environ", {k: v for k, v in os.environ.items()
                                            if k not in _THREAD_VARS})
        assert launch([*self.ARGS, *flags, "--out", str(tmp_path / "o.json")]) == 0
        assert [os.environ.get(var) for var in _THREAD_VARS] == [exported] * 4
        err = capsys.readouterr().err
        if limited and not flags:
            assert err.startswith("warning:") and err.count("\n") == 1, err
            assert "RLIMIT_AS" in err and "--threads" in err
        else:
            assert err == ""

    @staticmethod
    def _environ_without_thread_vars(monkeypatch):
        """Give the launcher, which writes os.environ, a copy without the thread variables."""
        from pslr._main import _THREAD_VARS
        monkeypatch.setattr(os, "environ", {k: v for k, v in os.environ.items()
                                            if k not in _THREAD_VARS})
        return _THREAD_VARS

    def test_launcher_reads_threads_with_equals(self, tmp_path, monkeypatch, capsys):
        from pslr._main import main as launch
        thread_vars = self._environ_without_thread_vars(monkeypatch)
        out = tmp_path / "o.json"
        assert launch([*self.ARGS, "--threads=2", "--out", str(out)]) == 0
        assert [os.environ.get(var) for var in thread_vars] == ["2"] * 4
        assert capsys.readouterr().err == ""
        assert json.loads(out.read_text())["manifest"]["threads"] == 2

    def test_launcher_non_integer_threads_is_a_usage_error(self, monkeypatch, capsys):
        from pslr._main import main as launch
        thread_vars = self._environ_without_thread_vars(monkeypatch)
        with pytest.raises(SystemExit) as exc:
            launch([*self.ARGS, "--threads", "abc"])
        assert exc.value.code == 1
        assert [os.environ.get(var) for var in thread_vars] == [None] * 4
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "--threads" in err, err

    def test_launcher_request_is_silent(self, tmp_path):
        out = tmp_path / "o.json"
        proc = _run_child(["-m", "pslr", *self.ARGS, "--threads", "1", "--out", str(out)])
        assert proc.returncode == 0, proc.stderr
        assert "warning:" not in proc.stderr
        assert json.loads(out.read_text())["manifest"]["threads"] == 1

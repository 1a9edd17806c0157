import importlib.util
import json
from pathlib import Path

from pslr.problems import parse_problem
from pslr.sparse import write_matrix_market

TOOL = Path(__file__).resolve().parents[1] / "tools" / "fingerprint.py"
spec = importlib.util.spec_from_file_location("fingerprint", TOOL)
fingerprint = importlib.util.module_from_spec(spec)
spec.loader.exec_module(fingerprint)

ARGS = ["lap3d:8,8,8,0.05", "4", "2", "3", "1e-2"]


def test_one_and_two_shares_give_the_same_fingerprint(shares, capsys):
    forks = shares(1)
    assert fingerprint.main(ARGS) == 0
    one = capsys.readouterr().out
    shares(2)
    assert fingerprint.main(ARGS) == 0
    two = capsys.readouterr().out
    assert len(forks) == 2   # B and C0 each factored in two processes
    assert one == two and one.count("\n") == 1
    record = json.loads(one)
    assert record["its"] > 0 and record["final_relres"] <= 1e-8
    assert all(len(record[key].split()) == 3 for key in ("assignment", "perm.forward", "V", "G",
                                                          "apply", "solution", "history"))
    # one history entry per iteration and the initial residual
    assert record["history"].endswith(f" float64 {record['its'] + 1}")
    assert record["pivot_repairs"] == 0


def test_matrix_market_file_gives_the_problem_fingerprint(tmp_path, capsys):
    path = tmp_path / "lap3d8.mtx"
    write_matrix_market(parse_problem(ARGS[0])[1], path)
    assert fingerprint.main(ARGS) == 0
    from_problem = capsys.readouterr().out
    assert fingerprint.main([str(path), *ARGS[1:]]) == 0
    assert capsys.readouterr().out == from_problem


def test_wrong_arguments_print_the_usage(capsys):
    assert fingerprint.main(ARGS[:4]) == 1
    assert "PROBLEM S M RANK DROPTOL" in capsys.readouterr().err


def test_workload_name_gives_its_settings_fingerprint(capsys):
    assert fingerprint.main(["tiny-solve"]) == 0
    by_name = capsys.readouterr().out
    assert fingerprint.main(["lap3d:6,6,6,0.05", "4", "2", "3", "0.01"]) == 0
    assert capsys.readouterr().out == by_name


def test_unknown_workload_prints_the_usage(capsys):
    assert fingerprint.main(["no-such-workload"]) == 1
    assert "WORKLOAD" in capsys.readouterr().err

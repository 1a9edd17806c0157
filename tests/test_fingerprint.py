import importlib.util
import json
from pathlib import Path

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
    assert all(len(record[key].split()) == 3 for key in ("V", "G", "apply", "solution"))


def test_wrong_arguments_print_the_usage(capsys):
    assert fingerprint.main(ARGS[:4]) == 1
    assert "PROBLEM S M RANK DROPTOL" in capsys.readouterr().err

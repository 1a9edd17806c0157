"""The suite's own pytest settings, as `pyproject.toml` sets them."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
'''


def test_failing_hypothesis_test_leaves_the_rest_running(tmp_path):
    # hypothesis's failure report imports code that warns, and the settings
    # make a warning an error: it must fail that one test, not stop the run
    (tmp_path / "test_probe.py").write_text(PROBE)
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "-c", str(PYPROJECT), "test_probe.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "INTERNALERROR" not in out.stdout + out.stderr, out.stdout
    assert "1 failed, 1 passed" in out.stdout, out.stdout

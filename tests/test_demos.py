"""Every script under demos/ runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import child_env

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_exits_zero(demo, tmp_path):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=child_env(), cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]

"""Every demo script runs to completion in a fresh interpreter."""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("[0-9][0-9]_*.py"))


def test_all_seven_demos_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05", "06", "07"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path, child_env):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          timeout=600, env=child_env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr

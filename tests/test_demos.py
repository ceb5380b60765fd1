"""Every script under demos/ runs to completion against this checkout.

Each runs in a subprocess from a scratch directory; conftest puts the
checkout's `src` on PYTHONPATH, so the demos import this tree.
"""

import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_found():
    assert DEMOS, "no scripts under demos/"


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(tmp_path, script):
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert "Traceback" not in res.stderr
    assert res.stdout

"""The measuring scripts under tools/ run and print what their docstrings say."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_op_faults_prints_costs_per_op():
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_faults.py"), "--src", str(ROOT / "src"),
         "--workload", "sampled-action", "--seed", "1", "--ops", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    head, *rows = res.stdout.splitlines()
    assert head == "# sampled-action seed=1 ops=3 after 10 warm-up ops"
    names = [row.split()[0] for row in rows]
    assert names == ["minor_faults_per_op", "user_s_per_op", "sys_s_per_op", "wall_s_per_op"]
    assert all(float(row.split()[1]) >= 0.0 for row in rows)

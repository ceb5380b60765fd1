"""The measuring scripts under tools/ run and print what their docstrings say."""

import hashlib
import importlib.util
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


def test_op_pairs_prints_both_sides_per_pair():
    src = str(ROOT / "src")
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "op_pairs.py"), "--src-a", src, "--src-b", src,
         "--workload", "sampled-action", "--seed", "1", "--ops", "3", "--pairs", "2"],
        capture_output=True, text=True, timeout=300,
    )
    assert res.returncode == 0, res.stderr
    head, *pairs, med_a, med_b, wins = res.stdout.splitlines()
    assert head == f"# sampled-action seed=1 ops=3 pairs=2 A={src} B={src}"
    # the tree that runs first alternates
    assert [row.split()[:3] for row in pairs] == [["pair", "0", "first=A"], ["pair", "1", "first=B"]]
    walls = [[float(row.split()[5]), float(row.split()[7])] for row in pairs]
    assert all(w > 0.0 for pair in walls for w in pair)
    # each side's CPU time per op, user + sys, stands beside its wall time
    for row in pairs:
        label, a, cpu_a, b, cpu_b = row.split()[8:]
        assert (label, a, b) == ("cpu_s_per_op", "A", "B")
        assert float(cpu_a) >= 0.0 and float(cpu_b) >= 0.0
    for side, row in zip("AB", (med_a, med_b)):
        words = row.split()
        assert words[0] == side and words[1::2] == ["median", "q1", "q3"]
        q1, median, q3 = float(words[4]), float(words[2]), float(words[6])
        assert q1 <= median <= q3
    b_wins = sum(b < a for a, b in walls)
    assert wins == f"B wins {b_wins} of 2"


def test_nufft_accuracy_prints_each_error_within_the_docstring_bounds():
    res = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "nufft_accuracy.py"), "--src", str(ROOT / "src"),
         "--n-max", "16", "--draws", "3"],
        capture_output=True, text=True, timeout=120,
    )
    assert res.returncode == 0, res.stderr
    head, *rows = res.stdout.splitlines()
    assert head == f"# nufft_accuracy n=4..16 draws=3 src={ROOT / 'src'}"
    errors = {row.split()[0]: float(row.split()[1]) for row in rows}
    # 1e-12 is the bound the docstrings of trig_interpolate and dilated_spectra state; closed-form
    # modes measure 4.9e-14 and a real interpolant's imaginary part is rounding
    bounds = {"circle_worst": 1e-12, "circle_closed_form_4096": 1e-13, "circle_closed_form_16384": 1e-13,
              "circle_real_out": 1e-14, "line_worst": 1e-12, "line_off_centre": 1e-12}
    assert list(errors) == list(bounds)
    assert all(0.0 <= errors[name] <= bound for name, bound in bounds.items())


def test_cli_digest_reruns_byte_identical():
    # the whole README command block, run twice from fresh inputs, gives the same bytes
    tool = ROOT / "tools" / "cli_digest.py"
    spec = importlib.util.spec_from_file_location("cli_digest", tool)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    runs = [subprocess.run([sys.executable, str(tool), "--src", str(ROOT / "src")],
                           capture_output=True, text=True, timeout=300) for _ in range(2)]
    assert [res.returncode for res in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    exits = [line for line in runs[0].stdout.splitlines() if line.endswith(".exit")]
    assert len(exits) == len(digest.readme_commands()) + len(digest.EXTRA)
    # and every command succeeds: two identical failures would prove nothing
    assert {line.split()[0] for line in exits} == {hashlib.md5(b"0").hexdigest()}

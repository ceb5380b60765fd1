"""End-to-end runs of the console entry point in a subprocess."""

import json
import os
import re
import shlex
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circlet import (CircleGrid, CircleSignal, LineGrid, LineScalogram, LineSignal, ScaleGrid, analyze, cli, cwt,
                     fourier_coeffs, make_dog, mode_synthesis, read_scalogram, read_signal, write_scalogram,
                     write_signal)

CMD = [sys.executable, "-m", "circlet.cli"]


def run(args, env_extra=None, cwd=None, umask=-1):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        CMD + args, capture_output=True, text=True, env=env, cwd=cwd, umask=umask
    )


def test_admissible_wavelet_exits_zero(tmp_path):
    out = tmp_path / "report.json"
    res = run(["admissibility", "--builtin", "dog:2", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert "admissible: yes" in res.stdout
    assert json.loads(out.read_text())["admissible"] is True


def test_constant_wavelet_exits_two():
    res = run(["admissibility", "--builtin", "constant"])
    assert res.returncode == 2
    assert "admissible: no" in res.stdout


def test_malformed_signal_exits_one(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("coord,re\n0.0,oops\n")
    side = tmp_path / "bad.meta.json"
    side.write_text(json.dumps({
        "schema": "circlet/signal-v1", "kind": "circle-midpoint",
        "n_samples": 1, "window": [-1.5707963, 1.5707963],
    }))
    res = run(["admissibility", "--wavelet", str(bad)])
    assert res.returncode == 1
    assert "line 2" in res.stderr


def test_usage_error_exits_one():
    res = run(["no-such-command"])
    assert res.returncode == 1


def test_aliased_mode_budget_exits_one():
    # n_max above n_samples/4 is an ill-posed question, not a negative verdict
    res = run(["admissibility", "--builtin", "dog:2", "--n-max", "600"])
    assert res.returncode == 1
    assert "admissible" not in res.stdout
    assert res.stderr.strip() == "circlet: error: n_max 600 exceeds n_samples/4 = 256"


def test_one_node_scale_grid_exits_one():
    res = run(["admissibility", "--builtin", "dog:2", "--scale-count", "1"])
    assert res.returncode == 1
    assert res.stderr.strip() == "circlet: error: need at least 2 scale nodes, got 1"


def test_non_half_integer_weight_exits_one():
    res = run(["laguerre", "--k", "0.7"])
    assert res.returncode == 1
    assert res.stderr.strip() == "circlet: error: weight must be a half-integer, got 0.7"


def test_repeated_runs_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a.json", tmp_path / "b.json"
    res_a = run(["admissibility", "--builtin", "dog:2", "--out", str(out_a)])
    res_b = run(["admissibility", "--builtin", "dog:2", "--out", str(out_b)])
    assert res_a.returncode == res_b.returncode == 0
    assert res_a.stdout == res_b.stdout
    assert out_a.read_bytes() == out_b.read_bytes()


def test_cwt_icwt_round_trip(tmp_path):
    grid = CircleGrid(256)
    sig = CircleSignal(grid, (np.cos(2 * grid.nodes) + 0.5 * np.sin(4 * grid.nodes)).astype(complex))
    sig_path = tmp_path / "sig.csv"
    write_signal(sig_path, sig)

    report = tmp_path / "report.json"
    assert run(["admissibility", "--builtin", "dog:2", "--out", str(report)]).returncode == 0

    stem = tmp_path / "scal"
    res = run([
        "cwt", "--builtin", "dog:2", "--signal", str(sig_path),
        "--scale-min", "1e-3", "--scale-max", "1e3", "--scale-count", "400",
        "--out", str(stem),
    ])
    assert res.returncode == 0, res.stderr
    assert (tmp_path / "scal.json").exists()

    rec_path = tmp_path / "rec.csv"
    res = run([
        "icwt", "--scalogram", str(stem), "--report", str(report),
        "--out", str(rec_path),
    ])
    assert res.returncode == 0, res.stderr
    rec = read_signal(rec_path)
    err = np.linalg.norm(rec.values - sig.values) / np.linalg.norm(sig.values)
    assert err < 1e-2


def _pipeline_inputs(tmp_path, n=256):
    grid = CircleGrid(n)
    sig = CircleSignal(grid, (np.cos(2 * grid.nodes) + 0.5 * np.sin(4 * grid.nodes)).astype(complex))
    sig_path = tmp_path / "sig.csv"
    write_signal(sig_path, sig)
    return sig_path


def test_cwt_reruns_byte_identical(tmp_path):
    sig_path = _pipeline_inputs(tmp_path)
    outputs = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        res = run(["cwt", "--builtin", "dog:2", "--signal", str(sig_path),
                   "--scale-count", "40", "--out", str(tmp_path / name / "scal")])
        assert res.returncode == 0, res.stderr
        outputs.append([(tmp_path / name / f).read_bytes() for f in ("scal.json", "scal.npy")])
        assert sorted(os.listdir(tmp_path / name)) == ["scal.json", "scal.npy"]
    assert outputs[0] == outputs[1]


@pytest.mark.skipif(os.name != "posix", reason="umask and file modes are POSIX")
def test_outputs_take_the_umask_mode(tmp_path):
    # the mode a plain open(path, "w") gives: 0o666 less the umask
    sig_path = _pipeline_inputs(tmp_path)
    contents = []
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        out = tmp_path / f"umask{umask:03o}"
        out.mkdir()
        for args in (
            ["admissibility", "--builtin", "dog:2", "--scale-count", "40", "--out", str(out / "report.json")],
            ["cwt", "--builtin", "dog:2", "--signal", str(sig_path), "--scale-count", "40",
             "--out", str(out / "scal")],
            ["icwt", "--scalogram", str(out / "scal"), "--report", str(out / "report.json"),
             "--out", str(out / "rec.csv")],
        ):
            res = run(args, umask=umask)
            assert res.returncode == 0, res.stderr
        names = sorted(os.listdir(out))
        table = json.loads((out / "report.json").read_text())["table"]["payload"]
        assert re.fullmatch(r"table-[0-9a-f]{16}\.npy", table)
        assert names == ["rec.csv", "rec.meta.json", "report.json", "scal.json", "scal.npy", table]
        assert {n: stat.filemode(os.stat(out / n).st_mode) for n in names} == dict.fromkeys(
            names, stat.filemode(stat.S_IFREG | mode))
        contents.append([(out / n).read_bytes() for n in names])
    assert contents[0] == contents[1]


@pytest.mark.parametrize("mixup", ["report", "wavelet"])
def test_icwt_refuses_inputs_of_another_wavelet(tmp_path, mixup):
    # a dog:3 report with a dog:2 scalogram and wavelet, or a dog:2 report
    # and scalogram reconstructed with dog:3; either must not reconstruct
    sig_path = _pipeline_inputs(tmp_path)
    report_wavelet, icwt_wavelet = ("dog:3", "dog:2") if mixup == "report" else ("dog:2", "dog:3")
    report = tmp_path / "report.json"
    run(["admissibility", "--builtin", report_wavelet, "--scale-count", "40", "--out", str(report)])
    assert report.exists()
    stem = tmp_path / "scal"
    res = run(["cwt", "--builtin", "dog:2", "--signal", str(sig_path), "--scale-count", "40",
               "--out", str(stem)])
    assert res.returncode == 0, res.stderr
    res = run(["icwt", "--builtin", icwt_wavelet, "--scalogram", str(stem),
               "--report", str(report), "--out", str(tmp_path / "rec.csv")])
    assert res.returncode == 1
    what = "report" if mixup == "report" else "scalogram"
    assert res.stderr.startswith(f"circlet: error: the {what} belongs to another wavelet")
    assert "Traceback" not in res.stderr
    assert not (tmp_path / "rec.csv").exists()


def _in_process(args, capsys):
    rc = cli.main(args)
    out, err = capsys.readouterr()
    return rc, out, err


def _icwt_args(where, report="report.json", out="rec.csv"):
    return ["icwt", "--scalogram", str(where / "scal"), "--report", str(where / report),
            "--out", str(where / out)]


def test_icwt_builds_no_table_with_the_reports(tmp_path, capsys, monkeypatch):
    # the report carries the coefficient table of its scale grid: icwt on
    # that grid builds none, and on another grid builds the one it needs
    sig_path = _pipeline_inputs(tmp_path)
    for args in (["admissibility", "--out", str(tmp_path / "report.json")],
                 ["admissibility", "--scale-count", "40", "--out", str(tmp_path / "other.json")],
                 ["cwt", "--signal", str(sig_path), "--out", str(tmp_path / "scal")]):
        assert _in_process(args, capsys)[0] == 0
    builds = []
    build = cwt._dilated_table
    monkeypatch.setattr(cwt, "_dilated_table", lambda *a: builds.append(a) or build(*a))
    want = read_signal(sig_path).values
    # the 40-node report's lambdas are not the quadrature of the scalogram's
    # 400 nodes, so its reconstruction is close, not exact
    for report, count, tol in (("report.json", 0, 1e-12), ("other.json", 1, 1e-4)):
        cwt._memo_table.cache_clear()
        builds.clear()
        rc, out, err = _in_process(_icwt_args(tmp_path, report), capsys)
        assert (rc, err) == (0, "")
        assert len(builds) == count, report
        assert out.startswith("reanalysis relative error: ")
        rec = read_signal(tmp_path / "rec.csv").values
        assert np.linalg.norm(rec - want) / np.linalg.norm(want) < tol, report


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A report with its table and a scalogram, both on a 40-node scale grid."""
    where = tmp_path_factory.mktemp("pipeline")
    sig_path = _pipeline_inputs(where)
    for args in (["admissibility", "--scale-count", "40", "--out", str(where / "report.json")],
                 ["cwt", "--signal", str(sig_path), "--scale-count", "40", "--out", str(where / "scal")]):
        assert cli.main(args) == 0
    return where


def _copy_pipeline(src, dst):
    for path in src.iterdir():
        (dst / path.name).write_bytes(path.read_bytes())
    return json.loads((dst / "report.json").read_text())


def _table_payload(where, report):
    return where / report["table"]["payload"]


def test_icwt_refuses_a_report_without_its_table(small_pipeline, tmp_path):
    # every report carries its table: one without the table object is malformed, and nothing is written
    report = _copy_pipeline(small_pipeline, tmp_path)
    del report["table"]
    (tmp_path / "bare.json").write_text(json.dumps(report, indent=1) + "\n")
    res = run(_icwt_args(tmp_path, "bare.json"))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"circlet: error: malformed report {tmp_path / 'bare.json'}: 'table'"]
    assert not (tmp_path / "rec.csv").exists()


def test_icwt_refuses_a_band_its_angles_cannot_hold_and_writes_nothing(small_pipeline, tmp_path):
    # a 16-angle scalogram holds |n| <= 4; its header is patched to 64, which
    # the payload's sha256 does not cover
    _copy_pipeline(small_pipeline, tmp_path)
    grid = CircleGrid(16)
    sig = CircleSignal(grid, np.cos(2 * grid.nodes) + 0.5 * np.sin(4 * grid.nodes))
    write_scalogram(tmp_path / "scal", analyze(sig, make_dog(2.0), scales=ScaleGrid(1e-3, 1e3, 40), n_max=4))
    header = tmp_path / "scal.json"
    header.write_text(json.dumps({**json.loads(header.read_text()), "n_max": 64}))
    res = run(_icwt_args(tmp_path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"circlet: error: malformed scalogram {header}: "
                                       "n_max 64 exceeds n_samples/4 = 4"]
    assert not (tmp_path / "rec.csv").exists()


def _mode_held_16_angles(small_pipeline, where, n_angles):
    """The pipeline's report beside a 16-angle, |n| <= 4 scalogram whose header says n_angles."""
    _copy_pipeline(small_pipeline, where)
    grid = CircleGrid(16)
    sig = CircleSignal(grid, np.cos(2 * grid.nodes) + 0.5 * np.sin(4 * grid.nodes))
    write_scalogram(where / "scal", analyze(sig, make_dog(2.0), scales=ScaleGrid(1e-3, 1e3, 40), n_max=4))
    header = where / "scal.json"
    header.write_text(json.dumps({**json.loads(header.read_text()), "n_angles": n_angles}))
    return header


def test_icwt_samples_a_mode_held_scalogram_on_its_header_angles(small_pipeline, tmp_path, capsys):
    # no payload shape binds a mode-held file's n_angles: it is the grid the
    # band's modes are sampled on, any even N >= 4 n_max
    _mode_held_16_angles(small_pipeline, tmp_path, 16)
    assert _in_process(_icwt_args(tmp_path, out="rec16.csv"), capsys)[::2] == (0, "")
    _mode_held_16_angles(small_pipeline, tmp_path, 32)
    rc, out, err = _in_process(_icwt_args(tmp_path, out="rec32.csv"), capsys)
    assert (rc, err) == (0, "")
    assert float(out.split(": ")[1]) < 1e-13
    rec16, rec32 = read_signal(tmp_path / "rec16.csv"), read_signal(tmp_path / "rec32.csv")
    assert rec32.grid == CircleGrid(32)
    want = mode_synthesis(CircleGrid(32), fourier_coeffs(rec16, 4)).values
    assert np.max(np.abs(rec32.values - want)) <= 1e-14 * np.max(np.abs(want))


def test_icwt_refuses_header_angles_below_the_band_and_writes_nothing(small_pipeline, tmp_path):
    header = _mode_held_16_angles(small_pipeline, tmp_path, 6)
    res = run(_icwt_args(tmp_path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"circlet: error: malformed scalogram {header}: "
                                       "n_max 4 exceeds n_samples/4 = 1"]
    assert not (tmp_path / "rec.csv").exists()


def test_icwt_refuses_a_line_scalogram_and_writes_nothing(small_pipeline, tmp_path):
    _copy_pipeline(small_pipeline, tmp_path)
    grid = LineGrid(-8.0, 8.0, 64)
    write_scalogram(tmp_path / "scal", LineScalogram(ScaleGrid(1e-3, 1e3, 40), grid, np.ones((40, 64))))
    res = run(_icwt_args(tmp_path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.splitlines() == [f"circlet: error: {tmp_path / 'scal'} holds a line scalogram, "
                                       "need a circle scalogram"]
    assert not (tmp_path / "rec.csv").exists()


def _flip_payload_byte(where, report):
    data = bytearray(_table_payload(where, report).read_bytes())
    data[-5] ^= 0x10
    _table_payload(where, report).write_bytes(bytes(data))


def _wrong_shape(where, report):
    report["table"]["shape"][1] += 1


def _disagreeing_lambda(where, report):
    report["lambda"][3]["value"] *= 1.0 + 1e-9


def _missing_payload(where, report):
    _table_payload(where, report).unlink()


def _payload_with_separator(where, report):
    # a good copy of the payload, one directory down
    (where / "sub").mkdir()
    (where / "sub" / report["table"]["payload"]).write_bytes(_table_payload(where, report).read_bytes())
    report["table"]["payload"] = "sub/" + report["table"]["payload"]


@pytest.mark.parametrize("corrupt, says", [
    (_flip_payload_byte, "sha256"),
    (_wrong_shape, "shape"),
    (_disagreeing_lambda, "disagree with the lambdas"),
    (_missing_payload, "cannot read payload"),
    (_payload_with_separator, "must be a bare file name"),
])
def test_icwt_refuses_a_corrupt_table(small_pipeline, tmp_path, corrupt, says):
    report = _copy_pipeline(small_pipeline, tmp_path)
    corrupt(tmp_path, report)
    (tmp_path / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    res = run(_icwt_args(tmp_path))
    assert res.returncode == 1
    assert res.stdout == ""
    assert len(res.stderr.splitlines()) == 1 and res.stderr.startswith("circlet: error: ")
    assert says in res.stderr
    assert not (tmp_path / "rec.csv").exists()


def test_import_leaves_scipy_unloaded():
    # neither the import nor the half-line commands, which run the
    # Gauss-Laguerre rule, load scipy
    for argv in ([], ["laguerre", "--k", "1.5", "--n-max", "8"], ["laplace"]):
        probe = (f"import sys, circlet.cli; rc = circlet.cli.main({argv}) if {argv} else 0; "
                 "print(sorted(m for m in sys.modules if m.startswith('scipy'))); sys.exit(rc)")
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.splitlines()[-1] == "[]", argv


def test_admissibility_default_n_max_follows_grid(tmp_path):
    # --n-max defaults to min(64, n_samples/4), as for cwt
    out = tmp_path / "report.json"
    res = run(["admissibility", "--builtin", "dog:2", "--n-samples", "128", "--out", str(out)])
    assert res.returncode == 0, res.stderr
    assert "admissible: yes" in res.stdout
    report = json.loads(out.read_text())
    assert [e["n"] for e in report["lambda"]] == list(range(-32, 33))
    assert report["plateau_ok"] is True
    res = run(["frame", "--builtin", "dog:2", "--n-samples", "128"])
    assert res.returncode == 0, res.stderr
    res = run(["admissibility", "--builtin", "dog:2", "--n-samples", "128", "--n-max", "33"])
    assert res.returncode == 1
    assert res.stderr.strip() == "circlet: error: n_max 33 exceeds n_samples/4 = 32"


@pytest.mark.parametrize("args, env, says", [
    (["no-such-command"], None, "invalid choice"),
    (["admissibility", "--n-max", "q"], None, "--n-max"),
    (["euclid", "--R-list", "10,x"], None, "--R-list"),
    (["euclid", "--pairs", "0.7:2.0,-1.0"], None, "--pairs"),
    (["euclid", "--pairs", "0.7:x"], None, "--pairs"),
    (["laplace", "--points", "grid:5"], None, "--points"),
    (["laplace", "--points", "random:x"], None, "--points"),
    (["admissibility", "--builtin", "dog:x"], None, "dog ratio"),
    (["admissibility", "--builtin", "dog:2:odd"], None, "balanced or unbalanced"),
    (["admissibility", "--builtin", "nope"], None, "unknown circle builtin"),
    (["cwt", "--signal", "{line}", "--out", "{tmp}/scal"], None, "holds a line signal"),
    (["admissibility"], {"CIRCLET_THREADS": "abc"}, "CIRCLET_THREADS"),
    (["admissibility"], {"CIRCLET_THREADS": "0"}, "CIRCLET_THREADS"),
    (["admissibility", "--scale-count", "1"], None, "2 scale nodes"),
    # a 1.79 EiB table: larger than any address space, so it fails at once
    (["admissibility", "--scale-count", "1000000000000000"], None, "Unable to allocate"),
    # a 7.11 PiB grid: a builtin wavelet refuses it when its samples are first read
    (["admissibility", "--n-samples", "1000000000000000", "--out", "{tmp}/report.json"], None,
     "Unable to allocate"),
    (["euclid", "--n-samples", "1000000000000000"], None, "Unable to allocate"),
    (["admissibility", "--n-max", "0"], None, "n_max must be at least 1, got 0"),
    # 1e400 reads as inf: an ill-posed question, not a negative verdict
    (["admissibility", "--scale-max", "1e400"], None, "need 0 < a_min < a_max < inf, got [0.001, inf]"),
    # a finite a_max whose ratio to a_min is not: the log spacing would be inf
    (["admissibility", "--scale-max", "1e306", "--scale-count", "40"], None,
     "a_max / a_min overflows, got [0.001, 1e+306]"),
    (["euclid", "--R-list", "inf,10"], None, "radius must be positive and finite, got inf"),
    (["euclid", "--pairs", "0.7:nan"], None, "dilation must be positive and finite, got nan"),
    # line-cwt reads its inputs before it judges the wavelet
    (["line-cwt", "--builtin", "gauss", "--signal", "{tmp}/missing.csv"], None, "cannot read signal"),
    (["line-cwt", "--builtin", "gauss", "--signal", "{line}", "--scale-min", "-1"], None,
     "need 0 < a_min < a_max < inf, got [-1.0, "),
    # a question about no mode or no point is refused, not answered with 0.0
    (["laguerre", "--n-max", "-1"], None, "argument --n-max: must be at least 0, got -1"),
    (["laplace", "--n-max", "-1"], None, "argument --n-max: must be at least 0, got -1"),
    (["laplace", "--points", "random:0"], None,
     "argument --points: must look like random:N with N at least 1, got 'random:0'"),
    # modes the 128-node Gauss-Laguerre rule cannot integrate: the gram is not
    # the identity, and a huge --n-max would loop for hours
    (["laguerre", "--k", "1.5", "--n-max", "127"], None,
     "n_max 127 at k = 1.5 is beyond the 128-node Gauss-Laguerre rule, exact only while 2 n_max + 2k - 1 <= 255"),
    (["laplace", "--n-max", "128"], None,
     "n_max 128 at k = 1.0 is beyond the 128-node Gauss-Laguerre rule, exact only while 2 n_max + 2k - 1 <= 255"),
], ids=["subcommand", "n-max", "R-list", "pairs-arity", "pairs-value", "points-kind", "points-count",
        "dog-ratio", "dog-variant", "builtin", "line-signal", "threads-abc", "threads-0", "scale-count",
        "scale-memory", "wavelet-memory", "euclid-memory", "n-max-0", "scale-max-inf", "scale-ratio-inf",
        "R-list-inf", "pairs-nan",
        "line-cwt-missing-signal", "line-cwt-scale-min", "laguerre-n-max", "laplace-n-max", "points-zero", "laguerre-rule", "laplace-rule"])
def test_refusals_share_one_shape(tmp_path, args, env, says):
    line = tmp_path / "line.csv"
    write_signal(line, LineSignal.from_evaluator(LineGrid(-8.0, 8.0, 64), lambda x: np.exp(-x * x)))
    res = run([a.format(line=line, tmp=tmp_path) for a in args], env_extra=env)
    assert res.returncode == 1
    assert res.stdout == ""
    assert "Traceback" not in res.stderr
    last = res.stderr.splitlines()[-1]
    assert last.startswith("circlet: error: ") and says in last
    assert sorted(os.listdir(tmp_path)) == ["line.csv", "line.meta.json"]


def test_malformed_sidecar_field_exits_one(tmp_path):
    line = tmp_path / "line.csv"
    write_signal(line, LineSignal.from_evaluator(LineGrid(-8.0, 8.0, 64), lambda x: np.exp(-x * x)))
    side = tmp_path / "line.meta.json"
    side.write_text(json.dumps({**json.loads(side.read_text()), "window": 5}))
    res = run(["line-cwt", "--signal", str(line)])
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert len(res.stderr.splitlines()) == 1
    assert res.stderr.startswith(f"circlet: error: malformed sidecar {side}: ")


@pytest.mark.parametrize("args, says", [
    (["--n-samples", "128"], "n_max 64 exceeds n_samples/4 = 32"),
    (["--n-max", "-3"], "n_max must be at least 1, got -3"),
])
def test_cwt_refuses_modes_the_grids_do_not_resolve(tmp_path, args, says):
    # a 128-sample wavelet resolves |n| <= 32, short of a 1024-sample signal's 64
    sig_path = _pipeline_inputs(tmp_path, n=1024)
    res = run(["cwt", "--builtin", "dog:2", "--signal", str(sig_path), "--scale-count", "40",
               "--out", str(tmp_path / "scal"), *args])
    assert res.returncode == 1
    assert res.stderr.splitlines() == [f"circlet: error: {says}"]
    assert sorted(os.listdir(tmp_path)) == ["sig.csv", "sig.meta.json"]


def test_undecodable_signal_exits_one(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"coord,re\n0.0,\xff\n")
    res = run(["cwt", "--signal", str(bad), "--out", str(tmp_path / "scal")])
    assert res.returncode == 1
    assert "Traceback" not in res.stderr
    assert res.stderr.splitlines() == [f"circlet: error: line 2: {bad}: byte 0xff is not UTF-8"]


def _write_packet(path):
    """cos(5x) e^{-x^2/2} on the default line window [-16, 16), 2048 samples."""
    grid = LineGrid(-16.0, 16.0, 2048)
    write_signal(path, LineSignal.from_evaluator(grid, lambda x: np.cos(5.0 * x) * np.exp(-0.5 * x * x)))


def _round_trip_error(stdout):
    return float(re.search(r"round trip relative error: (\S+)", stdout).group(1))


def test_line_cwt_round_trip_writes_the_scalogram(tmp_path):
    _write_packet(tmp_path / "line.csv")
    args = ["line-cwt", "--builtin", "mexican-hat", "--signal", str(tmp_path / "line.csv"),
            "--scale-min", "1e-2", "--scale-max", "1e2", "--scale-count", "200", "--roundtrip"]
    first = run(args + ["--out", str(tmp_path / "a")])
    assert first.returncode == 0, first.stderr
    assert _round_trip_error(first.stdout) < 1e-2
    scal = read_scalogram(tmp_path / "a")
    assert isinstance(scal, LineScalogram)
    assert scal.values.shape == (200, 2048)
    second = run(args + ["--out", str(tmp_path / "b")])
    assert second.stdout == first.stdout.replace(str(tmp_path / "a"), str(tmp_path / "b"))
    for ext in (".npy", ".json"):
        a, b = (tmp_path / f"{stem}{ext}" for stem in "ab")
        assert a.read_bytes() == b.read_bytes().replace(b'"b.npy"', b'"a.npy"')


@pytest.mark.parametrize("args", [["--R-list", "10,inf"], ["--pairs", "0.7:2,0.7:nan"],
                                  ["--pairs", "nan:2"], ["--pairs", "0:2,0:20", "--R-list", "1000,1"]],
                         ids=["late-radius", "late-dilation", "translation", "support-escape"])
def test_euclid_refusal_prints_no_partial_results(args):
    res = run(["euclid"] + args)
    assert res.returncode == 1
    assert res.stdout == ""
    assert res.stderr.startswith("circlet: error: ")
    assert "Traceback" not in res.stderr


def test_line_cwt_default_scales_round_trip(tmp_path):
    # the default scales reach 1e-3, 31x below the grid spacing of 1/32
    grid = LineGrid(-16.0, 16.0, 1024)
    write_signal(tmp_path / "odd.csv", LineSignal.from_evaluator(grid, lambda x: x * np.exp(-0.5 * x * x)))
    res = run(["line-cwt", "--builtin", "mexican-hat", "--signal", str(tmp_path / "odd.csv"), "--roundtrip"])
    assert res.returncode == 0, res.stderr
    assert _round_trip_error(res.stdout) < 1e-3


def test_euclid_defaults_shrink_both_moves():
    res = run(["euclid"])
    assert res.returncode == 0, res.stderr
    shrink = [float(v) for v in re.findall(r"shrink factor=(\S+)", res.stdout)]
    assert len(shrink) == 2 and min(shrink) > 50


def test_readme_command_block_runs(tmp_path):
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = re.search(r"## Command line\n\n```sh\n(.*?)```", readme, re.S).group(1)
    grid = CircleGrid(1024)
    write_signal(tmp_path / "sig.csv", CircleSignal(grid, np.cos(2 * grid.nodes) + 0.5 * np.sin(4 * grid.nodes)))
    _write_packet(tmp_path / "line.csv")
    lines = block.strip().splitlines()
    assert len(lines) == 8
    for line in lines:
        prog, *args = shlex.split(line)
        assert prog == "circlet"
        res = run(args, cwd=tmp_path)
        assert res.returncode == 0, (line, res.stderr)
        assert "Traceback" not in res.stderr
        if args[0] == "line-cwt":
            assert _round_trip_error(res.stdout) < 1e-2


def _zero_reference_reads_zero(res, code, line):
    # a relative error of a zero input against its zero reference is 0.0, not a ZeroDivisionError
    assert res.returncode == code, res.stderr
    assert "Traceback" not in res.stderr
    assert f"{line}: 0.0" in res.stdout.splitlines()


def test_line_cwt_round_trip_of_a_zero_signal(tmp_path):
    write_signal(tmp_path / "zero.csv", LineSignal(LineGrid(-16.0, 16.0, 2048), np.zeros(2048)))
    res = run(["line-cwt", "--signal", str(tmp_path / "zero.csv"), "--scale-min", "1e-2", "--scale-max", "1e2",
               "--scale-count", "50", "--roundtrip"])
    _zero_reference_reads_zero(res, 0, "round trip relative error")


def test_icwt_of_a_zero_signal(tmp_path, capsys):
    write_signal(tmp_path / "zero.csv", CircleSignal(CircleGrid(256), np.zeros(256)))
    for args in (["admissibility", "--scale-count", "40", "--out", str(tmp_path / "r.json")],
                 ["cwt", "--signal", str(tmp_path / "zero.csv"), "--scale-count", "40", "--out", str(tmp_path / "s")]):
        assert _in_process(args, capsys)[0] == 0
    res = run(["icwt", "--scalogram", str(tmp_path / "s"), "--report", str(tmp_path / "r.json")])
    _zero_reference_reads_zero(res, 0, "reanalysis relative error")


def test_frame_of_a_zero_wavelet(tmp_path):
    write_signal(tmp_path / "czero.csv", CircleSignal(CircleGrid(1024), np.zeros(1024)))
    res = run(["frame", "--wavelet", str(tmp_path / "czero.csv"), "--scale-count", "40"])
    _zero_reference_reads_zero(res, 2, "relative deviation")


@pytest.mark.parametrize("command", ["admissibility", "frame"])
def test_a_zero_wavelet_prints_no_warning(tmp_path, command):
    # every lambda is exactly 0, so there is no plateau to miss
    write_signal(tmp_path / "czero.csv", CircleSignal(CircleGrid(1024), np.zeros(1024)))
    res = run([command, "--wavelet", str(tmp_path / "czero.csv"), "--scale-count", "40"])
    assert res.returncode == 2
    assert res.stderr == ""


@pytest.mark.parametrize("command", ["admissibility", "frame"])
def test_library_warnings_are_one_line_each(command):
    res = run([command, "--builtin", "dog:2", "--n-max", "2", "--scale-count", "40"])
    assert res.returncode == 2
    want = ["circlet: warning: mode integrals have not plateaued by |n| = 2; truncation of the mode sum is unsafe"]
    if command == "frame":
        want.append("circlet: warning: frame bounds from a non-plateaued mode band are untrustworthy")
    assert res.stderr.splitlines() == want


def test_a_huge_scale_grid_warns_of_the_plateau_alone():
    # (a tan u)^2 overflows to inf on purpose at the largest scales: r = 0 is its limit, not a fault
    res = run(["admissibility", "--builtin", "dog:2", "--scale-max", "1e200", "--scale-count", "40"])
    assert res.returncode == 2
    assert res.stderr.splitlines() == ["circlet: warning: mode integrals have not plateaued by |n| = 64; "
                                       "truncation of the mode sum is unsafe"]


def test_line_cwt_gaussian_rejected(tmp_path):
    _write_packet(tmp_path / "line.csv")
    res = run(["line-cwt", "--builtin", "gauss", "--signal", str(tmp_path / "line.csv")])
    assert res.returncode == 2
    assert "admissibility" in res.stdout


def test_thread_cap_validation():
    res = run(["admissibility", "--builtin", "dog:2"], env_extra={"CIRCLET_THREADS": "abc"})
    assert res.returncode == 1
    assert "CIRCLET_THREADS" in res.stderr
    res = run(["admissibility", "--builtin", "dog:2"], env_extra={"CIRCLET_THREADS": "4"})
    assert res.returncode == 0


def test_laplace_raises_no_false_alarm():
    # the 128-node estimate is checked against the 127-node rule; checked
    # against the 64-node rule, this command warned on six converged transforms
    res = run(["laplace", "--n-max", "20"])
    assert res.returncode == 0, res.stderr
    assert "QuadratureConvergenceWarning" not in res.stderr


def test_laplace_seeded_determinism():
    res_a = run(["--seed", "7", "laplace"])
    res_b = run(["--seed", "7", "laplace"])
    assert res_a.returncode == 0, res_a.stderr
    assert res_a.stdout == res_b.stdout
    assert res_a.stdout != run(["--seed", "8", "laplace"]).stdout


# reads the thread count of the loaded OpenBLAS, as perfbench/worker.py does
BLAS_PROBE = r"""
import ctypes
import circlet  # loads numpy and its BLAS


def blas_threads():
    for line in open("/proc/self/maps"):
        lib = line.split()[-1]
        if "openblas" not in lib.lower():
            continue
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return "none"


print(blas_threads())
"""


def test_thread_cap_reaches_blas():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["CIRCLET_THREADS"] = "1"
    res = subprocess.run([sys.executable, "-c", BLAS_PROBE], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    if res.stdout.strip() == "none":
        pytest.skip("no OpenBLAS library is loaded")
    assert res.stdout.strip() == "1"


def test_thread_cap_reaches_blas_loaded_before_circlet():
    # numpy, and with it OpenBLAS, loads before circlet reads CIRCLET_THREADS
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["CIRCLET_THREADS"] = "1"
    res = subprocess.run([sys.executable, "-c", "import numpy\n" + BLAS_PROBE],
                         capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    if res.stdout.strip() == "none":
        pytest.skip("no OpenBLAS library is loaded")
    assert res.stdout.strip() == "1"


def test_openblas_spin_short_unless_set():
    probe = "import os, circlet; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    for preset, want in ((None, "4"), ("28", "28")):
        if preset is not None:
            env["OPENBLAS_THREAD_TIMEOUT"] = preset
        res = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=env)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == want

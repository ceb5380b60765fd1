"""File formats: CSV signals with JSON sidecars, reports, scalograms."""

import json
import os

import numpy as np
import pytest

from circlet import (
    CircleGrid,
    CircleSignal,
    FormatError,
    LineGrid,
    LineSignal,
    ScaleGrid,
    analyze,
    atomic_write_text,
    lambda_sequence,
    make_dog,
    read_report,
    read_scalogram,
    read_signal,
    write_report,
    write_scalogram,
    write_signal,
)


def circle_two_mode(n=64):
    grid = CircleGrid(n)
    return CircleSignal(grid, np.cos(2 * grid.nodes) + 0.5j * np.sin(4 * grid.nodes))


def test_circle_signal_round_trip(tmp_path):
    sig = circle_two_mode()
    path = tmp_path / "sig.csv"
    write_signal(path, sig)
    back = read_signal(path)
    assert isinstance(back, CircleSignal)
    assert back.grid.n_samples == 64
    # repr round-trips floats exactly
    assert np.array_equal(back.values, sig.values)


def test_line_signal_round_trip_real(tmp_path):
    grid = LineGrid(-4.0, 4.0, 128)
    sig = LineSignal(grid, np.exp(-grid.nodes**2).astype(complex))
    path = tmp_path / "line.csv"
    write_signal(path, sig)
    text = path.read_text()
    assert text.splitlines()[0] == "coord,re"
    back = read_signal(path)
    assert isinstance(back, LineSignal)
    assert back.grid == grid
    assert np.array_equal(back.values, sig.values)


def test_write_is_deterministic(tmp_path):
    sig = circle_two_mode()
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_signal(a, sig)
    write_signal(b, sig)
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.meta.json").read_bytes() == (tmp_path / "b.meta.json").read_bytes()


def test_atomic_write_leaves_no_droppings(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write_text(target, "payload\n")
    assert target.read_text() == "payload\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_bad_header_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta,value\n0.0,1.0\n")
    with pytest.raises(FormatError) as err:
        read_signal(path)
    assert err.value.line == 1


def test_non_numeric_field_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("coord,re\n0.0,1.0\n0.1,oops\n")
    with pytest.raises(FormatError) as err:
        read_signal(path)
    assert err.value.line == 3


def test_wrong_field_count_line_number(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("coord,re\n0.0,1.0\n0.1,2.0,3.0\n")
    with pytest.raises(FormatError) as err:
        read_signal(path)
    assert err.value.line == 3


def test_non_finite_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("coord,re\n0.0,1.0\n0.1,inf\n")
    with pytest.raises(FormatError) as err:
        read_signal(path)
    assert err.value.line == 3


def test_missing_sidecar(tmp_path):
    path = tmp_path / "orphan.csv"
    path.write_text("coord,re\n0.0,1.0\n")
    with pytest.raises(FormatError, match="sidecar"):
        read_signal(path)


def _write_with_meta(tmp_path, meta_patch):
    sig = circle_two_mode(n=16)
    path = tmp_path / "sig.csv"
    write_signal(path, sig)
    side = tmp_path / "sig.meta.json"
    meta = json.loads(side.read_text())
    meta.update(meta_patch)
    for key, value in meta_patch.items():
        if value is None:
            del meta[key]
    side.write_text(json.dumps(meta))
    return path


def test_sidecar_schema_mismatch(tmp_path):
    path = _write_with_meta(tmp_path, {"schema": "circlet/other-v9"})
    with pytest.raises(FormatError, match="schema"):
        read_signal(path)


def test_sidecar_sample_count_mismatch(tmp_path):
    path = _write_with_meta(tmp_path, {"n_samples": 17})
    with pytest.raises(FormatError, match="17"):
        read_signal(path)


def test_sidecar_unknown_kind(tmp_path):
    path = _write_with_meta(tmp_path, {"kind": "sphere"})
    with pytest.raises(FormatError, match="kind"):
        read_signal(path)


def test_sidecar_missing_key(tmp_path):
    path = _write_with_meta(tmp_path, {"window": None})
    with pytest.raises(FormatError, match="window"):
        read_signal(path)


def test_coords_must_match_grid(tmp_path):
    sig = circle_two_mode(n=16)
    path = tmp_path / "sig.csv"
    write_signal(path, sig)
    rows = path.read_text().splitlines()
    parts = rows[1].split(",")
    parts[0] = repr(float(parts[0]) + 1e-3)
    rows[1] = ",".join(parts)
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FormatError, match="grid"):
        read_signal(path)


def test_coords_must_increase(tmp_path):
    path = tmp_path / "sig.csv"
    write_signal(path, circle_two_mode(n=16))
    rows = path.read_text().splitlines()
    rows[1], rows[2] = rows[2], rows[1]
    path.write_text("\n".join(rows) + "\n")
    with pytest.raises(FormatError) as err:
        read_signal(path)
    assert err.value.line == 3


def test_report_round_trip(tmp_path):
    admissible = lambda_sequence(make_dog(2.0), n_max=8)
    with pytest.warns(RuntimeWarning, match="plateau"):
        unsettled = lambda_sequence(make_dog(2.0), n_max=2)
    assert admissible.admissible and not unsettled.plateau_ok
    for name, report in (("admissible", admissible), ("unsettled", unsettled)):
        path = tmp_path / f"{name}.json"
        write_report(path, report)
        back = read_report(path)
        assert back.admissible == report.admissible
        assert back.weak_ok == report.weak_ok
        assert back.small_scale_converged == report.small_scale_converged
        assert back.plateau_ok == report.plateau_ok
        assert np.allclose(back.lambdas, report.lambdas)
        assert back.sup_lambda == pytest.approx(report.sup_lambda)
        assert back.inf_lambda == pytest.approx(report.inf_lambda)
        assert back.weak_integral == pytest.approx(report.weak_integral, abs=1e-15)
        assert back.scales.a_min == report.scales.a_min
        assert back.scales.count == report.scales.count


@pytest.mark.parametrize("flag", ["weak_ok", "small_scale_converged", "plateau_ok"])
def test_report_without_flag_refused(tmp_path, flag):
    path = tmp_path / "report.json"
    write_report(path, lambda_sequence(make_dog(2.0), n_max=8))
    obj = json.loads(path.read_text())
    del obj[flag]
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=flag):
        read_report(path)
    obj[flag] = "yes"
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=flag):
        read_report(path)


def test_scalogram_round_trip(tmp_path):
    grid = CircleGrid(32)
    psi = CircleSignal(grid, np.cos(2 * grid.nodes).astype(complex))
    scal = analyze(psi, make_dog(2.0), ScaleGrid(0.5, 2.0, 6), n_max=8)
    write_scalogram(tmp_path / "scal", scal)
    back = read_scalogram(tmp_path / "scal")
    assert back.scales.count == 6
    assert back.angles.n_samples == 32
    assert back.n_max == 8
    assert np.max(np.abs(back.values - scal.values)) == 0.0


def test_scalogram_missing_matrix(tmp_path):
    grid = CircleGrid(16)
    psi = CircleSignal(grid, np.cos(2 * grid.nodes).astype(complex))
    scal = analyze(psi, make_dog(2.0), ScaleGrid(0.5, 2.0, 4), n_max=4)
    write_scalogram(tmp_path / "scal", scal)
    (tmp_path / "scal.im.csv").unlink()
    with pytest.raises(FormatError):
        read_scalogram(tmp_path / "scal")

"""File formats: CSV signals with JSON sidecars, reports, scalograms."""

import dataclasses
import hashlib
import io
import json
import os
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from circlet import (
    AdmissibilityReport,
    CircleGrid,
    CircleSignal,
    FormatError,
    LineGrid,
    LineScalogram,
    LineSignal,
    ScaleGrid,
    Scalogram,
    analyze,
    atomic_write_text,
    lambda_sequence,
    line_analyze,
    make_dog,
    mexican_hat,
    read_report,
    read_scalogram,
    read_signal,
    reanalysis_error,
    synthesize,
    write_report,
    write_scalogram,
    write_signal,
)
from circlet.cwt import mode_integrals


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


def test_report_keeps_complex_weak_integral(tmp_path):
    # an imaginary mean makes the weak integral complex and fails weak_ok;
    # the value read back must still say why
    dog = make_dog(2.0, grid=CircleGrid(256))
    gamma = CircleSignal(dog.grid, dog.values + 0.01j * np.exp(-np.tan(dog.grid.nodes) ** 2))
    report = lambda_sequence(gamma, n_max=16)
    assert report.weak_integral.imag > 1e-3 and not report.weak_ok
    path = tmp_path / "report.json"
    write_report(path, report)
    assert json.loads(path.read_text())["schema"] == "circlet/report-v2"
    back = read_report(path)
    assert np.array([back.weak_integral]).tobytes() == np.array([report.weak_integral]).tobytes()
    assert back.weak_ok is False


@pytest.mark.parametrize("schema", [None, "circlet/report-v0", "circlet/report-v1"])
def test_report_of_another_schema_refused(tmp_path, schema):
    path = tmp_path / "report.json"
    write_report(path, lambda_sequence(make_dog(2.0), n_max=8))
    obj = json.loads(path.read_text())
    if schema is None:
        del obj["schema"]
    else:
        obj["schema"] = schema
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=r"expected circlet/report-v2; rerun `circlet admissibility"):
        read_report(path)


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
    (tmp_path / "scal.npy").unlink()
    with pytest.raises(FormatError):
        read_scalogram(tmp_path / "scal")


# any complex128 bit pattern, NaN payloads and signed zeros included
def payload_arrays(rows, cols):
    return arrays("<c16", (rows, cols), elements=st.complex_numbers(allow_nan=True, allow_infinity=True))


scale_grids = st.tuples(st.floats(1e-6, 1.0), st.floats(1.01, 1e6))


@st.composite
def scalograms(draw):
    count, half = draw(st.integers(2, 5)), draw(st.integers(2, 8))
    a_min, factor = draw(scale_grids)
    scales = ScaleGrid(a_min, a_min * factor, count)
    n = 2 * half
    if draw(st.booleans()):
        # a circle scalogram is its band's modes, on angles the band fits
        n_max = draw(st.integers(1, n // 4))
        fingerprint = draw(st.text("0123456789abcdef", min_size=64, max_size=64))
        return Scalogram(scales, CircleGrid(n), draw(payload_arrays(count, 2 * n_max + 1)), n_max=n_max,
                         wavelet_fingerprint=fingerprint)
    lo, width = draw(st.floats(-100.0, 100.0)), draw(st.floats(1e-3, 100.0))
    return LineScalogram(scales, LineGrid(lo, lo + width, n), draw(payload_arrays(count, n)))


def _payload_of(scal):
    """The array a scalogram's file holds: a circle scalogram's modes, a line scalogram's values."""
    return scal.modes if isinstance(scal, Scalogram) else scal.values


def _same_scalogram(a, b):
    assert type(a) is type(b)
    assert a.scales == b.scales
    assert _payload_of(a).tobytes() == _payload_of(b).tobytes()
    if isinstance(a, Scalogram):
        assert (a.angles, a.n_max, a.wavelet_fingerprint) == (b.angles, b.n_max, b.wavelet_fingerprint)
    else:
        assert a.grid == b.grid


@settings(max_examples=60, deadline=None)
@given(scalograms())
def test_scalogram_property_round_trip(scal):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a"), Path(tmp, "b")
        write_scalogram(first, scal)
        _same_scalogram(read_scalogram(first), scal)
        # the payload is byte for byte what np.save writes
        buf = io.BytesIO()
        np.save(buf, _payload_of(scal).astype("<c16"), allow_pickle=False)
        assert Path(tmp, "a.npy").read_bytes() == buf.getvalue()
        # a second write is byte-identical, header and payload alike
        write_scalogram(second, scal)
        assert Path(tmp, "a.npy").read_bytes() == Path(tmp, "b.npy").read_bytes()
        header = json.loads(Path(tmp, "b.json").read_text())
        header["payload"] = "a.npy"
        assert json.loads(Path(tmp, "a.json").read_text()) == header
        assert sorted(os.listdir(tmp)) == ["a.json", "a.npy", "b.json", "b.npy"]


def _header(stem):
    return json.loads(Path(str(stem) + ".json").read_text())


def _rewrite_header(stem, patch):
    header = _header(stem)
    header.update(patch)
    Path(str(stem) + ".json").write_text(json.dumps(header))


@settings(max_examples=30, deadline=None)
@given(scalograms(), st.data())
def test_scalogram_corruption_refused(scal, data):
    with tempfile.TemporaryDirectory() as tmp:
        stem = Path(tmp, "scal")
        payload = Path(tmp, "scal.npy")
        write_scalogram(stem, scal)
        good = payload.read_bytes()

        pos = data.draw(st.integers(0, len(good) - 1))
        bit = data.draw(st.integers(0, 7))
        flipped = bytearray(good)
        flipped[pos] ^= 1 << bit
        payload.write_bytes(bytes(flipped))
        with pytest.raises(FormatError, match="sha256"):
            read_scalogram(stem)

        payload.write_bytes(good[:data.draw(st.integers(0, len(good) - 1))])
        with pytest.raises(FormatError, match="sha256"):
            read_scalogram(stem)

        payload.write_bytes(good)
        rows, cols = _payload_of(scal).shape
        _rewrite_header(stem, {"shape": data.draw(st.sampled_from(
            [[rows + 1, cols], [rows, cols + 2], [rows * cols], [rows, cols, 1]]))})
        with pytest.raises(FormatError, match="shape"):
            read_scalogram(stem)


def _small_scalogram(tmp_path):
    grid = CircleGrid(16)
    psi = CircleSignal(grid, np.cos(2 * grid.nodes).astype(complex))
    stem = tmp_path / "scal"
    write_scalogram(stem, analyze(psi, make_dog(2.0), ScaleGrid(0.5, 2.0, 4), n_max=4))
    return stem


def test_scalogram_v1_header_refused(tmp_path):
    stem = _small_scalogram(tmp_path)
    _rewrite_header(stem, {"schema": "circlet/scalogram-v1", "re": "scal.re.csv", "im": "scal.im.csv"})
    with pytest.raises(FormatError, match=r"circlet/scalogram-v1.*rerun `circlet cwt`"):
        read_scalogram(stem)


@pytest.mark.parametrize("patch", [
    {"schema": "circlet/scalogram-v2"},  # its circle payload held angle samples, with no `held` field to say so
    {"schema": "circlet/scalogram-v3", "held": "modes"},
    {"schema": "circlet/scalogram-v3", "held": "values"},  # a payload of angle samples, which v4 never holds
], ids=["v2", "v3-modes", "v3-values"])
def test_scalogram_v2_header_refused(tmp_path, patch):
    stem = _small_scalogram(tmp_path)
    _rewrite_header(stem, patch)
    with pytest.raises(FormatError, match=rf"{patch['schema']}.*expected circlet/scalogram-v4; rerun `circlet cwt`"):
        read_scalogram(stem)


@pytest.mark.parametrize("bad", [
    lambda v: v.astype("<c8"),  # another dtype
    lambda v: v.reshape(v.shape[1], v.shape[0]),  # another shape
])
def test_payload_must_match_header_even_with_fresh_digest(tmp_path, bad):
    stem = _small_scalogram(tmp_path)
    buf = io.BytesIO()
    np.save(buf, bad(np.load(tmp_path / "scal.npy")), allow_pickle=False)
    (tmp_path / "scal.npy").write_bytes(buf.getvalue())
    _rewrite_header(stem, {"sha256": hashlib.sha256(buf.getvalue()).hexdigest()})
    with pytest.raises(FormatError, match="header says"):
        read_scalogram(stem)


@pytest.mark.parametrize("patch", [
    {"dtype": "<c8"},
    {"wavelet_fingerprint": None},
    {"sha256": None},
])
def test_scalogram_header_fields_checked(tmp_path, patch):
    stem = _small_scalogram(tmp_path)
    _rewrite_header(stem, patch)
    with pytest.raises(FormatError):
        read_scalogram(stem)


PAYLOAD_FIELD_CASES = [
    ({"shape": [5, 8]}, "header shape [5, 8] does not match the grids [4, 5]"),
    ({"dtype": "<c8"}, "payload dtype must be '<c16', header says '<c8'"),
]


@pytest.mark.parametrize("patch, says", PAYLOAD_FIELD_CASES)
def test_scalogram_payload_field_refusal_names_the_header(tmp_path, patch, says):
    # the payload's own header fields are refused like every other field:
    # "malformed scalogram <header>: ...", not under the bare stem
    grid = CircleGrid(8)
    stem = tmp_path / "scal"
    write_scalogram(stem, analyze(CircleSignal(grid, np.cos(2 * grid.nodes).astype(complex)),
                                  make_dog(2.0), ScaleGrid(0.5, 2.0, 4), n_max=2))
    _rewrite_header(stem, patch)
    with pytest.raises(FormatError) as err:
        read_scalogram(stem)
    assert str(err.value) == f"malformed scalogram {tmp_path / 'scal.json'}: {says}"


@pytest.mark.parametrize("patch, says", [
    ({"shape": [18, 400]}, "header shape [18, 400] does not match the grids [400, 17]"),
    PAYLOAD_FIELD_CASES[1],
])
def test_report_table_field_refusal_names_the_report(tmp_path, patch, says):
    path = tmp_path / "report.json"
    write_report(path, lambda_sequence(make_dog(2.0), n_max=8))
    obj = json.loads(path.read_text())
    obj["table"].update(patch)
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError) as err:
        read_report(path)
    assert str(err.value) == f"malformed report {path}: {says}"


@pytest.mark.parametrize("reader", ["report", "scalogram", "signal"])
def test_json_that_is_not_an_object_refused(tmp_path, reader):
    # a report, scalogram header or signal sidecar holding a bare number
    for name in ("x.json", "x.meta.json"):
        (tmp_path / name).write_text("5")
    (tmp_path / "x.csv").write_text("coord,re\n0.0,1.0\n")
    read, path = {"report": (read_report, tmp_path / "x.json"),
                  "scalogram": (read_scalogram, tmp_path / "x"),
                  "signal": (read_signal, tmp_path / "x.csv")}[reader]
    with pytest.raises(FormatError, match="does not hold a JSON object"):
        read(path)


def test_report_without_fingerprint_refused(tmp_path):
    path = tmp_path / "report.json"
    write_report(path, lambda_sequence(make_dog(2.0), n_max=8))
    obj = json.loads(path.read_text())
    del obj["wavelet_fingerprint"]
    path.write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="wavelet_fingerprint"):
        read_report(path)


@pytest.mark.parametrize("payload", ["../x.npy", "absolute", "", ".", "..", "sub/x.npy", "sub\\x.npy"])
def test_scalogram_payload_must_be_a_bare_name(tmp_path, payload):
    # a real copy of the payload, digest and all, lies outside the header's
    # directory: the reader must refuse the name, not open the file
    (tmp_path / "run").mkdir()
    stem = _small_scalogram(tmp_path / "run")
    outside = tmp_path / "x.npy"
    outside.write_bytes((tmp_path / "run" / "scal.npy").read_bytes())
    _rewrite_header(stem, {"payload": str(outside) if payload == "absolute" else payload})
    with pytest.raises(FormatError, match=r"header field 'payload' must be a bare file name"):
        read_scalogram(stem)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)
bounded_complex = st.complex_numbers(max_magnitude=1e6)


@st.composite
def signals(draw):
    n = 2 * draw(st.integers(2, 12))
    if draw(st.booleans()):
        grid = CircleGrid(n)
    else:
        lo, width = draw(st.floats(-100.0, 100.0)), draw(st.floats(1e-3, 100.0))
        grid = LineGrid(lo, lo + width, n)
    values = np.zeros(n, dtype=complex)
    values.real = draw(arrays(float, n, elements=finite_floats))
    if draw(st.booleans()):
        # complex: at least one non-zero imaginary part selects the re,im layout
        values.imag = draw(arrays(float, n, elements=finite_floats).filter(lambda im: np.any(im != 0.0)))
    cls = CircleSignal if isinstance(grid, CircleGrid) else LineSignal
    return cls(grid, values)


@settings(max_examples=60, deadline=None)
@given(signals())
def test_signal_property_round_trip(sig):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.csv"), Path(tmp, "b.csv")
        write_signal(first, sig)
        back = read_signal(first)
        assert type(back) is type(sig)
        assert back.grid == sig.grid
        assert back.values.tobytes() == sig.values.tobytes()
        write_signal(second, back)
        assert first.read_bytes() == second.read_bytes()
        assert Path(tmp, "a.meta.json").read_bytes() == Path(tmp, "b.meta.json").read_bytes()


@settings(max_examples=40, deadline=None)
@given(signals(), st.data())
def test_signal_negative_zero_imaginary_round_trip(sig, data):
    # all-zero imaginary parts, some of them -0.0, keep their sign bits
    imag = data.draw(arrays(float, sig.grid.n_samples, elements=st.sampled_from([0.0, -0.0])))
    values = sig.values.real.astype(complex)
    values.imag = imag
    sig = type(sig)(sig.grid, values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "a.csv")
        write_signal(path, sig)
        back = read_signal(path)
        assert np.array_equal(np.signbit(back.values.imag), np.signbit(imag))
        assert back.values.tobytes() == sig.values.tobytes()


VERDICT_FLAGS = ("weak_ok", "small_scale_converged", "plateau_ok", "admissible")


@st.composite
def reports(draw):
    n_max = draw(st.integers(0, 6))
    a_min, factor = draw(scale_grids)
    scales = ScaleGrid(a_min, a_min * factor, draw(st.integers(2, 500)))
    table = draw(arrays(complex, (scales.count, 2 * n_max + 1), elements=bounded_complex))
    table.flags.writeable = False
    flags = {key: draw(st.booleans()) for key in VERDICT_FLAGS}
    return AdmissibilityReport(
        n_max=n_max,
        lambdas=mode_integrals(table, scales),
        weak_integral=complex(draw(finite_floats)),
        scales=scales,
        tail_lo=draw(finite_floats),
        tail_hi=draw(finite_floats),
        wavelet_fingerprint=draw(st.text("0123456789abcdef", min_size=64, max_size=64)),
        table=table,
        **flags,
    )


@settings(max_examples=60, deadline=None)
@given(reports())
def test_report_property_round_trip(report):
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp, "a.json"), Path(tmp, "b.json")
        write_report(first, report)
        back = read_report(first)
        for key in VERDICT_FLAGS + ("wavelet_fingerprint", "n_max", "scales", "tail_lo", "tail_hi",
                                    "weak_integral"):
            assert getattr(back, key) == getattr(report, key), key
        assert back.lambdas.tobytes() == report.lambdas.tobytes()
        write_report(second, back)
        assert first.read_bytes() == second.read_bytes()


HUGE = object()  # stands for the JSON number 1e400, which parses as inf
MISSING = object()


def _pristine_header(kind: str, tmp: Path) -> tuple[Path, Path]:
    """A valid file of one header kind: (what to read, its JSON header)."""
    scales = ScaleGrid(0.5, 2.0, 4)
    if kind.endswith("sidecar"):
        grid = CircleGrid(8) if kind == "circle sidecar" else LineGrid(-1.0, 1.0, 8)
        cls = CircleSignal if kind == "circle sidecar" else LineSignal
        write_signal(tmp / "x.csv", cls(grid, np.cos(grid.nodes).astype(complex)))
        return tmp / "x.csv", tmp / "x.meta.json"
    if kind == "report":
        table = np.ones((4, 5), dtype=complex)
        write_report(tmp / "x.json", AdmissibilityReport(
            n_max=2, lambdas=mode_integrals(table, scales), weak_integral=0j, scales=scales, tail_lo=0.0,
            tail_hi=0.0, wavelet_fingerprint="0" * 64, weak_ok=True, small_scale_converged=True,
            plateau_ok=True, admissible=True, table=table))
        return tmp / "x.json", tmp / "x.json"
    if kind == "circle scalogram":
        scal = Scalogram(scales=scales, angles=CircleGrid(8), modes=np.zeros((4, 5), dtype=complex), n_max=2,
                         wavelet_fingerprint="0" * 64)
    else:
        scal = LineScalogram(scales=scales, grid=LineGrid(-1.0, 1.0, 8), values=np.zeros((4, 8), dtype=complex))
    write_scalogram(tmp / "x", scal)
    return tmp / "x", tmp / "x.json"


SIDECAR_KEYS = ["schema", "kind", "n_samples", "window"]
SCALOGRAM_KEYS = ["schema", "kind", "scale_min", "scale_max", "scale_count", "payload", "dtype", "shape",
                  "sha256"]
HEADER_KEYS = {
    "circle sidecar": SIDECAR_KEYS,
    "line sidecar": SIDECAR_KEYS,
    "report": ["schema", "lambda", "sup", "inf", "weak_integral", "weak_integral_imag", *VERDICT_FLAGS,
               "wavelet_fingerprint", "truncation", "truncation.a_min", "truncation.a_max",
               "truncation.count", "truncation.tail_lo", "truncation.tail_hi",
               "table", "table.payload", "table.dtype", "table.shape", "table.sha256"],
    "circle scalogram": SCALOGRAM_KEYS + ["n_angles", "n_max", "wavelet_fingerprint"],
    "line scalogram": SCALOGRAM_KEYS + ["window", "n_samples"],
}
READERS = {"sidecar": read_signal, "report": read_report, "scalogram": read_scalogram}
json_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
                         st.text(max_size=4))
json_values = st.one_of(
    json_scalars, st.just(HUGE), st.just(MISSING),
    st.lists(json_scalars, max_size=3),
    st.dictionaries(st.text(max_size=3), json_scalars, max_size=2),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(HEADER_KEYS)), st.data(), json_values)
def test_malformed_header_field_is_a_format_error(kind, data, value):
    # any one field of any header set to a JSON value of another type, or
    # removed, is either read or refused as a FormatError, never a crash
    key = data.draw(st.sampled_from(HEADER_KEYS[kind]))
    read = READERS[kind.split()[-1]]
    with tempfile.TemporaryDirectory() as tmp:
        target, header = _pristine_header(kind, Path(tmp))
        read(target)
        obj = json.loads(header.read_text())
        *outer, last = key.split(".")
        holder = obj[outer[0]] if outer else obj
        if value is MISSING:
            del holder[last]
        else:
            holder[last] = "1e400 placeholder" if value is HUGE else value
        header.write_text(json.dumps(obj).replace('"1e400 placeholder"', "1e400"))
        try:
            read(target)
        except FormatError:
            pass


def _typed_cases(fields, values):
    return [(kind, key, value) for kind, keys in fields.items() for key in keys for value in values]


INT_FIELDS = {
    "circle sidecar": ["n_samples"],
    "line sidecar": ["n_samples"],
    "report": ["truncation.count", "lambda.0.n", "table.shape.1"],
    "circle scalogram": ["scale_count", "n_angles", "n_max", "shape.0"],
    "line scalogram": ["n_samples", "shape.1"],
}
REAL_FIELDS = {
    "circle sidecar": ["window.0"],
    "line sidecar": ["window.1"],
    "report": ["truncation.a_min", "truncation.a_max", "truncation.tail_lo", "truncation.tail_hi",
               "weak_integral", "weak_integral_imag", "lambda.2.value"],
    "circle scalogram": ["scale_min", "scale_max"],
    "line scalogram": ["window.0", "scale_max"],
}
WRONG_TYPED = (
    _typed_cases(INT_FIELDS, [3.5, True, "3", HUGE])
    + _typed_cases(REAL_FIELDS, ["0.5", True, HUGE])
    + _typed_cases({"report": VERDICT_FLAGS}, [1, "true"])
    + _typed_cases({"report": ["wavelet_fingerprint"], "circle scalogram": ["wavelet_fingerprint"]}, [5])
    + _typed_cases({"circle sidecar": ["window"], "line sidecar": ["window"], "line scalogram": ["window"]},
                   [[-1.0, 1.0, 2.0]])
)


@pytest.mark.parametrize("kind, key, value", WRONG_TYPED,
                         ids=[f"{k}-{key}-{'1e400' if v is HUGE else repr(v)}" for k, key, v in WRONG_TYPED])
def test_wrong_typed_header_field_is_refused(tmp_path, kind, key, value):
    # an integer is a JSON integer (not a bool, a float or a string), a real
    # a finite number other than a bool, a flag true or false, a window two
    # reals: anything else is refused, naming the header and the field
    target, header = _pristine_header(kind, tmp_path)
    obj = json.loads(header.read_text())
    *outer, last = key.split(".")
    holder = obj
    for part in outer:
        holder = holder[int(part) if isinstance(holder, list) else part]
    holder[int(last) if isinstance(holder, list) else last] = "1e400 placeholder" if value is HUGE else value
    header.write_text(json.dumps(obj).replace('"1e400 placeholder"', "1e400"))
    name = next(part for part in reversed(key.split(".")) if not part.isdigit())
    with pytest.raises(FormatError, match=f"^malformed {kind.split()[-1]} {re.escape(str(header))}: .*'{name}'"):
        READERS[kind.split()[-1]](target)


def test_undecodable_byte_names_file_and_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"coord,re\n0.0,\xff\n")
    with pytest.raises(FormatError) as err:
        read_signal(path)
    assert err.value.line == 2
    assert str(err.value) == f"line 2: {path}: byte 0xff is not UTF-8"


def test_csv_errors_name_the_file(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("coord,re\n0.0,1.0\n0.1,oops\n")
    with pytest.raises(FormatError) as err:
        read_signal(path)
    assert str(err.value).startswith(f"line 3: {path}: non-numeric field")


def test_sidecar_not_json(tmp_path):
    path = tmp_path / "sig.csv"
    write_signal(path, circle_two_mode())
    (tmp_path / "sig.meta.json").write_text("{not json")
    with pytest.raises(FormatError, match="is not valid JSON"):
        read_signal(path)


def test_empty_csv_refused_on_line_one(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(FormatError, match="empty signal file") as err:
        read_signal(path)
    assert err.value.line == 1


def test_line_coordinates_off_the_window_grid(tmp_path):
    path = tmp_path / "line.csv"
    write_signal(path, LineSignal(LineGrid(-4.0, 4.0, 16), np.ones(16)))
    rows = path.read_text().splitlines()
    shifted = [rows[0]] + [f"{float(c) + 1e-6!r},{v}" for c, v in (r.split(",") for r in rows[1:])]
    path.write_text("\n".join(shifted) + "\n")
    with pytest.raises(FormatError, match="uniform window grid"):
        read_signal(path)


def test_atomic_write_cleans_up_a_failed_write(tmp_path):
    target = tmp_path / "out.bin"
    with pytest.raises(TypeError):
        atomic_write_text(target, b"first chunk", 5)
    assert os.listdir(tmp_path) == []


def _table_report():
    return lambda_sequence(make_dog(2.0), n_max=8)


def test_report_writes_and_reads_its_table(tmp_path):
    report = _table_report()
    buf = io.BytesIO()
    # the file holds the (count, 2 n_max + 1) table as np.save writes it
    np.save(buf, report.table, allow_pickle=False)
    digest = hashlib.sha256(buf.getvalue()).hexdigest()
    payload = f"table-{digest[:16]}.npy"
    # named by content: a second report of the same table shares the payload
    for name in ("r.json", "s.json"):
        write_report(tmp_path / name, report)
    assert sorted(os.listdir(tmp_path)) == ["r.json", "s.json", payload]
    assert (tmp_path / payload).read_bytes() == buf.getvalue()
    assert (tmp_path / "r.json").read_bytes() == (tmp_path / "s.json").read_bytes()
    obj = json.loads((tmp_path / "r.json").read_text())
    assert obj["table"] == {"payload": payload, "dtype": "<c16", "shape": [400, 17], "sha256": digest}
    back = read_report(tmp_path / "r.json")
    assert back.table.tobytes() == report.table.tobytes()
    assert back.lambdas.tobytes() == report.lambdas.tobytes()
    assert back.table.flags.c_contiguous and not back.table.flags.writeable
    assert not back.table.flags.owndata  # a view of the bytes read, not a copy


def test_rewritten_report_keeps_a_good_payload_and_mends_a_bad_one(tmp_path):
    report = _table_report()
    write_report(tmp_path / "r.json", report)
    payload = tmp_path / json.loads((tmp_path / "r.json").read_text())["table"]["payload"]
    inode = payload.stat().st_ino
    write_report(tmp_path / "r.json", report)
    assert payload.stat().st_ino == inode  # left in place, not replaced by a copy
    payload.write_bytes(b"not the table")
    write_report(tmp_path / "r.json", report)
    assert read_report(tmp_path / "r.json").table.tobytes() == report.table.tobytes()


def test_rewritten_report_leaves_its_previous_table_in_place(tmp_path):
    # payloads are named by content and never deleted: a report rewritten
    # with another table names the new payload and leaves the old one
    path = tmp_path / "r.json"
    write_report(path, _table_report())
    old = json.loads(path.read_text())["table"]["payload"]
    report = lambda_sequence(make_dog(2.0), scales=ScaleGrid(1e-3, 1e3, 40), n_max=8)
    write_report(path, report)
    new = json.loads(path.read_text())["table"]["payload"]
    assert new != old
    assert sorted(p.name for p in tmp_path.glob("table-*.npy")) == sorted([old, new])
    back = read_report(path)
    assert back.scales.count == 40
    assert back.table.tobytes() == report.table.tobytes()


def test_report_without_a_table_refused(tmp_path):
    # every report carries its table: one without the table object and its payload is malformed
    write_report(tmp_path / "r.json", _table_report())
    obj = json.loads((tmp_path / "r.json").read_text())
    (tmp_path / obj.pop("table")["payload"]).unlink()
    (tmp_path / "r.json").write_text(json.dumps(obj))
    with pytest.raises(FormatError, match=r"^malformed report .*: 'table'$"):
        read_report(tmp_path / "r.json")


@pytest.mark.parametrize("bad", [
    lambda v: v.astype("<c8"),  # another dtype
    lambda v: v.reshape(v.shape[1], v.shape[0]),  # another shape
    lambda v: v * (1.0 + 1e-9),  # integrals that miss the lambdas
])
def test_report_table_must_match_header_and_lambdas(tmp_path, bad):
    write_report(tmp_path / "r.json", _table_report())
    obj = json.loads((tmp_path / "r.json").read_text())
    payload = tmp_path / obj["table"]["payload"]
    buf = io.BytesIO()
    np.save(buf, bad(np.load(payload)), allow_pickle=False)
    payload.write_bytes(buf.getvalue())
    obj["table"]["sha256"] = hashlib.sha256(buf.getvalue()).hexdigest()
    (tmp_path / "r.json").write_text(json.dumps(obj))
    with pytest.raises(FormatError, match="header says|disagree with the lambdas"):
        read_report(tmp_path / "r.json")


def test_payload_is_held_in_memory_once(tmp_path):
    # reading a payload costs its own size, not a second copy of it: a wide band's ~1 MB of modes
    scales, angles = ScaleGrid(0.5, 2.0, 64), CircleGrid(2048)
    modes = np.ones((scales.count, 2 * 512 + 1), dtype=complex)
    write_scalogram(tmp_path / "scal", Scalogram(scales, angles, modes, n_max=512, wavelet_fingerprint="0" * 64))
    size = (tmp_path / "scal.npy").stat().st_size
    tracemalloc.start()
    try:
        back = read_scalogram(tmp_path / "scal")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.modes, modes)
    assert size < peak < 1.25 * size


def _float_line_scalogram():
    grid, scales = LineGrid(-16.0, 16.0, 2048), ScaleGrid(1e-2, 1e2, 200)
    values = np.cos(np.arange(scales.count)[:, None] + grid.nodes) * np.exp(-grid.nodes ** 2)
    values[1, 3] = -0.0  # a signed zero keeps its sign in the <c16 payload
    return LineScalogram(scales, grid, values)


def test_float_line_scalogram_writes_its_complex_copys_bytes(tmp_path):
    scal = _float_line_scalogram()
    copy = LineScalogram(scal.scales, scal.grid, scal.values.astype(complex))
    assert (scal.values.dtype, copy.values.dtype) == (np.float64, np.complex128)
    write_scalogram(tmp_path / "f", scal)
    write_scalogram(tmp_path / "c", copy)
    assert (tmp_path / "f.npy").read_bytes() == (tmp_path / "c.npy").read_bytes()
    header = json.loads((tmp_path / "f.json").read_text())
    header["payload"] = "c.npy"
    assert json.loads((tmp_path / "c.json").read_text()) == header
    for stem in ("f", "c"):
        back = read_scalogram(tmp_path / stem)
        assert back.values.dtype == np.complex128
        assert back.values.tobytes() == copy.values.tobytes()


def test_float_line_scalogram_writes_without_a_complex_copy(tmp_path):
    # the <c16 payload is converted a block of rows at a time, never whole
    scal = _float_line_scalogram()
    tracemalloc.start()
    try:
        write_scalogram(tmp_path / "f", scal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * scal.values.nbytes


# the default circle scalogram: 400 scales, 1024 angles, |n| <= 64
DEFAULT_VALUES_BYTES = 400 * 1024 * 16
DEFAULT_MODES_PAYLOAD = 128 + 400 * 129 * 16  # .npy header and (scales, modes) <c16


def _default_analysis():
    gamma, psi = make_dog(2.0), circle_two_mode(1024)
    return gamma, psi, lambda_sequence(gamma)  # the report makes the memo table and fingerprint


def test_writing_an_analysis_makes_no_angle_samples(tmp_path):
    gamma, psi, _ = _default_analysis()
    tracemalloc.start()
    try:
        scal = analyze(psi, gamma)
        write_scalogram(tmp_path / "scal", scal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "values" not in scal.__dict__
    assert peak < 0.2 * DEFAULT_VALUES_BYTES
    assert (tmp_path / "scal.npy").stat().st_size == DEFAULT_MODES_PAYLOAD


def test_a_replaced_analysis_keeps_its_modes(tmp_path):
    # dataclasses.replace copies the fields, and the modes are the field: neither
    # scalogram makes its angle samples, and the copy writes the modes payload
    gamma, psi, _ = _default_analysis()
    scal = analyze(psi, gamma)
    copy = dataclasses.replace(scal, wavelet_fingerprint="f" * 64)
    assert "values" not in scal.__dict__ and "values" not in copy.__dict__
    write_scalogram(tmp_path / "copy", copy)
    assert "values" not in copy.__dict__
    assert (tmp_path / "copy.npy").stat().st_size == DEFAULT_MODES_PAYLOAD
    assert read_scalogram(tmp_path / "copy").modes.tobytes() == scal.modes.tobytes()


def test_reconstructing_from_a_mode_held_file_makes_no_angle_samples(tmp_path):
    gamma, psi, report = _default_analysis()
    write_scalogram(tmp_path / "scal", analyze(psi, gamma))
    tracemalloc.start()
    try:
        scal = read_scalogram(tmp_path / "scal")
        rec = synthesize(scal, gamma, report)
        err = reanalysis_error(scal, gamma, report, rec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "values" not in scal.__dict__
    assert peak < 2 * DEFAULT_MODES_PAYLOAD
    assert err < 1e-13
    assert np.max(np.abs(rec.values - psi.values)) < 1e-12


def test_mode_held_round_trip_is_bitwise(tmp_path):
    scal = analyze(circle_two_mode(64), make_dog(2.0), ScaleGrid(0.5, 2.0, 6), n_max=16)
    write_scalogram(tmp_path / "scal", scal)
    back = read_scalogram(tmp_path / "scal")
    assert (back.n_max, back.angles, back.scales) == (16, CircleGrid(64), scal.scales)
    assert back.modes.tobytes() == scal.modes.tobytes()
    assert not back.modes.flags.writeable
    assert back.values.tobytes() == scal.values.tobytes()
    assert back.energy() == scal.energy()


@pytest.mark.parametrize("complex_signal", [False, True], ids=["real-signal", "complex-signal"])
def test_spectra_held_line_scalogram_writes_its_values_bytes_without_making_them(tmp_path, complex_signal):
    grid = LineGrid(-16.0, 16.0, 2048)
    f = np.cos(5.0 * grid.nodes) * np.exp(-0.5 * grid.nodes ** 2)
    psi = LineSignal(grid, f * np.exp(0.5j * grid.nodes) if complex_signal else f)
    scal = line_analyze(psi, mexican_hat(grid), ScaleGrid(1e-2, 1e2, 200))
    tracemalloc.start()
    try:
        write_scalogram(tmp_path / "held", scal)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "values" not in scal.__dict__
    assert peak < 0.25 * scal.spectra.nbytes  # rows are made a block at a time
    write_scalogram(tmp_path / "copy", LineScalogram(scal.scales, scal.grid, scal.values))
    assert (tmp_path / "held.npy").read_bytes() == (tmp_path / "copy.npy").read_bytes()
    assert (tmp_path / "held.json").read_text() == (tmp_path / "copy.json").read_text().replace("copy.npy", "held.npy")

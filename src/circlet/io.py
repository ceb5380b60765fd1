"""Deterministic file formats: signal CSVs, admissibility reports, scalograms.

Signals are CSV tables `coord,re[,im]` with a JSON sidecar `<stem>.meta.json`
(`circlet/signal-v1`) recording the grid kind, sample count and window.
Reports are JSON (`circlet/report-v2`) and keep the weak integral's
imaginary part.  A report's dilated-coefficient table is written as a
payload beside it, scales-major as `dilated_coeffs` holds it, (count,
2 n_max + 1), and named by its digest (`table-<16 hex digits>.npy`); the
required `table` object in the JSON names and checks it as a scalogram
header does.  The reader also refuses a table whose mode integrals miss the
report's lambdas by more than TABLE_MATCH_TOL of the largest.

A scalogram (`circlet/scalogram-v4`) is a JSON header `<stem>.json` plus a
binary payload `<stem>.npy`: an array as little-endian complex128
(`<c16`), byte for byte what `np.save` writes without pickling, but
written and hashed a block of rows at a time: straight from the array's
memory, each converted in turn (float64), or made from a line scalogram's
spectra.  A line scalogram's payload is its (scales, positions) values, a
circle scalogram's its (scales, 2 n_max + 1) modes.  A circle file also
records n_angles, the grid its modes are sampled on when its values are
read; any grid the band rule admits will do.
The header holds the grids, the payload's file name, dtype, shape and
sha256, and for a circle scalogram the band and the wavelet fingerprint.
One payload writer and one reader serve scalograms and report tables.
The reader refuses a payload name that is not a bare file name beside
the header, then checks the digest, and the payload's dtype and shape
against the header and the grids; a circle header's band is checked
against its angles first.  The array it returns is a view of the
one buffer the file was read into.

Every reader passes its sidecar, report or header through one gate,
`_header`: the file must hold a JSON object of the expected schema, and a
missing key or a field of the wrong type or range is a FormatError naming
the file, in a signal sidecar as in a report or scalogram header.

All writes are atomic (temp file in the target directory, then rename) and
leave the mode a plain open() would, 0o666 less the umask; text numbers
use repr and the payload bytes depend only on the array, so repeated runs
produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from .circle import CircleGrid, CircleSignal
from .cwt import AdmissibilityReport, ScaleGrid, Scalogram, _check_n_max, mode_integrals
from .errors import FormatError
from .line import LineGrid, LineScalogram, LineSignal

SIGNAL_SCHEMA = "circlet/signal-v1"
SCALOGRAM_SCHEMA = "circlet/scalogram-v4"
REPORT_SCHEMA = "circlet/report-v2"
PAYLOAD_DTYPE = "<c16"

KIND_CIRCLE = "circle-midpoint"
KIND_LINE = "line-uniform"

GRID_MATCH_TOL = 1e-9
TABLE_MATCH_TOL = 1e-12  # relative to the largest lambda
NPY_HEADER_MAX = 10 + 10000  # magic, length field and the largest header np.load accepts
PAYLOAD_BLOCK = 1 << 18  # bytes of <c16 payload written, and converted from another dtype, at a time


def _sidecar(path: Path) -> Path:
    return path.with_suffix(".meta.json") if path.suffix == ".csv" else Path(str(path) + ".meta.json")


def atomic_write_text(path: Path, *chunks: str | bytes | memoryview | np.ndarray):
    """Write text, or bytes given as one or more buffers, to path through a temp file and a rename.

    The temp file is created with mode 0o666 less the process umask (the
    kernel applies it, so no thread ever changes the umask), which the
    rename keeps: the same mode a plain open(path, "w") would give.
    """
    _atomic_write(path, "w" if isinstance(chunks[0], str) else "wb", chunks)


def _atomic_write(path: Path, mode: str, chunks: Iterable[str | bytes | memoryview | np.ndarray]):
    """atomic_write_text for chunks of one kind, given by an iterable that may make them as it goes."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    # opened as mkstemp opens its file, but with 0o666 for the umask to reduce
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_CLOEXEC", 0) | getattr(os, "O_BINARY", 0)
    fd = os.open(tmp, flags, 0o666)
    try:
        with os.fdopen(fd, mode) as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=1) + "\n"


def write_signal(path, signal: CircleSignal | LineSignal):
    """Write samples as coord,re[,im] CSV plus the metadata sidecar."""
    path = Path(path)
    if isinstance(signal, CircleSignal):
        kind, window = KIND_CIRCLE, [-np.pi / 2, np.pi / 2]
    else:
        kind, window = KIND_LINE, [signal.grid.lo, signal.grid.hi]
    coords = signal.grid.nodes
    # a -0.0 imaginary part needs its column too, or it reads back as +0.0
    imag = signal.values.imag
    complex_valued = bool(np.any((imag != 0.0) | np.signbit(imag)))
    lines = ["coord,re,im" if complex_valued else "coord,re"]
    for c, v in zip(coords, signal.values):
        if complex_valued:
            lines.append(f"{float(c)!r},{float(v.real)!r},{float(v.imag)!r}")
        else:
            lines.append(f"{float(c)!r},{float(v.real)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")
    meta = {
        "schema": SIGNAL_SCHEMA,
        "kind": kind,
        "n_samples": int(len(coords)),
        "window": [float(window[0]), float(window[1])],
    }
    atomic_write_text(_sidecar(path), _dump_json(meta))


def _read_bytes(path: Path, what: str) -> bytearray:
    """The file's bytes, read into one writable buffer that a payload array can view."""
    try:
        with open(path, "rb") as fh:
            data = bytearray(os.fstat(fh.fileno()).st_size)
            del data[fh.readinto(data):]
            data += fh.read()  # what the size did not cover: a pipe's bytes, or a file that grew
    except OSError as exc:
        raise FormatError(f"cannot read {what} {path}: {exc}") from exc
    return data


@contextmanager
def _header(path: Path, schema: str, rerun: str, what: str):
    """Yield the JSON object in path, refused unless its schema is `schema`.

    A missing key or a field of the wrong type or range, met in the
    with-block while the caller builds its object, becomes a FormatError
    naming the file; `rerun` is the command that writes a good one.
    """
    try:
        obj = json.loads(_read_bytes(path, what))
    except ValueError as exc:
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise FormatError(f"{what} {path} does not hold a JSON object")
    if obj.get("schema") != schema:
        raise FormatError(f"{what} {path} has schema {obj.get('schema')!r}, expected {schema}; "
                          f"rerun `{rerun}` to write one")
    try:
        yield obj
    except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
        raise FormatError(f"malformed {what} {path}: {exc}") from exc


def _field(obj, key, kind):
    """obj[key] if a JSON value of kind, else a ValueError: int is never a bool or a float such as
    400.0, float any finite number but a bool, and a tuple of kinds a list of exactly such values."""
    value = obj[key]
    if isinstance(kind, tuple) and isinstance(value, list) and len(value) == len(kind):
        return tuple(_field({key: v}, key, k) for v, k in zip(value, kind))
    if kind is float and type(value) in (int, float) and np.isfinite(float(value)):
        return float(value)
    if kind is not float and type(value) is kind:
        return value
    want = {int: "an integer", float: "a finite number", bool: "true/false", str: "a string"}.get(kind, "a pair")
    raise ValueError(f"field {key!r} must be {want}, got {value!r}")


def _parse_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and numbers of a signal CSV; every FormatError names the path and the line."""
    raw = _read_bytes(path, "signal")
    try:
        rows = raw.decode().splitlines()
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: byte 0x{raw[exc.start]:02x} is not UTF-8",
                          line=raw.count(b"\n", 0, exc.start) + 1) from exc
    if not rows:
        raise FormatError(f"{path}: empty signal file", line=1)
    header = [h.strip() for h in rows[0].split(",")]
    if header not in (["coord", "re"], ["coord", "re", "im"]):
        raise FormatError(f"{path}: header must be coord,re[,im], got {rows[0]!r}", line=1)
    width = len(header)
    data = np.empty((len(rows) - 1, width), dtype=float)
    for i, row in enumerate(rows[1:], start=2):
        parts = row.split(",")
        if len(parts) != width:
            raise FormatError(f"{path}: expected {width} fields, got {len(parts)}", line=i)
        try:
            data[i - 2] = [float(p) for p in parts]
        except ValueError as exc:
            raise FormatError(f"{path}: non-numeric field in {row!r}", line=i) from exc
    if not np.all(np.isfinite(data)):
        bad = int(np.argwhere(~np.isfinite(data).all(axis=1))[0][0]) + 2
        raise FormatError(f"{path}: non-finite value", line=bad)
    return header, data


def read_signal(path) -> CircleSignal | LineSignal:
    """Read a signal CSV + sidecar, validating grid structure."""
    path = Path(path)
    header, data = _parse_csv(path)
    with _header(_sidecar(path), SIGNAL_SCHEMA, "circlet.write_signal", "sidecar") as meta:
        n = _field(meta, "n_samples", int)
        lo, hi = _field(meta, "window", (float, float))
        if data.shape[0] != n:
            raise FormatError(f"{path}: sidecar says {n} samples, file has {data.shape[0]}")
        coords = data[:, 0]
        if np.any(np.diff(coords) <= 0.0):
            bad = int(np.argwhere(np.diff(coords) <= 0.0)[0][0]) + 3
            raise FormatError(f"{path}: coordinates must be strictly increasing", line=bad)
        # assigned part by part: re + 1j * im would turn a -0.0 into +0.0
        values = data[:, 1].astype(complex)
        if len(header) == 3:
            values.imag = data[:, 2]
        if meta["kind"] == KIND_CIRCLE:
            grid = CircleGrid(n)
            if np.max(np.abs(coords - grid.nodes)) > GRID_MATCH_TOL:
                raise FormatError(f"{path}: coordinates are not the midpoint angle grid")
            return CircleSignal(grid, values)
        if meta["kind"] == KIND_LINE:
            grid = LineGrid(lo, hi, n)
            if np.max(np.abs(coords - grid.nodes)) > GRID_MATCH_TOL * max(1.0, hi - lo):
                raise FormatError(f"{path}: coordinates are not the uniform window grid")
            return LineSignal(grid, values)
        raise ValueError(f"unknown grid kind {meta['kind']!r}")


def report_to_dict(report: AdmissibilityReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "lambda": [
            {"n": int(n), "value": float(v)}
            for n, v in zip(report.ns, report.lambdas)
        ],
        "sup": report.sup_lambda,
        "inf": report.inf_lambda,
        "weak_integral": float(report.weak_integral.real),
        "weak_integral_imag": float(report.weak_integral.imag),
        "weak_ok": bool(report.weak_ok),
        "small_scale_converged": bool(report.small_scale_converged),
        "plateau_ok": bool(report.plateau_ok),
        "admissible": bool(report.admissible),
        "wavelet_fingerprint": report.wavelet_fingerprint,
        "truncation": {
            "a_min": float(report.scales.a_min),
            "a_max": float(report.scales.a_max),
            "count": int(report.scales.count),
            "tail_lo": float(report.tail_lo),
            "tail_hi": float(report.tail_hi),
        },
    }


def write_report(path, report: AdmissibilityReport):
    """Write the report JSON, after its table payload, the table's rows as they are in memory.

    The payload is named by its digest, table-<16 hex digits>.npy, so the
    report's bytes do not depend on its own file name, and reports with
    the same table share one payload.  A payload already holding these
    bytes is left as it is: renaming a fresh copy over it would only start
    the file system's writeback of the same bytes again.
    """
    path = Path(path)
    chunks, checks = _payload(report.table.shape, report.table.__getitem__)
    chunks = list(chunks)  # views of the table's memory, hashed before the digest names the file
    payload = path.parent / f"table-{checks['sha256'][:16]}.npy"
    try:
        held = hashlib.sha256(payload.read_bytes()).hexdigest()
    except OSError:
        held = None
    if held != checks["sha256"]:
        _atomic_write(payload, "wb", chunks)
    atomic_write_text(path, _dump_json({**report_to_dict(report), "table": {"payload": payload.name, **checks}}))


def read_report(path) -> AdmissibilityReport:
    """Rebuild enough of a report from its JSON to drive reconstruction.

    The verdict flags are restored as written; a report without them is
    refused rather than given guessed values.  The `table` object names the
    coefficient payload, checked as a scalogram's is and refused unless its
    mode integrals reproduce the lambdas; the table is a read-only view of
    the bytes read.
    """
    path = Path(path)
    with _header(path, REPORT_SCHEMA, "circlet admissibility --out", "report") as obj:
        entries = sorted((_field(e, "n", int), _field(e, "value", float)) for e in obj["lambda"])
        tr = obj["truncation"]
        scales = ScaleGrid(_field(tr, "a_min", float), _field(tr, "a_max", float), _field(tr, "count", int))
        n_max = len(entries) // 2
        if [n for n, _ in entries] != list(range(-n_max, n_max + 1)):
            raise ValueError("lambda entries must cover -n_max..n_max")
        lambdas = np.array([v for _, v in entries])
        table = _read_payload(path, obj["table"], (scales.count, 2 * n_max + 1))
        table.flags.writeable = False
        deviation = np.abs(mode_integrals(table, scales) - lambdas)
        if not np.all(deviation <= TABLE_MATCH_TOL * np.max(np.abs(lambdas))):
            raise FormatError(f"{path}: the table's mode integrals disagree with the lambdas "
                              f"by up to {np.max(deviation):.3e}")
        return AdmissibilityReport(
            n_max=n_max,
            lambdas=lambdas,
            weak_integral=complex(_field(obj, "weak_integral", float), _field(obj, "weak_integral_imag", float)),
            scales=scales,
            tail_lo=_field(tr, "tail_lo", float),
            tail_hi=_field(tr, "tail_hi", float),
            wavelet_fingerprint=_field(obj, "wavelet_fingerprint", str),
            table=table,
            **{flag: _field(obj, flag, bool)
               for flag in ("weak_ok", "small_scale_converged", "plateau_ok", "admissible")},
        )


def write_scalogram(stem, scal: Scalogram | LineScalogram):
    """Write the payload <stem>.npy, then the header <stem>.json."""
    stem = Path(stem)
    if isinstance(scal, Scalogram):
        kind, shape, rows = "circle", scal.modes.shape, scal.modes.__getitem__
        extra = {
            "n_angles": int(scal.angles.n_samples),
            "n_max": int(scal.n_max),
            "wavelet_fingerprint": scal.wavelet_fingerprint,
        }
    else:
        kind, shape = "line", (scal.scales.count, scal.grid.n_samples)
        rows = scal.values.__getitem__ if "values" in scal.__dict__ else scal._make_values
        extra = {
            "window": [float(scal.grid.lo), float(scal.grid.hi)],
            "n_samples": int(scal.grid.n_samples),
        }
    meta = {
        "schema": SCALOGRAM_SCHEMA,
        "kind": kind,
        "scale_min": float(scal.scales.a_min),
        "scale_max": float(scal.scales.a_max),
        "scale_count": int(scal.scales.count),
        **extra,
    }
    chunks, checks = _payload(shape, rows)
    payload = Path(str(stem) + ".npy")
    _atomic_write(payload, "wb", chunks)
    meta.update(payload=payload.name, **checks)
    atomic_write_text(Path(str(stem) + ".json"), _dump_json(meta))


def _payload(shape: tuple[int, int], rows: Callable[[slice], np.ndarray]) -> tuple[Iterator[bytes | np.ndarray], dict]:
    """The .npy bytes as <c16 of the `shape` array whose row slices rows() gives, and the fields that check them.

    The bytes are np.save's: a header, then the rows PAYLOAD_BLOCK bytes
    at a time, each block a view of a contiguous <c16 array's own memory
    or, for any other array, a converted copy, so that a float64 scalogram
    is never copied whole, and one held as spectra never made whole.  Each
    is made once, and hashed as it is; sha256 joins the fields after the last.
    """
    header = io.BytesIO()
    np.lib.format.write_array_header_1_0(header, {"descr": PAYLOAD_DTYPE, "fortran_order": False,
                                                  "shape": shape})
    header = header.getvalue()
    step = max(1, PAYLOAD_BLOCK // (16 * shape[1]))
    digest, checks = hashlib.sha256(header), {"dtype": PAYLOAD_DTYPE, "shape": list(shape)}

    def chunks():
        yield header
        for lo in range(0, shape[0], step):
            chunk = np.ascontiguousarray(rows(slice(lo, lo + step)), dtype=PAYLOAD_DTYPE).reshape(-1).view(np.uint8)
            digest.update(chunk)
            yield chunk
        checks["sha256"] = digest.hexdigest()

    return chunks(), checks


def _read_payload(stem: Path, meta: dict, shape: tuple[int, int]) -> np.ndarray:
    """Load the payload named by a header, checked against digest, dtype and shape.

    The payload must be a bare file name beside the header (stem, a
    scalogram's stem or a report's path), checked before any file is
    opened.  The array is a view of the one buffer the file was read into.
    """
    name = _field(meta, "payload", str)
    # an absolute path, or one leaving the directory, holds a separator
    if name in ("", ".", "..") or "/" in name or "\\" in name:
        raise ValueError(f"header field 'payload' must be a bare file name, got {name!r}")
    if _field(meta, "dtype", str) != PAYLOAD_DTYPE:
        raise ValueError(f"payload dtype must be {PAYLOAD_DTYPE!r}, header says {meta['dtype']!r}")
    if _field(meta, "shape", (int, int)) != shape:
        raise ValueError(f"header shape {meta['shape']} does not match the grids {list(shape)}")
    path = stem.parent / name
    data = _read_bytes(path, "payload")
    if hashlib.sha256(data).hexdigest() != _field(meta, "sha256", str):
        raise FormatError(f"payload {path} does not match the header's sha256")
    # np.load's header parsing, on a copy of the header bytes alone
    head = io.BytesIO(data[:NPY_HEADER_MAX])
    version = np.lib.format.read_magic(head)
    if version != (1, 0):
        raise FormatError(f"payload {path} is .npy version {version}, need 1.0 as np.save writes")
    dims, fortran_order, dtype = np.lib.format.read_array_header_1_0(head)
    if dtype != np.dtype(PAYLOAD_DTYPE) or dims != shape:
        raise FormatError(f"payload {path} holds {dtype.str} {dims}, header says {PAYLOAD_DTYPE} {shape}")
    values = np.frombuffer(data, dtype=dtype, count=shape[0] * shape[1], offset=head.tell())
    return values.reshape(shape[::-1]).T if fortran_order else values.reshape(shape)


def read_scalogram(stem) -> Scalogram | LineScalogram:
    stem = Path(stem)
    with _header(Path(str(stem) + ".json"), SCALOGRAM_SCHEMA, "circlet cwt", "scalogram") as meta:
        scales = ScaleGrid(_field(meta, "scale_min", float), _field(meta, "scale_max", float),
                           _field(meta, "scale_count", int))
        if meta["kind"] == "circle":
            angles, n_max = CircleGrid(_field(meta, "n_angles", int)), _field(meta, "n_max", int)
            fingerprint = _field(meta, "wavelet_fingerprint", str)
            _check_n_max(angles.n_samples, n_max)
            modes = _read_payload(stem, meta, (scales.count, 2 * n_max + 1))
            modes.flags.writeable = False
            return Scalogram(scales, angles, modes, n_max, fingerprint)
        if meta["kind"] == "line":
            grid = LineGrid(*_field(meta, "window", (float, float)), _field(meta, "n_samples", int))
            return LineScalogram(scales=scales, grid=grid,
                                 values=_read_payload(stem, meta, (scales.count, grid.n_samples)))
        raise ValueError(f"unknown scalogram kind {meta['kind']!r}")

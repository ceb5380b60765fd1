"""Command-line front end.

Exit codes: 0 success, 2 negative verdict on a well-posed question (for
example a wavelet that fails admissibility), 1 any error: a malformed
command line, a bad input file, a value the library refuses, a size too
large for memory, a bad CIRCLET_THREADS or an I/O failure.  Every error
ends as one stderr line `circlet: error: <message>`, with no traceback, and
every library warning as `circlet: warning: <message>`.  All stdout output
is deterministic for fixed arguments, so repeated runs are byte-identical.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

import numpy as np

from . import THREAD_CAP
from . import io as cio
from .circle import DEFAULT_N_SAMPLES, CircleGrid, CircleSignal
from .cwt import (
    DEFAULT_SCALE_COUNT,
    DEFAULT_SCALE_MAX,
    DEFAULT_SCALE_MIN,
    ScaleGrid,
    Scalogram,
    _relative,
    analyze,
    fourier_coeffs,
    frame_bounds,
    lambda_sequence,
    make_dog,
    reanalysis_error,
    synthesize,
)
from .errors import CircletError
from .euclid import ContractionParams, euclidean_limit_error, smooth_bump
from .laguerre import (
    LaguerreBasisSpec,
    _check_ladder_n_max,
    gauss_laguerre_gram,
    halfplane_basis,
    laguerre_function,
    laplace_transform,
)
from .line import (
    DEFAULT_LINE_SAMPLES,
    LineSignal,
    default_line_grid,
    line_admissibility,
    line_analyze,
    line_synthesize,
    mexican_hat,
)
from .sl2r import AffineElement

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; that code is reserved for negative
    # verdicts here, so a usage error takes the path of every other error
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ValueError(message)


def _comma_list(convert, what: str):
    """argparse type for a comma list of values, each parsed by convert."""
    def parse(text: str) -> list:
        try:
            return [convert(tok) for tok in text.split(",")]
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad {what} list {text!r}") from None
    return parse


def _move(tok: str) -> tuple[float, float]:
    b, a = tok.split(":")
    return float(b), float(a)


def _mode_count(text: str) -> int:
    """argparse type for a highest mode n_max of at least 0."""
    try:
        n_max = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n_max < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {n_max}")
    return n_max


def _point_count(text: str) -> int:
    """argparse type for --points random:N, N at least 1."""
    kind, _, count = text.partition(":")
    if kind == "random" and count.isdecimal() and int(count) >= 1:
        return int(count)
    raise argparse.ArgumentTypeError(f"must look like random:N with N at least 1, got {text!r}")


def _circle_builtin(name: str, n_samples: int) -> CircleSignal:
    parts = name.split(":")
    if parts[0] == "dog":
        if len(parts) < 2:
            raise ValueError("builtin dog needs a ratio, e.g. dog:2 or dog:2:balanced")
        try:
            alpha = float(parts[1])
        except ValueError:
            raise ValueError(f"bad dog ratio {parts[1]!r}")
        variant = parts[2] if len(parts) > 2 else "balanced"
        if variant not in ("balanced", "unbalanced"):
            raise ValueError(f"dog variant must be balanced or unbalanced, got {variant!r}")
        return make_dog(alpha, balanced=variant == "balanced", grid=CircleGrid(n_samples))
    if parts[0] == "gauss":
        return CircleSignal.from_evaluator(CircleGrid(n_samples), lambda t: np.exp(-np.tan(t) ** 2))
    if parts[0] == "constant":
        return CircleSignal.from_evaluator(CircleGrid(n_samples), np.ones_like)
    raise ValueError(f"unknown circle builtin {parts[0]!r}")


def _line_builtin(name: str, n_samples: int) -> LineSignal:
    if name == "mexican-hat":
        return mexican_hat(default_line_grid(n_samples))
    if name == "gauss":
        return LineSignal.from_evaluator(default_line_grid(n_samples), lambda x: np.exp(-x * x / 2.0))
    raise ValueError(f"unknown line builtin {name!r}")


def _read_input(path, kind: type) -> CircleSignal | LineSignal | Scalogram:
    """Read a signal file, or a scalogram when kind is Scalogram, refusing one of the other geometry."""
    read, what = (cio.read_scalogram, "scalogram") if kind is Scalogram else (cio.read_signal, "signal")
    obj = read(path)
    if not isinstance(obj, kind):
        have, need = ("circle", "line") if kind is LineSignal else ("line", "circle")
        raise ValueError(f"{path} holds a {have} {what}, need a {need} {what}")
    return obj


def _load_wavelet(args, kind: type) -> CircleSignal | LineSignal:
    if args.wavelet is not None:
        return _read_input(args.wavelet, kind)
    builtin = _circle_builtin if kind is CircleSignal else _line_builtin
    return builtin(args.builtin, args.n_samples)


def _scale_grid(args) -> ScaleGrid:
    return ScaleGrid(args.scale_min, args.scale_max, args.scale_count)


def _wavelet_flags(sub, line=False):
    sub.add_argument("--wavelet", help="signal CSV holding the wavelet samples")
    default = "mexican-hat" if line else "dog:2:balanced"
    sub.add_argument("--builtin", default=default,
                     help=f"built-in wavelet (default {default})")
    sub.add_argument("--n-samples", type=int, default=DEFAULT_LINE_SAMPLES if line else DEFAULT_N_SAMPLES,
                     help="sample count when building a built-in wavelet")


def _scale_flags(sub):
    sub.add_argument("--scale-min", type=float, default=DEFAULT_SCALE_MIN)
    sub.add_argument("--scale-max", type=float, default=DEFAULT_SCALE_MAX)
    sub.add_argument("--scale-count", type=int, default=DEFAULT_SCALE_COUNT)


def cmd_admissibility(args) -> int:
    gamma = _load_wavelet(args, CircleSignal)
    report = lambda_sequence(gamma, scales=_scale_grid(args), n_max=args.n_max)
    if args.out:
        cio.write_report(args.out, report)
    print(f"weak integral: {float(report.weak_integral.real)!r}")
    print(f"lambda inf: {report.inf_lambda!r}")
    print(f"lambda sup: {report.sup_lambda!r}")
    print(f"admissible: {'yes' if report.admissible else 'no'}")
    return EXIT_OK if report.admissible else EXIT_NEGATIVE


def cmd_frame(args) -> int:
    gamma = _load_wavelet(args, CircleSignal)
    report = lambda_sequence(gamma, scales=_scale_grid(args), n_max=args.n_max)
    lo, hi = frame_bounds(report)
    print(f"frame lower: {lo!r}")
    print(f"frame upper: {hi!r}")
    # end-to-end check: transform energy of a two-mode probe against the
    # diagonal sum pi * sum_n lambda_n |psi^n|^2
    grid = gamma.grid
    probe = CircleSignal(grid, (np.cos(2 * grid.nodes) + 0.5 * np.sin(4 * grid.nodes)).astype(complex))
    coeffs = fourier_coeffs(probe, report.n_max)
    predicted = float(np.pi * np.sum(report.lambdas * np.abs(coeffs.values) ** 2))
    scal = analyze(probe, gamma, scales=report.scales, n_max=report.n_max)
    measured = scal.energy()
    rel = _relative(abs(measured - predicted), predicted)
    print(f"diagonal energy: {predicted!r}")
    print(f"transform energy: {measured!r}")
    print(f"relative deviation: {rel!r}")
    return EXIT_OK if report.admissible else EXIT_NEGATIVE


def cmd_cwt(args) -> int:
    gamma = _load_wavelet(args, CircleSignal)
    sig = _read_input(args.signal, CircleSignal)
    scal = analyze(sig, gamma, scales=_scale_grid(args), n_max=args.n_max)
    cio.write_scalogram(args.out, scal)
    print(f"wrote {args.out}.json ({scal.scales.count} scales x {scal.angles.n_samples} angles)")
    return EXIT_OK


def cmd_icwt(args) -> int:
    gamma = _load_wavelet(args, CircleSignal)
    report = cio.read_report(args.report)
    scal = _read_input(args.scalogram, Scalogram)
    rec = synthesize(scal, gamma, report)
    # the self check comes before any write, so that an error leaves no file
    err = reanalysis_error(scal, gamma, report, rec)
    if args.out:
        cio.write_signal(args.out, rec)
    print(f"reanalysis relative error: {err!r}")
    return EXIT_OK


def cmd_line_cwt(args) -> int:
    # inputs are read and checked first: exit 2 answers only a well-posed question
    gamma = _load_wavelet(args, LineSignal)
    sig = _read_input(args.signal, LineSignal)
    scales = _scale_grid(args)
    adm = line_admissibility(gamma)
    if not adm.admissible:
        print("wavelet fails the line admissibility integral")
        return EXIT_NEGATIVE
    scal = line_analyze(sig, gamma, scales=scales)
    if args.out:
        cio.write_scalogram(args.out, scal)
        print(f"wrote {args.out}.json ({scales.count} scales x {sig.grid.n_samples} positions)")
    if args.roundtrip:
        rec = line_synthesize(scal, gamma, adm)
        err = LineSignal(sig.grid, rec.values - sig.values).norm()
        print(f"round trip relative error: {_relative(err, sig.norm())!r}")
    return EXIT_OK


def cmd_euclid(args) -> int:
    # every radius and move is checked, and every error computed, before
    # anything is printed, so an exit 1 leaves stdout empty
    radii = [ContractionParams(radius=r) for r in args.R_list]
    moves = [AffineElement(a, b) for b, a in args.pairs]
    f = LineSignal.from_evaluator(default_line_grid(args.n_samples), smooth_bump(1.0))
    lines = []
    for move in moves:
        b, a = move.b, move.a
        errs = [euclidean_limit_error(f, b, a, params) for params in radii]
        lines += [f"b={b!r} a={a!r} R={p.radius!r} error={err!r}" for p, err in zip(radii, errs)]
        if len(errs) >= 2 and errs[-1] > 0:
            lines.append(f"b={b!r} a={a!r} shrink factor={errs[0] / errs[-1]!r}")
    print("\n".join(lines))
    return EXIT_OK


def cmd_laguerre(args) -> int:
    spec = LaguerreBasisSpec(k=args.k)
    gram = gauss_laguerre_gram(spec, args.n_max)
    off = gram - np.eye(args.n_max + 1)
    print(f"gram deviation from identity: {float(np.max(np.abs(off)))!r}")
    return EXIT_OK


def cmd_laplace(args) -> int:
    spec = LaguerreBasisSpec(k=args.k)
    _check_ladder_n_max(spec, args.n_max)
    rng = np.random.default_rng(args.seed)
    ws = rng.uniform(0.5, 2.0, args.points) + 1j * rng.uniform(-2.0, 2.0, args.points)
    grid = ScaleGrid(1e-4, 200.0, 4000)
    worst = 0.0
    for n in range(args.n_max + 1):
        f = laguerre_function(spec, n, grid)
        for w in ws:
            got = laplace_transform(f, spec, w)
            want = complex(halfplane_basis(spec, n, w))
            worst = max(worst, abs(got - want))
    print(f"checked modes 0..{args.n_max} at {args.points} points")
    print(f"max transform error: {worst!r}")
    return EXIT_OK


def build_parser() -> _Parser:
    p = _Parser(prog="circlet", description="wavelet analysis on the circle and the line")
    p.add_argument("--seed", type=int, default=0, help="seed for any randomized choices")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("admissibility", help="scale-integral admissibility report for a circle wavelet")
    _wavelet_flags(s)
    _scale_flags(s)
    s.add_argument("--n-max", type=int, default=None)
    s.add_argument("--out", help="write the report JSON here")
    s.set_defaults(func=cmd_admissibility)

    s = sub.add_parser("frame", help="frame bounds and an energy cross-check")
    _wavelet_flags(s)
    _scale_flags(s)
    s.add_argument("--n-max", type=int, default=None)
    s.set_defaults(func=cmd_frame)

    s = sub.add_parser("cwt", help="circle wavelet transform of a signal CSV")
    _wavelet_flags(s)
    _scale_flags(s)
    s.add_argument("--signal", required=True)
    s.add_argument("--n-max", type=int, default=None)
    s.add_argument("--out", required=True, help="output stem: writes the header <out>.json and the payload <out>.npy")
    s.set_defaults(func=cmd_cwt)

    s = sub.add_parser("icwt", help="reconstruct a signal from a scalogram")
    _wavelet_flags(s)
    s.add_argument("--scalogram", required=True, help="stem written by cwt")
    s.add_argument("--report", required=True, help="report JSON from admissibility")
    s.add_argument("--out", help="write the reconstruction CSV here")
    s.set_defaults(func=cmd_icwt)

    s = sub.add_parser("line-cwt", help="wavelet transform on the real line")
    _wavelet_flags(s, line=True)
    _scale_flags(s)
    s.add_argument("--signal", required=True)
    s.add_argument("--out", help="output stem for the scalogram")
    s.add_argument("--roundtrip", action="store_true", help="also reconstruct and print the error")
    s.set_defaults(func=cmd_line_cwt)

    s = sub.add_parser("euclid", help="flat-limit contraction errors for given moves and radii")
    s.add_argument("--R-list", type=_comma_list(float, "radius"), default="10,100,1000")
    s.add_argument("--pairs", type=_comma_list(_move, "b:a move"), default="0.7:2.0,-1.0:0.5",
                   help="comma list of b:a moves")
    s.add_argument("--n-samples", type=int, default=DEFAULT_LINE_SAMPLES)
    s.set_defaults(func=cmd_euclid)

    s = sub.add_parser("laguerre", help="orthonormality check for the radial ladder basis")
    s.add_argument("--k", type=float, default=1.0)
    s.add_argument("--n-max", type=_mode_count, default=8)
    s.set_defaults(func=cmd_laguerre)

    s = sub.add_parser("laplace", help="compare the integral transform with its closed form")
    s.add_argument("--k", type=float, default=1.0)
    s.add_argument("--n-max", type=_mode_count, default=4)
    s.add_argument("--points", type=_point_count, default="random:5", help="random:N, N seeded points")
    s.set_defaults(func=cmd_laplace)

    return p


def main(argv=None) -> int:
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_, **__: print(f"circlet: warning: {message}", file=sys.stderr)
        try:
            if THREAD_CAP is None and "CIRCLET_THREADS" in os.environ:
                raise ValueError(f"CIRCLET_THREADS must be a positive integer, got {os.environ['CIRCLET_THREADS']!r}")
            args = build_parser().parse_args(argv)
            return args.func(args)
        except (CircletError, OSError, ValueError, MemoryError) as exc:
            # ValueError: a malformed command line, or an argument value the
            # library refuses, such as a one-node scale grid or a Laguerre
            # weight that is not a half-integer; MemoryError: a size no
            # machine can hold, such as a scale count of 10^15
            print(f"circlet: error: {exc}", file=sys.stderr)
            return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())

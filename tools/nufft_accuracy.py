"""Accuracy of the shared non-uniform FFT against dense sums, on one source tree.

    python3 tools/nufft_accuracy.py --src src
    python3 tools/nufft_accuracy.py --src ../parent/src --n-max 64 --draws 20

Puts `--src DIR` first on sys.path and measures what the docstrings of
`circle.trig_interpolate` and `line.dilated_spectra` claim:

- `circle_worst`: the largest |trig_interpolate - direct mode sum| over
  max |samples|, for full-band complex samples on every even n in
  4 ... --n-max, 99 targets in [-4, 4] each, seeded by n;
- `circle_closed_form_N`: the largest error against samples of a known
  trig polynomial in the modes |k| <= N/4, over max |polynomial|, at
  N = 4096 and 16384, 200 targets in [-4, 4];
- `circle_real_out`: the largest |imag| over max |value| of the
  interpolant of real samples at n = 4, 6, 64 and 1024, which should be
  rounding;
- `line_worst`: the largest |dilated_spectra - dense DTFT| over the
  entry bound sqrt(a) h_w / h * sum |g_j|, over --draws seeded draws of
  wavelet window, signal grid, real or complex samples and scale grid;
- `line_off_centre`: the same on the window [100, 116) of 1024 samples,
  whose centre enters only through a phase.

Each line is a name, the error and, for a worst case, where it fell.
Run it on two trees to compare a change with its parent.  Uses only the
standard library and numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

TARGET_CHUNK = 20  # targets per dense block, so no dense matrix tops a few MB


def dense_modes(grid, values: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The trigonometric interpolant of midpoint samples by its direct mode sum."""
    n = grid.n_samples
    u = np.fft.fft(values) / n
    ks = np.arange(-(n // 2), n // 2 + 1)
    c = u[ks % n]
    c[[0, -1]] *= 0.5
    j = (theta + np.pi / 2) / grid.spacing - 0.5
    return np.exp(2j * np.pi * np.outer(j, ks) / n) @ c


def circle_worst(n_max: int) -> tuple[float, int]:
    from circlet import CircleGrid, trig_interpolate

    worst, at = 0.0, 0
    for n in range(4, n_max + 1, 2):
        grid = CircleGrid(n)
        rng = np.random.default_rng(n)
        vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        theta = rng.uniform(-4.0, 4.0, 99)
        err = np.max(np.abs(trig_interpolate(grid, vals, theta) - dense_modes(grid, vals, theta)))
        err /= np.max(np.abs(vals))
        if err > worst:
            worst, at = float(err), n
    return worst, at


def circle_closed_form(n: int) -> float:
    from circlet import CircleGrid, trig_interpolate

    grid = CircleGrid(n)
    rng = np.random.default_rng(n)
    k = np.arange(-(n // 4), n // 4 + 1)
    c = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / (1.0 + np.abs(k))
    spectrum = np.zeros(n, dtype=complex)
    # e^{2ik theta_j} = e^{-ik pi + i pi k / n} e^{2 pi i k j / n} on the midpoint grid
    spectrum[k % n] = c * np.exp(1j * np.pi * k * (1.0 / n - 1.0))
    vals = n * np.fft.ifft(spectrum)
    theta = rng.uniform(-4.0, 4.0, 200)
    want = np.concatenate([np.exp(2j * np.outer(theta[i:i + TARGET_CHUNK], k)) @ c
                           for i in range(0, theta.size, TARGET_CHUNK)])
    return float(np.max(np.abs(trig_interpolate(grid, vals, theta) - want)) / np.max(np.abs(want)))


def circle_real_out() -> float:
    from circlet import CircleGrid, trig_interpolate

    worst = 0.0
    for n in (4, 6, 64, 1024):
        got = trig_interpolate(CircleGrid(n), np.random.default_rng(n).standard_normal(n), np.linspace(-4.0, 4.0, 301))
        worst = max(worst, float(np.max(np.abs(got.imag)) / np.max(np.abs(got))))
    return worst


def line_gap(gamma, grid, scales) -> float:
    """Largest |table - dense DTFT| over the per-scale entry bound."""
    from circlet import dilated_spectra

    table = dilated_spectra(gamma, grid, scales)
    x, hw = gamma.grid.nodes, gamma.grid.spacing
    bound = np.sqrt(scales.nodes) * hw / grid.spacing * np.sum(np.abs(gamma.values))
    worst = 0.0
    for row, a, b in zip(table, scales.nodes, bound):
        kappa = a * grid.freqs[:row.size]
        keep = np.abs(kappa) <= np.pi / hw
        want = np.zeros(row.size, dtype=complex)
        want[keep] = np.sqrt(a) * hw / grid.spacing * (np.exp(-1j * np.outer(kappa[keep], x)) @ gamma.values)
        worst = max(worst, float(np.max(np.abs(row - want))) / b)
    return worst


def line_worst(draws: int) -> tuple[float, int]:
    from circlet import LineGrid, LineSignal, ScaleGrid

    worst, at = 0.0, 0
    for draw in range(draws):
        rng = np.random.default_rng(draw)
        grid = LineGrid(-float(rng.uniform(1.0, 20.0)), float(rng.uniform(1.0, 20.0)),
                        2 * int(rng.integers(16, 256)))
        wgrid = grid if rng.integers(2) else LineGrid(float(rng.uniform(-9.0, 3.0)), float(rng.uniform(4.0, 9.0)),
                                                      2 * int(rng.integers(8, 128)))
        values = rng.normal(size=wgrid.n_samples)
        if rng.integers(2):
            values = values + 1j * rng.normal(size=wgrid.n_samples)
        lo, hi = sorted(np.exp(rng.uniform(np.log(1e-3), np.log(1e2), 2)))
        scales = ScaleGrid(float(lo), float(max(hi, lo * 1.01)), int(rng.integers(2, 7)))
        gap = line_gap(LineSignal(wgrid, values), grid, scales)
        if gap > worst:
            worst, at = gap, draw
    return worst, at


def line_off_centre() -> float:
    from circlet import LineGrid, LineSignal, ScaleGrid

    rng = np.random.default_rng(5)
    wgrid = LineGrid(100.0, 116.0, 1024)
    grid, scales = LineGrid(-16.0, 16.0, 2048), ScaleGrid(1e-2, 1e1, 5)
    return max(line_gap(LineSignal(wgrid, values), grid, scales)
               for values in (rng.normal(size=1024), rng.normal(size=1024) + 1j * rng.normal(size=1024)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the circlet package to measure")
    parser.add_argument("--n-max", type=int, default=1024, help="largest circle grid of the full-band sweep")
    parser.add_argument("--draws", type=int, default=300, help="seeded draws of the line comparison")
    args = parser.parse_args(argv)
    if args.n_max < 4:
        parser.error(f"--n-max must be at least 4, got {args.n_max}")
    if args.draws < 1:
        parser.error(f"--draws must be at least 1, got {args.draws}")
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import circlet

    if src not in Path(circlet.__file__).resolve().parents:
        parser.error(f"imported circlet from {circlet.__file__}, not from {src}")
    print(f"# nufft_accuracy n=4..{args.n_max} draws={args.draws} src={args.src}")
    worst, n = circle_worst(args.n_max)
    print(f"circle_worst {worst:.3e} n={n}")
    for n in (4096, 16384):
        print(f"circle_closed_form_{n} {circle_closed_form(n):.3e}")
    print(f"circle_real_out {circle_real_out():.3e}")
    worst, draw = line_worst(args.draws)
    print(f"line_worst {worst:.3e} draw={draw}")
    print(f"line_off_centre {line_off_centre():.3e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

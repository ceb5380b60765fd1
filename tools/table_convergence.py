"""Grid convergence of the circle's coefficient table, column by column, on one source tree.

    python3 tools/table_convergence.py --src src
    python3 tools/table_convergence.py --src src --wavelet w.csv --scale-count 40

Puts `--src DIR` first on sys.path and builds `dilated_coeffs` for one
wavelet (a builtin of `circlet admissibility`, default dog:2, or a signal
file) on its own grid of N samples and on grids of 4N and 16N samples of
the same wavelet: a builtin is sampled there through its exact evaluator,
a file through `trig_interpolate` of its samples.  For each scale it prints
a and the gap of the N-point column against each refined one, max over n
of |difference| over max over n of |refined c_n(a)|.  The last line names
the first scale whose gap exceeds GAP_TOL against each refinement, or
"none".  The midpoint sum on N points stops resolving the kernel where it
varies on a width of about 1/a around u = 0, so on the defaults (dog:2,
1024 samples, n_max 64, 1e-3..1e3 x 400) that is a = 12.7.  It prints
only; no verdict depends on it.  Uses only the standard library and numpy.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

GAP_TOL = 1e-6
REFINEMENTS = (4, 16)


def column_gaps(table: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Per scale, max_n |table - ref| / max_n |ref|, for (2 n_max + 1, count) tables."""
    return np.max(np.abs(table - ref), axis=0) / np.max(np.abs(ref), axis=0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", required=True, help="directory holding the circlet package to run")
    parser.add_argument("--wavelet", help="signal CSV holding the wavelet samples")
    parser.add_argument("--builtin", default="dog:2", help="built-in wavelet when no --wavelet (default dog:2)")
    parser.add_argument("--n-samples", type=int, default=1024, help="grid of a built-in wavelet (default 1024)")
    parser.add_argument("--scale-min", type=float, default=1e-3)
    parser.add_argument("--scale-max", type=float, default=1e3)
    parser.add_argument("--scale-count", type=int, default=400)
    args = parser.parse_args(argv)
    src = Path(args.src).resolve()
    sys.path.insert(0, str(src))
    import circlet
    from circlet import CircleGrid, CircleSignal, ScaleGrid, dilated_coeffs, trig_interpolate
    from circlet.cli import _circle_builtin
    from circlet.io import read_signal

    if src not in Path(circlet.__file__).resolve().parents:
        parser.error(f"imported circlet from {circlet.__file__}, not from {src}")
    gamma = read_signal(args.wavelet) if args.wavelet else _circle_builtin(args.builtin, args.n_samples)
    if not isinstance(gamma, CircleSignal):
        parser.error(f"{args.wavelet} holds no circle signal")
    grid, scales = gamma.grid, ScaleGrid(args.scale_min, args.scale_max, args.scale_count)
    table = dilated_coeffs(gamma, scales)  # the band the wavelet's grid resolves, at most 64
    n_max = (table.shape[0] - 1) // 2

    def evaluate(theta):
        return gamma.evaluator(theta) if gamma.evaluator is not None else trig_interpolate(grid, gamma.values, theta)

    gaps = []
    for k in REFINEMENTS:
        fine = CircleSignal.from_evaluator(CircleGrid(k * grid.n_samples), evaluate)
        gaps.append(column_gaps(table, dilated_coeffs(fine, scales, n_max)))
    what = args.wavelet or args.builtin
    print(f"# table_convergence wavelet={what} n_samples={grid.n_samples} n_max={n_max} "
          f"scales={args.scale_min:g}..{args.scale_max:g}x{args.scale_count} src={args.src}")
    print("a " + " ".join(f"gap_x{k}" for k in REFINEMENTS))
    for a, *row in zip(scales.nodes, *gaps):
        print(f"{a:.6g} " + " ".join(f"{g:.3e}" for g in row))
    first = []
    for k, gap in zip(REFINEMENTS, gaps):
        over = np.flatnonzero(gap > GAP_TOL)
        first.append(f"x{k} " + (f"{scales.nodes[over[0]]:.6g}" if over.size else "none"))
    print(f"first_gap_over_{GAP_TOL:g} " + " ".join(first))
    return 0


if __name__ == "__main__":
    sys.exit(main())

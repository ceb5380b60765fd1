"""Bridge between the half-circle chart and the line, and the flat limit.

The stereographic substitution x = tan(theta) gives a unitary map
    (S gamma)(x) = gamma(arctan x) / sqrt(1 + x^2)
from chart signals to line signals, with inverse
    (S^-1 f)(theta) = f(tan theta) / cos theta.
S intertwines the chart dilation with the affine dilation exactly,
pointwise, which transfers admissibility between the two geometries.

Blowing the circle radius up to R generalizes S to
    (I_R gamma)(x) = gamma(arctan(x/R)) / sqrt(1 + (x/R)^2),
an isometry for the R-scaled chart measure (norm grows by sqrt(R)); the
group point (b, a) of the affine group contracts to the chart point
(arctan(b/R), a).  Conjugating the chart action by I_R approaches the
affine action on any compactly supported signal as R grows; the measured
decay is quadratic in 1/R and is reported, not asserted, as a law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .circle import CircleGrid, CircleSignal, RepParams, edge_fraction, rep_action
from .errors import DecayError, SupportEscapeError, require_positive
from .line import LineGrid, LineSignal, affine_action

EDGE_DECAY_TOL = 1e-8
SUPPORT_MARGIN = 0.98


@dataclass(frozen=True)
class ContractionParams:
    """Radius R of the blown-up circle; R = 1 is the plain stereographic map."""

    radius: float = 1.0

    def __post_init__(self):
        require_positive("radius", self.radius)


def i_r_map(gamma: CircleSignal, line_grid: LineGrid, params: ContractionParams) -> LineSignal:
    """Chart signal -> line signal through the radius-R substitution."""
    R = params.radius

    def f(x):
        x = np.asarray(x, dtype=float)
        return gamma(np.arctan(x / R)) / np.sqrt(1.0 + (x / R) ** 2)

    return LineSignal.derived(line_grid, f, gamma)


def i_r_inverse(f: LineSignal, circle_grid: CircleGrid, params: ContractionParams) -> CircleSignal:
    """Line signal -> chart signal; requires decay at the window edges.

    Angles whose tangent leaves the window evaluate the line signal there
    anyway (evaluator) or as zero (samples), so the guard insists edge
    values are negligible.
    """
    R = params.radius
    frac = edge_fraction(f.values)
    if frac > EDGE_DECAY_TOL:
        raise DecayError(
            f"window edge carries {frac:.3e} of the peak (> {EDGE_DECAY_TOL:.0e}); "
            "the chart lift would alias the tails"
        )

    def g(t):
        t = np.asarray(t, dtype=float)
        return f(R * np.tan(t)) / np.cos(t)

    return CircleSignal.derived(circle_grid, g, f)


def stereo_project(gamma: CircleSignal, line_grid: LineGrid) -> LineSignal:
    """Unit-radius projection (S gamma)(x) = gamma(arctan x)/sqrt(1+x^2)."""
    return i_r_map(gamma, line_grid, ContractionParams(1.0))


def stereo_lift(f: LineSignal, circle_grid: CircleGrid) -> CircleSignal:
    """Unit-radius lift (S^-1 f)(theta) = f(tan theta)/cos theta."""
    return i_r_inverse(f, circle_grid, ContractionParams(1.0))


def check_intertwining(
    gamma: CircleSignal,
    a: float,
    line_grid: LineGrid,
    params: RepParams | None = None,
) -> float:
    """Max pointwise residual of S(chart dilation) - (affine dilation)S.

    Both routes are evaluated on the line grid; zero up to roundoff for
    any chart signal with an evaluator.
    """
    dilated = rep_action(gamma, a, 0.0, params)
    lhs = stereo_project(dilated, line_grid)
    rhs = affine_action(stereo_project(gamma, line_grid), a, 0.0)
    return float(np.max(np.abs(lhs.values - rhs.values)))


def contract_point(b: float, a: float, params: ContractionParams) -> tuple[float, float]:
    """Affine group point (b, a) -> chart point (arctan(b/R), a)."""
    require_positive("dilation", a)
    return float(np.arctan(b / params.radius)), a


def _support_halfwidth(f: LineSignal, tol: float = 1e-14) -> float:
    """Half-width of the essential support of f around 0 (from samples)."""
    v = np.abs(f.values)
    peak = float(v.max())
    if peak == 0.0:
        return 0.0
    live = f.grid.nodes[v > tol * peak]
    return float(np.max(np.abs(live)))


def euclidean_limit_error(
    f: LineSignal,
    b: float,
    a: float,
    params: ContractionParams,
) -> float:
    """L2 distance between the conjugated chart action and the affine action.

    Routes f through the radius-R chart: lift, act at the contracted group
    point, project back, and compare with a^(-1/2) f((x-b)/a) in the line
    norm.  Raises when the dilated-and-rotated support would wrap past the
    chart ends or leave the window.
    """
    R = params.radius
    vt, _ = contract_point(b, a, params)
    half = _support_halfwidth(f)
    ang = np.arctan(a * half / R) + abs(vt)
    if ang >= SUPPORT_MARGIN * np.pi / 2:
        raise SupportEscapeError(
            f"support angle {ang:.3f} reaches the chart ends at R = {R}; "
            "increase the radius or shrink the support"
        )
    reach = a * half + abs(b)
    if reach >= min(abs(f.grid.lo), abs(f.grid.hi)):
        raise SupportEscapeError(
            f"transformed support half-width {reach:.3f} leaves the window "
            f"[{f.grid.lo}, {f.grid.hi})"
        )
    chart = CircleGrid(f.grid.n_samples)
    lifted = i_r_inverse(f, chart, params)
    acted = rep_action(lifted, a, vt)
    back = i_r_map(acted, f.grid, params)
    target = affine_action(f, a, b).values
    return LineSignal(f.grid, back.values - target).norm()


def smooth_bump(halfwidth: float = 1.0) -> Callable:
    """Standard compactly supported mollifier on [-halfwidth, halfwidth]."""
    require_positive("halfwidth", halfwidth)

    def bump(x):
        x = np.asarray(x, dtype=float)
        u = x / halfwidth
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(-1.0 / (1.0 - u[inside] ** 2))
        return out

    return bump

"""Flat-geometry counterpart: the affine wavelet transform on the line.

Signals sit on a uniform endpoint-exclusive grid over a window [lo, hi);
all Fourier work treats the window as one period, so signals must decay
inside it.  The affine group acts by
    (U(a, b) f)(x) = a^(-1/2) f((x - b)/a),
and the admissibility constant of a wavelet G is
    C = int |G^(k)|^2 / |k| dk        (unitary Fourier convention),
with the k = 0 bin excluded.  Reconstruction divides per half-line by
2 pi C_sgn(k), the exact resolution constant for that frequency sign.

The companion Fourier-picture action on L2(R+, da/a),
    (U(a', b') phi)(a) = e^{-i a b'} phi(a' a),
lives on the circle's log-uniform ScaleGrid, here also named LogGrid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circle import Sampled, _store_complex_values, edge_fraction
from .cwt import MODE_FLOOR, WEAK_DECAY_TOL, WEAK_VERDICT_TOL, ScaleGrid
from .errors import require_positive

DEFAULT_LINE_SAMPLES = 2048


@dataclass(frozen=True)
class LineGrid:
    """Uniform grid x_j = lo + j (hi - lo)/n, j = 0..n-1 (hi excluded)."""

    lo: float
    hi: float
    n_samples: int

    def __post_init__(self):
        if not (self.hi > self.lo and np.isfinite(self.lo) and np.isfinite(self.hi)):
            raise ValueError(f"bad window [{self.lo}, {self.hi})")
        if self.n_samples < 4 or self.n_samples % 2:
            raise ValueError(f"n_samples must be even and >= 4, got {self.n_samples}")

    @property
    def spacing(self) -> float:
        return (self.hi - self.lo) / self.n_samples

    @property
    def nodes(self) -> np.ndarray:
        return self.lo + self.spacing * np.arange(self.n_samples)

    @property
    def freqs(self) -> np.ndarray:
        """Angular frequencies of the periodized window, FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n_samples, d=self.spacing)


def default_line_grid(n_samples: int = DEFAULT_LINE_SAMPLES) -> LineGrid:
    return LineGrid(-16.0, 16.0, n_samples)


def _interp_linear(x: np.ndarray, xp: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Piecewise-linear interpolation of complex samples, zero outside the nodes."""
    re = np.interp(x, xp, values.real, left=0.0, right=0.0)
    im = np.interp(x, xp, values.imag, left=0.0, right=0.0)
    return re + 1j * im


@dataclass(frozen=True, eq=False)
class LineSignal(Sampled):
    """Sampled line signal, linearly interpolated, with an optional exact evaluator."""

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        return _interp_linear(x, self.grid.nodes, self.values)


def affine_action(f: LineSignal, a: float, b: float) -> LineSignal:
    """Unitary affine action a^(-1/2) f((x-b)/a) on the same grid."""
    require_positive("dilation", a)

    def acted(x):
        return a ** -0.5 * f((np.asarray(x, dtype=float) - b) / a)

    return LineSignal(f.grid, acted(f.grid.nodes), acted if f.evaluator is not None else None)


def spectrum(f: LineSignal) -> np.ndarray:
    """Continuum Fourier transform samples G^(k) at grid.freqs (FFT order)."""
    g = f.grid
    raw = np.fft.fft(f.values)
    # midpoint-free uniform grid: phase anchors the window origin
    return (g.spacing / np.sqrt(2.0 * np.pi)) * raw * np.exp(-1j * g.freqs * g.lo)


@dataclass(frozen=True)
class LineAdmissibility:
    """Admissibility constant split by frequency sign; c_total = c_pos + c_neg.
    `converged` is the weak condition (decay and zero mean, see line_admissibility)."""

    c_total: float
    c_pos: float
    c_neg: float
    converged: bool
    admissible: bool


def line_admissibility(gamma: LineSignal) -> LineAdmissibility:
    """Discrete admissibility integral sum_k |G^(k)|^2/|k| dk, k = 0 excluded.

    The k = 0 bin is excluded, so convergence is the circle's weak
    condition carried over by x = tan(theta), which turns
    int gamma/cos(theta) dtheta into int G dx: edge samples within
    WEAK_DECAY_TOL of the peak and |sum G| <= WEAK_VERDICT_TOL sum |G|, an
    L1 ratio free of the window length and the wavelet's scale.
    """
    g = gamma.grid
    sp = spectrum(gamma)
    k = g.freqs
    dk = 2.0 * np.pi / (g.hi - g.lo)
    dens = np.zeros_like(k)
    nz = k != 0.0
    dens[nz] = np.abs(sp[nz]) ** 2 / np.abs(k[nz])
    c_pos = float(np.sum(dens[k > 0]) * dk)
    c_neg = float(np.sum(dens[k < 0]) * dk)
    v = gamma.values
    converged = (edge_fraction(v) <= WEAK_DECAY_TOL
                 and abs(np.sum(v)) <= WEAK_VERDICT_TOL * np.sum(np.abs(v)))
    admissible = bool(converged and c_pos > 0.0 and c_neg > 0.0)
    return LineAdmissibility(c_pos + c_neg, c_pos, c_neg, bool(converged), admissible)


def mexican_hat(grid: LineGrid | None = None) -> LineSignal:
    """Second-derivative-of-Gaussian wavelet (1 - x^2) e^{-x^2/2}."""
    grid = grid or default_line_grid()

    def hat(x):
        x = np.asarray(x, dtype=float)
        return (1.0 - x * x) * np.exp(-0.5 * x * x)

    return LineSignal.from_evaluator(grid, hat)


# the line's scales and the half-line's radii run on the circle's scale grid
LineScaleGrid = LogGrid = ScaleGrid


@dataclass(frozen=True, eq=False)
class LineScalogram:
    """Affine wavelet coefficients on translate x scale; b-grid = signal grid."""

    scales: ScaleGrid
    grid: LineGrid
    values: np.ndarray

    def __post_init__(self):
        shape = (self.scales.count, self.grid.n_samples)
        _store_complex_values(self, shape, lambda got: f"values shape {got} does not match {shape}")


def _wavelet_stencil(gamma: LineSignal, grid: LineGrid, a: float) -> np.ndarray:
    """a^{-1/2} G(delta/a) on the signed circular offset grid of `grid`."""
    n = grid.n_samples
    offs = (np.arange(n) + n // 2) % n - n // 2
    delta = offs * grid.spacing
    return a ** -0.5 * gamma(delta / a)


def line_analyze(psi: LineSignal, gamma: LineSignal, scales: ScaleGrid) -> LineScalogram:
    """W(b, a) = <U(a,b) gamma | psi> for b on the signal grid, per-scale FFT.

    Circular cross-correlation over the periodized window; both signals
    must decay inside the window for the wraparound to be harmless.
    """
    g = psi.grid
    F = np.fft.fft(psi.values)
    out = np.empty((scales.count, g.n_samples), dtype=complex)
    for j, a in enumerate(scales.nodes):
        st = _wavelet_stencil(gamma, g, a)
        out[j] = g.spacing * np.fft.ifft(F * np.conj(np.fft.fft(st)))
    return LineScalogram(scales=scales, grid=g, values=out)


def line_analyze_direct(psi: LineSignal, gamma: LineSignal, a: float, b: float) -> complex:
    """Single coefficient by direct quadrature (oracle route)."""
    return affine_action(gamma, a, b).inner(psi)


def line_synthesize(
    scalogram: LineScalogram,
    gamma: LineSignal,
    adm: LineAdmissibility,
) -> LineSignal:
    """Reconstruct from int int W(b,a) (U(a,b) gamma)(x) db da/a^2.

    Normalized per frequency half-line by 2 pi C_sgn(k) (the exact
    resolution constant); frequencies on a half-line with constant below
    MODE_FLOOR * C_total are dropped, k = 0 included.
    """
    g = scalogram.grid
    scales = scalogram.scales
    weights = g.spacing * scales.log_weights / scales.nodes  # db da/a^2
    acc_hat = np.zeros(g.n_samples, dtype=complex)
    for j, a in enumerate(scales.nodes):
        st = _wavelet_stencil(gamma, g, a)
        acc_hat += weights[j] * np.fft.fft(scalogram.values[j]) * np.fft.fft(st)
    k = g.freqs
    floor = MODE_FLOOR * max(adm.c_total, 1e-300)
    scale_fac = np.zeros(g.n_samples)
    pos = (k > 0) & (adm.c_pos > floor)
    neg = (k < 0) & (adm.c_neg > floor)
    scale_fac[pos] = 1.0 / (2.0 * np.pi * adm.c_pos)
    scale_fac[neg] = 1.0 / (2.0 * np.pi * adm.c_neg)
    return LineSignal(g, np.fft.ifft(acc_hat * scale_fac))


@dataclass(frozen=True, eq=False)
class RPlusFunction(Sampled):
    """Function on the positive half-line with the scale-invariant measure,
    linearly interpolated in ln r."""

    def _interpolate(self, r: np.ndarray) -> np.ndarray:
        return _interp_linear(np.log(r), np.log(self.grid.nodes), self.values)


def rplus_action(phi: RPlusFunction, a: float, b: float) -> RPlusFunction:
    """Fourier-picture affine action (U(a,b) phi)(r) = e^{-i r b} phi(a r)."""
    require_positive("dilation", a)

    def acted(r):
        r = np.asarray(r, dtype=float)
        return np.exp(-1j * r * b) * phi(a * r)

    return RPlusFunction(phi.grid, acted(phi.grid.nodes), acted if phi.evaluator is not None else None)

"""Continuous wavelet analysis on the half-circle chart.

The transform of a signal psi against a wavelet gamma is
    W(vartheta, a) = <U(vartheta, a) gamma | psi>,
computed per scale as a mode sum: in the orthonormal basis
e^{2 i n theta}/sqrt(pi) the acted wavelet has coefficients
e^{-2 i n vartheta} c_n(a), where c_n(a) is the coefficient of the purely
dilated wavelet.  Every weight is diagonal on the modes, so it sits on a
small (scales x modes) array and the scalogram meets only its FFTs:
analyze sets conj(c_n(a)) psi_n e^{2 i n theta_0} in the band's bins of
one unscaled inverse FFT per scale (all scales batched), and synthesize
contracts the FFT of each block of scales, on those bins, with one kernel
holding c_m(a), the conjugate phase, the angle and ln a quadrature
weights, 1/a and 1/(pi L_m).

One band rule, 1 <= n_max <= N/4 (`_check_n_max`), holds wherever a mode
band meets a grid of N points: the wavelet's, the signal's and a
scalogram's angles, so every mode has its own FFT bin and none aliases.

Admissibility is controlled by the per-mode scale integrals
    L_n = int_0^inf da/a^2 |c_n(a)|^2,
approximated by log-trapezoid quadrature over ln a.  The necessary weak
condition is the vanishing of int gamma(theta)/cos(theta) dtheta.  The
analysis operator is diagonal on modes with eigenvalues pi * L_n, which
the reconstruction divides out.

c_n(a) is evaluated in the undilated variable,
    c_n(a) = (1/sqrt(pi)) int multiplier(a,u)^(1/2) gamma(u)
             e^{-2 i n dilate(u, a)} du,
which needs gamma only at grid nodes and stays accurate at scales far
below the grid spacing (the dilated-variable form cannot resolve those).
The table c_n(a) depends only on the wavelet samples, the scale grid and
n_max, so admissibility, analysis and reconstruction share one read-only
copy from a small content-keyed memo.  An admissibility report carries the
table its L_n came from, and the written report keeps it beside the JSON,
so reconstruction on the report's scale grid, in this process or another,
builds no table; on another grid it builds its own.

The reconstruction's self check, the relative l2 distance between the
scalogram and the analysis of the reconstruction, is taken in mode space:
by Parseval over the angle grid, one FFT of the scalogram gives both the
in-band misfit, on the band's bins, and the energy the band cannot
represent, on the bins between its two runs.

Reports and scalograms are stamped with the fingerprint of the wavelet
they were computed for, and reconstruction refuses a mismatch.
"""

from __future__ import annotations

import functools
import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .circle import (WEAK_DECAY_TOL, CircleGrid, CircleSignal, _checked_spectrum, _store_values,
                     _weak_sum_ok, edge_fraction, rep_action)
from .errors import DecayError, require_positive

DEFAULT_N_MAX = 64
DEFAULT_SCALE_MIN = 1e-3
DEFAULT_SCALE_MAX = 1e3
DEFAULT_SCALE_COUNT = 400

MODE_FLOOR = 1e-12
SMALL_SCALE_DECAY_TOL = 1e-2
PLATEAU_SPREAD_TOL = 5e-2

TABLE_BLOCK = 32  # scales per vectorised block of the dilated-coefficient kernel
TABLE_MEMO_SIZE = 4  # dilated-coefficient tables kept for reuse
SPECTRUM_BLOCK = 32  # scalogram rows per FFT block in synthesis and its self check


@dataclass(frozen=True)
class ScaleGrid:
    """Log-uniform nodes on [a_min, a_max] carrying da/a: the circle's and the
    line's scales, and the half-line's radii (`line.LogGrid` is this class)."""

    a_min: float
    a_max: float
    count: int

    def __post_init__(self):
        if not (0.0 < self.a_min < self.a_max < np.inf):
            raise ValueError(f"need 0 < a_min < a_max < inf, got [{self.a_min}, {self.a_max}]")
        if self.count < 2:
            raise ValueError(f"need at least 2 scale nodes, got {self.count}")

    @property
    def n_samples(self) -> int:
        return self.count

    @property
    def spacing(self) -> float:
        """Step in ln a, the quadrature step of da/a."""
        return np.log(self.a_max / self.a_min) / (self.count - 1)

    @property
    def nodes(self) -> np.ndarray:
        return np.geomspace(self.a_min, self.a_max, self.count)

    @property
    def log_weights(self) -> np.ndarray:
        """Trapezoid weights for int f d(ln a)."""
        w = np.full(self.count, self.spacing)
        w[0] *= 0.5
        w[-1] *= 0.5
        return w

    def integrate_da_over_a2(self, f_values: np.ndarray) -> np.ndarray:
        """int f(a) da/a^2 = int (f/a) d(ln a), along the last axis."""
        return np.sum(f_values / self.nodes * self.log_weights, axis=-1)


def default_scale_grid() -> ScaleGrid:
    return ScaleGrid(DEFAULT_SCALE_MIN, DEFAULT_SCALE_MAX, DEFAULT_SCALE_COUNT)


@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Coefficients against e^{2 i n theta}/sqrt(pi) for |n| <= n_max."""

    n_max: int
    values: np.ndarray  # index 0 is n = -n_max

    def __post_init__(self):
        count = 2 * self.n_max + 1
        _store_values(self, (count,), lambda got: f"expected {count} coefficients, got {got}")

    @property
    def ns(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    def __getitem__(self, n: int) -> complex:
        if abs(n) > self.n_max:
            raise IndexError(f"mode {n} outside |n| <= {self.n_max}")
        return complex(self.values[n + self.n_max])


def wavelet_fingerprint(gamma: CircleSignal) -> str:
    """sha256 over the wavelet's sample count and its samples as <c16.

    Reports and scalograms carry it, so that reconstruction can refuse
    inputs computed for another wavelet.
    """
    h = hashlib.sha256(f"n_samples={gamma.grid.n_samples};".encode())
    h.update(np.ascontiguousarray(gamma.values, dtype="<c16"))
    return h.hexdigest()


def _check_n_max(n_samples: int, n_max: int | None) -> int:
    """The mode band |n| <= n_max that a grid of n_samples resolves.

    None gives min(DEFAULT_N_MAX, n_samples/4).  A given n_max is refused
    below 1 and above n_samples/4.  Every wavelet and signal grid a
    transform touches is checked this way, so no table holds aliased modes.
    """
    if n_max is None:
        return min(DEFAULT_N_MAX, n_samples // 4)
    if n_max < 1:
        raise ValueError(f"n_max must be at least 1, got {n_max}")
    if n_max > n_samples // 4:
        raise ValueError(f"n_max {n_max} exceeds n_samples/4 = {n_samples // 4}")
    return n_max


def _grid_phase(n_max: int, grid: CircleGrid) -> np.ndarray:
    """e^{2 i n theta_0} for the modes |n| <= n_max.

    On the midpoint grid theta_k = -pi/2 + pi (k + 1/2)/N,
    e^{2 i n theta_k} = e^{i pi n (1/N - 1)} e^{2 pi i n k / N}.
    """
    ns = np.arange(-n_max, n_max + 1)
    return np.exp(-1j * ns * np.pi * (1.0 - 1.0 / grid.n_samples))


def _band_runs(n_max: int, n: int) -> tuple[tuple[slice, slice], tuple[slice, slice]]:
    """(modes, FFT bins) of the band's two runs of bins n mod N: n >= 0 first, then n < 0."""
    return (slice(n_max, None), slice(0, n_max + 1)), (slice(None, n_max), slice(n - n_max, n))


def _mode_sum(weights: np.ndarray, grid: CircleGrid) -> np.ndarray:
    """sum_n weights[..., n + n_max] e^{2 i n theta} on grid, over the last axis.

    The band must fit the grid by the one band rule (_check_n_max), so
    each mode has its own bin n mod N.
    """
    n = grid.n_samples
    n_max = _check_n_max(n, (weights.shape[-1] - 1) // 2)
    phase = _grid_phase(n_max, grid)
    out = np.empty(weights.shape[:-1] + (n,), dtype=complex)
    for modes, bins in _band_runs(n_max, n):
        np.multiply(weights[..., modes], phase[modes], out=out[..., bins])
    out[..., n_max + 1:n - n_max] = 0.0
    return np.fft.ifft(out, axis=-1, norm="forward", out=out)


def _row_spectra(values: np.ndarray, rows: int = SPECTRUM_BLOCK, transform=np.fft.fft):
    """(row slice, transform over the last axis of values[row slice]), `rows` rows at a time into
    one reused buffer (n/2 + 1 wide for rfft), so no spectrum of the whole 2-d array is held."""
    n = values.shape[-1]
    buf = np.empty((min(rows, len(values)), n // 2 + 1 if transform is np.fft.rfft else n), dtype=complex)
    for lo in range(0, len(values), rows):
        block = values[lo:lo + rows]
        yield slice(lo, lo + len(block)), transform(block, axis=-1, out=buf[:len(block)])


def fourier_coeffs(psi: CircleSignal, n_max: int | None = None) -> FourierCoeffs:
    """Coefficients of psi in the orthonormal mode basis, by the midpoint rule."""
    n = psi.grid.n_samples
    n_max = _check_n_max(n, n_max)
    spectrum = _checked_spectrum(psi, "fourier_coeffs")
    band = np.concatenate((spectrum[n - n_max:], spectrum[:n_max + 1]))
    return FourierCoeffs(n_max, (np.sqrt(np.pi) / n) * (band * np.conj(_grid_phase(n_max, psi.grid))))


def mode_synthesis(grid: CircleGrid, coeffs: FourierCoeffs) -> CircleSignal:
    """Signal with the given mode coefficients, sampled on grid."""
    return CircleSignal(grid, _mode_sum(coeffs.values / np.sqrt(np.pi), grid))


def dilated_coeffs(gamma: CircleSignal, scales: ScaleGrid, n_max: int | None = None) -> np.ndarray:
    """Mode coefficients of the dilated wavelet, shape (2*n_max+1, count).

    Row n + n_max holds c_n(a) over the scale nodes.  Evaluated in the
    undilated variable (see module docstring), so only wavelet samples on
    the grid enter; agreement with the dilate-then-project route at
    moderate scales is part of the test contract.

    The table is read-only and shared: the last TABLE_MEMO_SIZE tables are
    kept, keyed on the wavelet samples, the scale grid and n_max.  n_max
    is checked against the wavelet's grid, and defaults to what that grid
    resolves, as analyze's follows the signal's.
    """
    n_max = _check_n_max(gamma.grid.n_samples, n_max)
    return _memo_table(gamma.values.tobytes(), scales, n_max)


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _memo_table(samples: bytes, scales: ScaleGrid, n_max: int) -> np.ndarray:
    """dilated_coeffs behind the memo; the sample count follows from the byte length."""
    gv = np.frombuffer(samples, dtype=complex)
    table = np.empty((2 * n_max + 1, scales.count), dtype=complex)
    table[n_max:] = _dilated_table(gv, scales, n_max)
    # c_{-n}(gamma) = conj(c_n(conj gamma)), and a real wavelet is its own conjugate
    mirror = table[n_max:] if not np.any(gv.imag) else _dilated_table(np.conj(gv), scales, n_max)
    table[:n_max] = np.conj(mirror[:0:-1])
    table.flags.writeable = False
    return table


def mode_integrals(table: np.ndarray, scales: ScaleGrid) -> np.ndarray:
    """L_n from a dilated-coefficient table: int |c_n(a)|^2 da/a^2 by log-trapezoid."""
    return (np.abs(table) ** 2 / scales.nodes) @ scales.log_weights


def _dilated_table(gv: np.ndarray, scales: ScaleGrid, n_max: int) -> np.ndarray:
    """c_n(a) for 0 <= n <= n_max by cumulative powers of e^{-2 i dilate(u, a)}.

    gv holds the wavelet samples on the midpoint grid.  TABLE_BLOCK scales
    at a time; the block arrays are allocated once and overwritten in place.
    """
    n = len(gv)
    u = CircleGrid(n).nodes
    cos2, sin = np.cos(u) ** 2, np.sin(u)
    tan = np.tan(u)
    out = np.empty((n_max + 1, scales.count), dtype=complex)
    nodes = scales.nodes
    rows = min(TABLE_BLOCK, scales.count)
    mult_buf = np.empty((rows, n))
    p_buf, z_buf = np.empty((rows, n), dtype=complex), np.empty((rows, n), dtype=complex)
    for lo in range(0, scales.count, TABLE_BLOCK):
        a = nodes[lo:lo + TABLE_BLOCK, None]
        cols = slice(lo, lo + a.shape[0])
        mult, p, z = mult_buf[:a.shape[0]], p_buf[:a.shape[0]], z_buf[:a.shape[0]]
        # mult = a / (cos^2 u + (a sin u)^2), as circle.multiplier;  p = (sqrt(pi)/n) sqrt(mult) gamma
        np.square(np.multiply(a, sin, out=mult), out=mult)
        mult += cos2
        np.divide(a, mult, out=mult)
        np.sqrt(mult, out=mult)
        mult *= np.sqrt(np.pi) / n
        np.multiply(mult, gv, out=p)
        # z = exp(-2i arctan(a tan u)), reusing mult once p no longer needs it
        np.multiply(a, tan, out=mult)
        np.arctan(mult, out=mult)
        np.multiply(-2j, mult, out=z)
        np.exp(z, out=z)
        out[0, cols] = p.sum(axis=1)
        for m in range(1, n_max + 1):
            p *= z
            out[m, cols] = p.sum(axis=1)
    return out


def weak_admissibility(gamma: CircleSignal, strict: bool = True):
    """Quadrature of int gamma(theta)/cos(theta) dtheta, with a decay guard.

    The integrand blows up at the chart ends unless gamma decays there, so
    signals whose outermost samples exceed 1e-6 of the peak are rejected
    (strict=True) or flagged (strict=False, returning (value, decay_ok)).
    """
    frac = edge_fraction(gamma.values)
    decay_ok = frac <= WEAK_DECAY_TOL
    value = complex(gamma.grid.spacing * np.sum(gamma.values / np.cos(gamma.grid.nodes)))
    if strict:
        if not decay_ok:
            raise DecayError(
                f"edge samples carry {frac:.3e} of the peak (> {WEAK_DECAY_TOL:.0e}); "
                "the 1/cos(theta) integrand needs decay at the chart ends"
            )
        return value
    return value, decay_ok


@dataclass(frozen=True, eq=False)
class AdmissibilityReport:
    """Per-mode scale integrals and the admissibility verdict for a wavelet."""

    n_max: int
    lambdas: np.ndarray  # index 0 is n = -n_max
    weak_integral: complex
    weak_ok: bool
    scales: ScaleGrid
    tail_lo: float  # integrand magnitude at a_min, maxed over modes
    tail_hi: float  # integrand magnitude at a_max, maxed over modes
    small_scale_converged: bool
    plateau_ok: bool
    admissible: bool
    wavelet_fingerprint: str  # of the wavelet the integrals belong to
    # read-only dilated_coeffs (2*n_max+1, count) the lambdas came from, if kept
    table: np.ndarray | None = None

    @property
    def ns(self) -> np.ndarray:
        return np.arange(-self.n_max, self.n_max + 1)

    @property
    def inf_lambda(self) -> float:
        return float(np.min(self.lambdas))

    @property
    def sup_lambda(self) -> float:
        return float(np.max(self.lambdas))

    def lambda_of(self, n: int) -> float:
        if abs(n) > self.n_max:
            raise IndexError(f"mode {n} outside |n| <= {self.n_max}")
        return float(self.lambdas[n + self.n_max])


def _plateau_ok(lambdas: np.ndarray, n_max: int) -> bool:
    """Heuristic: the outer quarter of modes (both signs pooled) has settled."""
    ns = np.arange(-n_max, n_max + 1)
    band = lambdas[np.abs(ns) >= max(1, (3 * n_max) // 4)]
    mean = float(np.mean(band))
    if mean <= 0.0:
        return False
    return float(band.max() - band.min()) / mean < PLATEAU_SPREAD_TOL


def lambda_sequence(
    gamma: CircleSignal,
    scales: ScaleGrid | None = None,
    n_max: int | None = None,
) -> AdmissibilityReport:
    """Admissibility report: mode integrals L_n, weak condition, verdict.

    L_n is the log-trapezoid quadrature of |c_n(a)|^2 / a over ln a.  The
    verdict requires the weak integral to vanish (relative to the l1 size
    of its integrand, so every dilation of gamma gets the same verdict),
    every L_n positive with finite spread, a decaying small-scale
    integrand (otherwise the scale integral diverges at a -> 0), and a
    plateaued outer mode band (truncation heuristic; a warning explains
    when it fails).  n_max defaults to min(DEFAULT_N_MAX, n_samples/4),
    as in analyze.
    """
    n_max = _check_n_max(gamma.grid.n_samples, n_max)
    scales = scales or default_scale_grid()
    coeffs = dilated_coeffs(gamma, scales, n_max)
    integrand = np.abs(coeffs) ** 2 / scales.nodes
    lambdas = mode_integrals(coeffs, scales)
    tail_lo = float(integrand[:, 0].max())
    tail_hi = float(integrand[:, -1].max())

    peak = float(integrand.max())
    small_ok = peak == 0.0 or tail_lo < SMALL_SCALE_DECAY_TOL * peak

    weak_value, decay_ok = weak_admissibility(gamma, strict=False)
    weak_ok = decay_ok and _weak_sum_ok(gamma.values / np.cos(gamma.grid.nodes))

    plateau = _plateau_ok(lambdas, n_max)
    if not plateau:
        warnings.warn(f"mode integrals have not plateaued by |n| = {n_max}; "
                      "truncation of the mode sum is unsafe", RuntimeWarning, stacklevel=2)
    admissible = bool(weak_ok and small_ok and plateau
                      and np.all(lambdas > 0.0) and np.isfinite(lambdas).all())
    return AdmissibilityReport(
        n_max=n_max,
        lambdas=lambdas,
        weak_integral=weak_value,
        weak_ok=weak_ok,
        scales=scales,
        tail_lo=tail_lo,
        tail_hi=tail_hi,
        small_scale_converged=bool(small_ok),
        plateau_ok=bool(plateau),
        admissible=admissible,
        wavelet_fingerprint=wavelet_fingerprint(gamma),
        table=coeffs,
    )


def frame_bounds(report: AdmissibilityReport) -> tuple[float, float]:
    """(c1, c2) = (min, max) of the mode integrals.

    The analysis operator is diagonal on modes with eigenvalues pi * L_n,
    so c2/c1 measures how far the wavelet frame is from tight.  Warns when
    the report's outer mode band has not plateaued.
    """
    if not report.plateau_ok:
        warnings.warn(
            "frame bounds from a non-plateaued mode band are untrustworthy",
            RuntimeWarning,
            stacklevel=2,
        )
    return report.inf_lambda, report.sup_lambda


def make_dog(
    alpha_scale: float,
    balanced: bool = True,
    grid: CircleGrid | None = None,
) -> CircleSignal:
    """Difference-of-Gaussians wavelet on the chart.

    Base bump exp(-tan^2 theta) minus its dilation by alpha_scale, the
    latter weighted by alpha_scale^(-1/2) when balanced (which makes the
    weak admissibility integral vanish identically) or by 1 when not
    (historical variant; its weak integral is (1 - sqrt(alpha)) times the
    bump's and does not vanish).
    """
    require_positive("alpha_scale", alpha_scale)
    if alpha_scale == 1.0:
        raise ValueError("alpha_scale = 1 gives the zero signal; use a value != 1")
    grid = grid or CircleGrid(1024)

    def bump(t):
        return np.exp(-np.tan(np.asarray(t, dtype=float)) ** 2)

    base = CircleSignal.from_evaluator(grid, bump)
    dilated = rep_action(base, alpha_scale, 0.0)
    c = alpha_scale ** -0.5 if balanced else 1.0
    dil_ev = dilated.evaluator

    def dog(t):
        return bump(t) - c * dil_ev(t)

    return CircleSignal.from_evaluator(grid, dog)


@dataclass(frozen=True, eq=False)
class Scalogram:
    """Wavelet coefficients W(vartheta, a) on an angle x scale grid.

    values[j, i] is the coefficient at scale nodes[j], angle nodes[i];
    scales ascend, and n_max keeps the one band rule on the angle grid.
    """

    scales: ScaleGrid
    angles: CircleGrid
    values: np.ndarray
    n_max: int
    wavelet_fingerprint: str  # of the wavelet analyzed against

    def __post_init__(self):
        shape = (self.scales.count, self.angles.n_samples)
        _store_values(self, shape, lambda got: f"values shape {got} does not match {shape}")
        # _check_n_max reads None as the default band; a scalogram holds its band
        if not isinstance(self.n_max, (int, np.integer)):
            raise ValueError(f"n_max must be an integer, got {self.n_max!r}")
        _check_n_max(self.angles.n_samples, self.n_max)

    def energy(self) -> float:
        """Double quadrature of |W|^2 against dvartheta da/a^2."""
        ang = self.angles.spacing * np.sum(np.abs(self.values) ** 2, axis=1)
        return float(self.scales.integrate_da_over_a2(ang))


def analyze(
    psi: CircleSignal,
    gamma: CircleSignal,
    scales: ScaleGrid | None = None,
    n_max: int | None = None,
    angles: CircleGrid | None = None,
) -> Scalogram:
    """Wavelet transform of psi against gamma: one mode sum per scale.

    W(vartheta, a) = sum_n e^{2 i n vartheta} conj(c_n(a)) psi_n over
    |n| <= n_max (default min(DEFAULT_N_MAX, n_samples/4)), a band angles must hold too.
    """
    scales = scales or default_scale_grid()
    angles = angles or psi.grid
    ph = fourier_coeffs(psi, n_max)
    cg = dilated_coeffs(gamma, scales, ph.n_max)
    out = _mode_sum(np.conj(cg.T) * ph.values, angles)  # (scales, angles)
    return Scalogram(scales=scales, angles=angles, values=out, n_max=ph.n_max,
                     wavelet_fingerprint=wavelet_fingerprint(gamma))


def _synthesis_table(
    scalogram: Scalogram,
    gamma: CircleSignal,
    report: AdmissibilityReport,
) -> tuple[int, np.ndarray, np.ndarray]:
    """The band n_max of reconstruction, its c_n(a) on the scalogram's scales, and its L_n.

    The band is the smaller of the report's and the scalogram's.  When the
    report carries its table on the scalogram's scale grid, the table's
    middle rows are used: bitwise the rows dilated_coeffs builds, since each
    row comes from the same cumulative powers.  Otherwise dilated_coeffs
    builds the table.  Raises ValueError when the scalogram or the report
    was computed for another wavelet than gamma.
    """
    want = wavelet_fingerprint(gamma)
    for what, have in (("scalogram", scalogram.wavelet_fingerprint),
                       ("report", report.wavelet_fingerprint)):
        if have != want:
            raise ValueError(
                f"the {what} belongs to another wavelet "
                f"(fingerprint {have[:12]}..., this wavelet {want[:12]}...)"
            )
    n_max = min(report.n_max, scalogram.n_max)
    band = slice(report.n_max - n_max, report.n_max + n_max + 1)
    if report.table is not None and report.scales == scalogram.scales:
        return n_max, report.table[band], report.lambdas[band]
    return n_max, dilated_coeffs(gamma, scalogram.scales, n_max), report.lambdas[band]


def synthesize(
    scalogram: Scalogram,
    gamma: CircleSignal,
    report: AdmissibilityReport,
    mode_floor: float = MODE_FLOOR,
) -> CircleSignal:
    """Reconstruct the analyzed signal from its scalogram.

    Per mode m:  psi_m = (1 / (pi L_m)) int da/a^2 c_m(a)
                 int dvartheta e^{-2 i m vartheta} W(vartheta, a),
    skipping modes with L_m below mode_floor * max(L).  The report may use
    its own (typically wider) scale grid; the scale integral here runs on
    the scalogram's grid, with the report's table when it was computed on
    that grid.  Raises ValueError when the scalogram or the report was
    computed for another wavelet than gamma.
    """
    n_max, cg, lam = _synthesis_table(scalogram, gamma, report)
    angles, scales = scalogram.angles, scalogram.scales
    # psi_m = sum_s K[s, m] fft(W)[s, m mod N], K = c_m(a_s) e^{-2 i m theta_0} h w_s / (a_s pi L_m)
    live = lam > mode_floor * report.sup_lambda
    mode_weight = np.divide(angles.spacing / np.pi, lam, out=np.zeros(len(lam)), where=live)
    kernel = cg.T * (scales.log_weights / scales.nodes)[:, None]
    kernel *= mode_weight * np.conj(_grid_phase(n_max, angles))
    psi_hat = np.zeros(2 * n_max + 1, dtype=complex)
    for rows, spectrum in _row_spectra(scalogram.values):
        for modes, bins in _band_runs(n_max, angles.n_samples):
            psi_hat[modes] += np.einsum("sm,sm->m", kernel[rows, modes], spectrum[:, bins])
    # the reconstruction approximates the analyzed signal, so it lands on
    # the scalogram's angle grid, not the wavelet's
    return mode_synthesis(angles, FourierCoeffs(n_max, psi_hat))


def reanalysis_error(
    scalogram: Scalogram,
    gamma: CircleSignal,
    report: AdmissibilityReport,
    rec: CircleSignal,
) -> float:
    """Relative l2 distance, over all (scale, angle) nodes, between the
    scalogram and the analysis of rec on the same grids.

    rec is the reconstruction synthesize returns, whose modes lie in the
    band of synthesis.  By Parseval over the N angles, per scale:
        sum_k |W'(k) - W(k)|^2 = (1/N) sum_j |F'_j - F_j|^2,  F = fft(W),
    and F' = N conj(c_n(a)) rec_n e^{2 i n theta_0} on the band's bins, 0
    elsewhere.  So one FFT of the scalogram gives the in-band misfit, on
    the band's two runs of bins, and the energy outside the band, on the
    bins between them.  c_n(a) comes from the same source as in synthesize.
    A zero scalogram reads 0.0 for a zero rec and inf for any other.
    """
    n_max, cg, _ = _synthesis_table(scalogram, gamma, report)
    angles = scalogram.angles
    if rec.grid != angles:
        raise ValueError(f"rec has {rec.grid.n_samples} samples, the scalogram {angles.n_samples} angles")
    n = angles.n_samples
    model = (n * _grid_phase(n_max, angles) * fourier_coeffs(rec, n_max).values) * np.conj(cg.T)
    misfit_energy = in_band = out_of_band = 0.0
    for rows, spectrum in _row_spectra(scalogram.values):
        for modes, bins in _band_runs(n_max, n):
            misfit_energy += float(np.sum(np.abs(model[rows, modes] - spectrum[:, bins]) ** 2))
            in_band += float(np.sum(np.abs(spectrum[:, bins]) ** 2))
        # what the band cannot hold: the bins between its runs, not a difference of totals
        out_of_band += float(np.sum(np.abs(spectrum[:, n_max + 1:n - n_max]) ** 2))
    return float(np.sqrt(_relative(misfit_energy + out_of_band, in_band + out_of_band)))


def _relative(err: float, ref: float) -> float:
    """err / ref, where a zero ref reads 0.0 for a zero err and inf for any other."""
    return err / ref if ref != 0.0 else (0.0 if err == 0.0 else np.inf)

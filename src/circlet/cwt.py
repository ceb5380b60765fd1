"""Continuous wavelet analysis on the half-circle chart.

The transform of a signal psi against a wavelet gamma is
    W(vartheta, a) = <U(vartheta, a) gamma | psi>,
computed per scale as a mode sum: in the orthonormal basis
e^{2 i n theta}/sqrt(pi) the acted wavelet has coefficients
e^{-2 i n vartheta} c_n(a), where c_n(a) is the coefficient of the purely
dilated wavelet.  Every weight is diagonal on the modes, so a scalogram
is its band's modes, a small (scales x modes) array, and holds nothing
else: analyze computes conj(c_n(a)) psi_n, and synthesize contracts it
with c_m(a) and the ln a quadrature weights over a by one kernel, then
divides by L_m.  Its angle samples are made on their first read, by one
unscaled inverse FFT per scale (all scales batched).

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
dilate(u, a) is odd in u and the multiplier even, and the grid nodes are
exactly odd, so the sum folds onto the N/2 positive nodes: one pass of
cumulative powers there, each summed against the wavelet's even and odd
parts by one real matrix product, gives c_n(a) and c_{-n}(a) for every
wavelet, real or complex.
The table c_n(a) depends only on the wavelet samples, the scale grid and
n_max, so admissibility, analysis and reconstruction share one read-only
copy, one C-contiguous (count, 2 n_max + 1) array, from a small
content-keyed memo.  A report carries the table its L_n came from, and the
written report keeps it, as it is, beside the JSON, so reconstruction on
the report's scale grid, in this process or another, builds no table; on
another grid it builds its own.

The reconstruction's self check, the relative l2 distance between the
scalogram and the analysis of the reconstruction, is taken in mode space:
by Parseval over the angle grid, the scalogram's modes give both the
misfit in the band of synthesis and the energy beyond it.

Reports and scalograms are stamped with the fingerprint of the wavelet
they were computed for, and reconstruction refuses a mismatch.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass, field

import numpy as np

from .circle import (WEAK_DECAY_TOL, CircleGrid, CircleSignal, _checked_spectrum, _Lazy, _store_values,
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
SPECTRUM_BLOCK = 32  # scalogram rows per block of synthesis and of the self check's sums


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
        if float(self.a_max) / float(self.a_min) == np.inf:  # spacing's ln(a_max / a_min) needs a finite ratio
            raise ValueError(f"a_max / a_min overflows, got [{self.a_min}, {self.a_max}]")
        if self.count < 2:
            raise ValueError(f"need at least 2 scale nodes, got {self.count}")

    @property
    def n_samples(self) -> int:
        return self.count

    @property
    def spacing(self) -> float:
        """Step in ln a, the quadrature step of da/a."""
        return np.log(self.a_max / self.a_min) / (self.count - 1)

    @functools.cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.geomspace(self.a_min, self.a_max, self.count)
        nodes.flags.writeable = False
        return nodes

    @functools.cached_property
    def log_weights(self) -> np.ndarray:
        """Trapezoid weights for int f d(ln a)."""
        w = np.full(self.count, self.spacing)
        w[[0, -1]] *= 0.5
        w.flags.writeable = False
        return w

    def integrate_da_over_a2(self, f_values: np.ndarray) -> np.ndarray:
        """int f(a) da/a^2 = int (f/a) d(ln a), along the last axis."""
        return np.sum(f_values / self.nodes * self.log_weights, axis=-1)


@functools.cache  # one grid, so its nodes and weights are made once per process
def default_scale_grid() -> ScaleGrid:
    return ScaleGrid(DEFAULT_SCALE_MIN, DEFAULT_SCALE_MAX, DEFAULT_SCALE_COUNT)


@dataclass(frozen=True, eq=False)
class FourierCoeffs:
    """Coefficients against e^{2 i n theta}/sqrt(pi) for |n| <= n_max."""

    n_max: int
    values: np.ndarray  # index 0 is n = -n_max

    def __post_init__(self):
        _check_band_type(self.n_max)
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
    inputs computed for another wavelet.  It is hashed once per signal and
    kept, and the signal's samples become read-only then, so the kept value
    stays theirs.
    """
    return gamma.fingerprint


def _check_band_type(n_max) -> None:
    """Refuse a held band n_max that is not an integer >= 0: a bool, a float, None (which _check_n_max
    reads as the default band) or a negative one."""
    if isinstance(n_max, bool) or not isinstance(n_max, (int, np.integer)) or n_max < 0:
        raise ValueError(f"n_max must be an integer, got {n_max!r}")


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


def _mode_sum(weights: np.ndarray, grid: CircleGrid) -> np.ndarray:
    """sum_n weights[..., n + n_max] e^{2 i n theta} on grid, over the last axis.

    The band must fit the grid by the one band rule (_check_n_max), so
    each mode has its own bin n mod N.
    """
    n = grid.n_samples
    n_max = _check_n_max(n, (weights.shape[-1] - 1) // 2)
    phase = _grid_phase(n_max, grid)
    out = np.empty(weights.shape[:-1] + (n,), dtype=complex)
    np.multiply(weights[..., n_max:], phase[n_max:], out=out[..., :n_max + 1])  # n >= 0 on bins n
    np.multiply(weights[..., :n_max], phase[:n_max], out=out[..., n - n_max:])  # n < 0 on bins n + N
    out[..., n_max + 1:n - n_max] = 0.0
    return np.fft.ifft(out, axis=-1, norm="forward", out=out)


def _weighted_rows(held: np.ndarray, table: np.ndarray, weights: np.ndarray, acc: np.ndarray,
                   rows: int = SPECTRUM_BLOCK, transform=None):
    """acc += sum_s weights[s] table[s] held[s] over the rows s, held[s] taken by its transform (np.fft.fft
    or rfft) if one is given: the synthesis sum of both geometries.  Each block of `rows` rows is multiplied
    by its table rows into one reused buffer, and weights[rows] @ its float view, one real GEMV, adds into
    acc's float view (acc complex and C-contiguous), so no array of held's size is made."""
    sums = acc.view(float)
    buf = np.empty((min(rows, len(held)), table.shape[1]), dtype=complex)
    for lo in range(0, len(held), rows):
        part, block = held[lo:lo + rows], buf[:min(rows, len(held) - lo)]
        if transform is not None:
            part = transform(part, axis=-1, out=block)
        sums += weights[lo:lo + rows] @ np.multiply(part, table[lo:lo + rows], out=block).view(float)


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
    """Mode coefficients of the dilated wavelet, a C-contiguous (count, 2*n_max+1) table.

    Row j holds scale node j's modes, column n + n_max c_n(a) over the
    scale nodes.  Evaluated in the undilated variable (see module
    docstring), so only wavelet samples on the grid enter; agreement with
    the dilate-then-project route at moderate scales is part of the test
    contract.

    The table is read-only and shared: the last TABLE_MEMO_SIZE tables are
    kept, keyed on the wavelet samples, the scale grid and n_max.  n_max
    is checked against the wavelet's grid, and defaults to what that grid
    resolves, as analyze's follows the signal's.
    """
    n_max = _check_n_max(gamma.grid.n_samples, n_max)
    return _memo_table(gamma.values.tobytes(), scales, n_max)


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _memo_table(samples: bytes, scales: ScaleGrid, n_max: int) -> np.ndarray:
    """dilated_coeffs behind the memo, each hit the one table; n follows from the bytes."""
    table = np.empty((scales.count, 2 * n_max + 1), dtype=complex)
    for rows, block in _dilated_table(np.frombuffer(samples, dtype=complex), scales, n_max):
        table[rows, n_max:] = block[:, :, 0]
        np.conjugate(block[:, :0:-1, 1], out=table[rows, :n_max])  # c_{-n}(gamma) = conj(c_n(conj gamma))
    table.flags.writeable = False
    return table


def mode_integrals(table: np.ndarray, scales: ScaleGrid) -> np.ndarray:
    """L_n from a (count, 2*n_max+1) table: int |c_n(a)|^2 da/a^2 by log-trapezoid, on a C-order
    (modes, scales) copy whatever the table's storage, so L_n's bits do not depend on it."""
    return (np.abs(table.T, order="C") ** 2 / scales.nodes) @ scales.log_weights


def _dilated_table(gv: np.ndarray, scales: ScaleGrid, n_max: int):
    """c_n(a; gamma) and c_n(a; conj gamma) for 0 <= n <= n_max, from one pass of cumulative powers over half the chart.

    gv holds the wavelet samples on the midpoint grid, whose nodes are exactly odd.  dilate(u, a) is odd in u
    and the multiplier even, so with P = q z^n = X + iY on the N/2 positive nodes, q = (sqrt(pi)/N)
    sqrt(multiplier(a, u)) and z = e^{-2i dilate(u, a)}, the terms at u and -u fold into
        c_n(gamma) = sum e X + i o Y,   c_n(conj gamma) = sum conj(e) X + i conj(o) Y,
    e = gamma(u) + gamma(-u), o = gamma(u) - gamma(-u): one real matmul of P's float view against a fixed
    (N, 4) matrix per power gives both.  No trigonometric function is taken per scale: with
    r = cos^2 dilate(u, a) = 1/(1 + (a tan u)^2), z = (2r - 1) - 2i tan u (a r) and q = (sqrt(pi)/N)
    sqrt(a r) / cos u, finite where a tan u overflows (r = 0 there, its limit).  Yields (rows, block) per
    TABLE_BLOCK scales, block[:, n] = (c_n(gamma), c_n(conj gamma)), in one (rows, n_max+1, 2) buffer
    that the next block overwrites, as it does the power buffers.
    """
    n = len(gv)
    u = CircleGrid(n).nodes[n // 2:]
    e, o = gv[n // 2:] + gv[n // 2 - 1::-1], gv[n // 2:] - gv[n // 2 - 1::-1]
    # rows X_j, Y_j of P's float view against Re, Im of c_n(gamma), then of c_n(conj gamma)
    fold = np.stack((e.real, e.imag, e.real, -e.imag, -o.imag, o.real, o.imag, o.real), axis=1).reshape(n, 4)
    tan, sec = np.tan(u), (np.sqrt(np.pi) / n) / np.cos(u)
    rows = min(TABLE_BLOCK, scales.count)
    r_buf, out = np.empty((rows, n // 2)), np.empty((rows, n_max + 1, 2), dtype=complex)
    p_buf, z_buf = np.empty((rows, n // 2), dtype=complex), np.empty((rows, n // 2), dtype=complex)
    for lo in range(0, scales.count, TABLE_BLOCK):
        a = scales.nodes[lo:lo + TABLE_BLOCK, None]
        r, p, z, block = r_buf[:len(a)], p_buf[:len(a)], z_buf[:len(a)], out[:len(a)]
        # r = 1/(1 + (a tan u)^2), then z = (2r - 1) - 2i tan u (a r) and p = q = sqrt(a r) * sec
        with np.errstate(over="ignore"):  # (a tan u)^2 = inf gives r = 0, its limit
            np.square(np.multiply(a, tan, out=r), out=r)
        r += 1.0
        np.reciprocal(r, out=r)
        np.multiply(r, 2.0, out=z.real)
        z.real -= 1.0
        r *= a
        np.multiply(r, -2.0 * tan, out=z.imag)
        np.multiply(np.sqrt(r, out=r), sec, out=p)
        sums = block.view(float)
        np.matmul(p.view(float), fold, out=sums[:, 0])
        for m in range(1, n_max + 1):
            p *= z
            np.matmul(p.view(float), fold, out=sums[:, m])
        yield slice(lo, lo + len(a)), block


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
    table: np.ndarray  # the read-only dilated_coeffs (count, 2*n_max+1) table the lambdas came from

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
    when it fails, unless all L_n are 0).  n_max defaults to
    min(DEFAULT_N_MAX, n_samples/4), as in analyze.
    """
    n_max = _check_n_max(gamma.grid.n_samples, n_max)
    scales = scales or default_scale_grid()
    coeffs = dilated_coeffs(gamma, scales, n_max)
    integrand = np.abs(coeffs) ** 2 / scales.nodes[:, None]
    lambdas = mode_integrals(coeffs, scales)
    tail_lo = float(integrand[0].max())
    tail_hi = float(integrand[-1].max())

    peak = float(integrand.max())
    small_ok = peak == 0.0 or tail_lo < SMALL_SCALE_DECAY_TOL * peak

    weak_value, decay_ok = weak_admissibility(gamma, strict=False)
    weak_ok = decay_ok and _weak_sum_ok(gamma.values / np.cos(gamma.grid.nodes))

    plateau = _plateau_ok(lambdas, n_max)
    if not plateau and np.any(lambdas):  # all-zero integrals have nothing to plateau
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
    the report's outer mode band has not plateaued, unless every L_n is 0.
    """
    if not report.plateau_ok and np.any(report.lambdas):
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
class Scalogram(_Lazy):
    """Wavelet coefficients W(vartheta, a) on an angle x scale grid, held as their band's modes.

    modes[j, n + n_max] is the coefficient of e^{2 i n theta} in row j, the
    row at scale nodes[j]; scales ascend, and n_max keeps the one band rule
    on the angle grid.  values[j, i], the coefficient at scale nodes[j],
    angle nodes[i], is made from the modes on its first read, read-only;
    modes edited after that are not seen.  A caller holding angle samples
    gives their band's modes.
    """

    scales: ScaleGrid
    angles: CircleGrid
    modes: np.ndarray = field(repr=False)  # index 0 is n = -n_max
    n_max: int
    wavelet_fingerprint: str  # of the wavelet analyzed against

    def __post_init__(self):
        _check_band_type(self.n_max)
        _check_n_max(self.angles.n_samples, self.n_max)
        shape = (self.scales.count, 2 * self.n_max + 1)
        _store_values(self, shape, lambda got: f"modes shape {got} does not match {shape}", name="modes")

    def _make_values(self) -> np.ndarray:
        values = _mode_sum(self.modes, self.angles)
        values.flags.writeable = False
        return values

    def energy(self) -> float:
        """Double quadrature of |W|^2 against dvartheta da/a^2; by Parseval, pi sum_n |W_n|^2 per scale."""
        return float(self.scales.integrate_da_over_a2(np.pi * np.sum(np.abs(self.modes) ** 2, axis=1)))


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
    table = dilated_coeffs(gamma, scales, ph.n_max)  # built, on a memo miss, before the modes are held
    # conj(c conj psi_n), bitwise conj(c) psi_n, on contiguous table rows; a broadcast product takes 128 KiB buffers
    modes = np.tile(np.conj(ph.values), (scales.count, 1))
    np.conjugate(np.multiply(table, modes, out=modes), out=modes)
    modes.flags.writeable = False
    return Scalogram(scales, angles, modes, ph.n_max, wavelet_fingerprint(gamma))


def _synthesis_table(
    scalogram: Scalogram,
    gamma: CircleSignal,
    report: AdmissibilityReport,
) -> tuple[int, np.ndarray, np.ndarray]:
    """The band n_max of reconstruction, its c_n(a) on the scalogram's scales, and its L_n.

    c_n(a) comes as dilated_coeffs gives it, (count, 2*n_max+1).  The band is
    the smaller of the report's and the scalogram's.  When the report's table
    is on the scalogram's scale grid, its middle columns are used: bitwise
    the columns dilated_coeffs builds, since each comes from the same
    cumulative powers.  Otherwise dilated_coeffs builds the table.  Raises
    ValueError when the scalogram or the report was computed for another
    wavelet than gamma.
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
    if report.scales == scalogram.scales:
        return n_max, report.table[:, band], report.lambdas[band]
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
    # psi_m = sum_s c_m(a_s) (w_s / a_s) modes[s, m] / L_m: the angle integral's N h = pi cancels 1/pi
    held = scalogram.modes[:, scalogram.n_max - n_max:scalogram.n_max + n_max + 1]
    psi_hat = np.zeros(2 * n_max + 1, dtype=complex)
    _weighted_rows(held, cg, scales.log_weights / scales.nodes, psi_hat)
    psi_hat *= np.divide(1.0, lam, out=np.zeros(len(lam)), where=lam > mode_floor * report.sup_lambda)
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
        sum_k |W'(k) - W(k)|^2 = N sum_n |W'_n - W_n|^2,
    W_n the scalogram's modes and W'_n = conj(c_n(a)) rec_n in the band of
    synthesis, 0 beyond it: the misfit in that band, plus the scalogram's
    modes beyond it.  c_n(a) comes from the same source as in synthesize,
    and a zero scalogram reads 0.0 for a zero rec and inf for any other.
    """
    n_max, cg, _ = _synthesis_table(scalogram, gamma, report)
    angles = scalogram.angles
    if rec.grid != angles:
        raise ValueError(f"rec has {rec.grid.n_samples} samples, the scalogram {angles.n_samples} angles")
    rec_n = fourier_coeffs(rec, n_max).values
    held, inner = scalogram.modes, slice(scalogram.n_max - n_max, scalogram.n_max + n_max + 1)
    # what the band of synthesis cannot hold is summed apart, not taken as a difference of totals
    misfit_energy, in_band, out_of_band = 0.0, 0.0, 0.0
    buf = np.empty((min(SPECTRUM_BLOCK, len(held)), 2 * n_max + 1), dtype=complex)
    for lo in range(0, len(held), SPECTRUM_BLOCK):
        block = held[lo:lo + SPECTRUM_BLOCK]
        misfit = buf[:len(block)]
        np.copyto(misfit, np.conj(rec_n))  # a broadcast copy takes no iterator buffers, a broadcast product does
        np.conjugate(np.multiply(cg[lo:lo + SPECTRUM_BLOCK], misfit, out=misfit), out=misfit)  # conj(c) rec_n
        np.subtract(misfit, block[:, inner], out=misfit)
        misfit_energy += np.vdot(misfit, misfit).real
        in_band += float(np.sum(np.abs(block[:, inner]) ** 2))
        out_of_band += float(np.sum(np.abs(block[:, :inner.start]) ** 2) + np.sum(np.abs(block[:, inner.stop:]) ** 2))
    return float(np.sqrt(_relative(misfit_energy + out_of_band, in_band + out_of_band)))


def _relative(err: float, ref: float) -> float:
    """err / ref, where a zero ref reads 0.0 for a zero err and inf for any other."""
    return err / ref if ref != 0.0 else (0.0 if err == 0.0 else np.inf)

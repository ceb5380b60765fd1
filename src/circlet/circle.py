"""Unitary dilation/rotation action on the half-circle chart (-pi/2, pi/2).

Signals live on a midpoint grid theta_j = -pi/2 + pi(j+1/2)/n, which never
touches the chart endpoints and makes the n-point midpoint rule spectrally
accurate for smooth pi-periodic integrands.  The orthonormal reference
basis is e^{2 i n theta}/sqrt(pi).

The dilation a acts through the reparametrization
    theta_a = arctan(a tan theta),
whose Radon-Nikodym derivative is the multiplier
    lambda(a, theta) = a / (a^2 + (1 - a^2) cos^2 theta),
and the unitary action of the group point (vartheta, a) is
    (U gamma)(theta) = lambda(1/a, theta - vartheta)^alpha
                       gamma(dilate(theta - vartheta, 1/a)),
with theta - vartheta reduced mod pi back into the chart and alpha the
representation exponent (1/2 + i s; the principal value s = 0 is the
default and the only one exercised downstream).

Infinitesimal generators of the action are realized spectrally:
    gen_a     = (i/2) sin(2 theta) d/dtheta + i alpha cos(2 theta)
    gen_b     = (i/2) (cos(2 theta) - 1) d/dtheta - i alpha sin(2 theta)
    gen_theta = i d/dtheta
They close under commutators with structure constants frozen in the tests,
and the quadratic invariant built from them acts as the scalar
alpha(1 - alpha) (= 1/4 at s = 0) on every basis mode.

A signal known only by its samples is evaluated off the grid (as the
action needs at the dilated angles) through its trigonometric interpolant,
computed by a Gaussian-gridding type-2 non-uniform FFT: oversampling
R = 2, kernel half-width W = 14, O(n log n) per call plus 2W terms per
target, and within 5.1e-13 of the direct mode sum (relative to the
samples' largest value) for full-band samples.  Targets are summed in
blocks of NUFFT_BLOCK = 128, so the kernel's scratch memory does not grow
with the number of targets, and no output bit depends on the blocking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import AliasingError, GridMismatchError, require_positive

DEFAULT_N_SAMPLES = 1024
ALIAS_ENERGY_TOL = 1e-8
WEAK_DECAY_TOL = 1e-6
WEAK_VERDICT_TOL = 1e-8
# trig_interpolate's Gaussian gridding: oversampling and kernel half-width
NUFFT_OVERSAMPLING = 2
NUFFT_HALF_WIDTH = 14
NUFFT_BLOCK = 128  # targets per block of trig_interpolate's kernel sum


@dataclass(frozen=True)
class RepParams:
    """Representation parameters; exponent alpha = 1/2 + i s."""

    s: float = 0.0

    @property
    def alpha(self) -> complex:
        return 0.5 + 1j * self.s


def reduce_half_angle(theta):
    """Reduce angles mod pi into [-pi/2, pi/2] (midpoint grids never hit the ends)."""
    theta = np.asarray(theta, dtype=float)
    return theta - np.pi * np.round(theta / np.pi)


def dilate_angle(theta, a: float):
    """Dilated angle arctan(a tan theta); a diffeomorphism of the chart."""
    require_positive("dilation", a)
    return np.arctan(a * np.tan(np.asarray(theta, dtype=float)))


def multiplier(a: float, theta):
    """Radon-Nikodym derivative of the angle dilation.

    Equals d(dilate_angle)/d(theta); positive, pi-periodic, and satisfies
    the cocycle multiplier(a*a', theta) =
    multiplier(a, dilate_angle(theta, a')) * multiplier(a', theta).
    """
    require_positive("dilation", a)
    c2 = np.cos(np.asarray(theta, dtype=float)) ** 2
    return a / (a * a + (1.0 - a * a) * c2)


@dataclass(frozen=True)
class CircleGrid:
    """Midpoint grid of n_samples angles on (-pi/2, pi/2)."""

    n_samples: int

    def __post_init__(self):
        if self.n_samples < 4 or self.n_samples % 2:
            raise ValueError(f"n_samples must be even and >= 4, got {self.n_samples}")

    @property
    def spacing(self) -> float:
        return np.pi / self.n_samples

    @property
    def nodes(self) -> np.ndarray:
        n = self.n_samples
        return -np.pi / 2 + np.pi * (np.arange(n) + 0.5) / n


def _store_complex_values(obj, shape: tuple, mismatch: Callable[[tuple], str]) -> np.ndarray:
    """Replace obj.values, on a frozen dataclass, by a contiguous complex copy.

    Raises ValueError(mismatch(got)) when the array's shape is not `shape`.
    """
    v = np.ascontiguousarray(obj.values, dtype=complex)
    if v.shape != shape:
        raise ValueError(mismatch(v.shape))
    object.__setattr__(obj, "values", v)
    return v


@dataclass(frozen=True, eq=False)
class Sampled:
    """Samples of a function on a grid, with an optional exact evaluator.

    The grid supplies `n_samples`, `nodes` and `spacing`, the uniform
    quadrature step of its measure.  Subclasses supply `_interpolate`, the
    evaluation of the samples between nodes.  Samples built by
    `from_evaluator` are the evaluator at the nodes, so the two views agree
    by construction.
    """

    grid: Any
    values: np.ndarray
    evaluator: Callable[[np.ndarray], np.ndarray] | None = field(default=None)

    def __post_init__(self):
        n = self.grid.n_samples
        v = _store_complex_values(self, (n,), lambda got: f"values shape {got} does not match grid ({n},)")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("signal values must be finite")

    @classmethod
    def from_evaluator(cls, grid, fn: Callable):
        return cls(grid, np.asarray(fn(grid.nodes), dtype=complex), evaluator=fn)

    def __call__(self, x) -> np.ndarray:
        """Evaluate at arbitrary points: exactly if possible, else by
        interpolating the samples."""
        xs = np.asarray(x, dtype=float)
        if self.evaluator is not None:
            return np.asarray(self.evaluator(xs), dtype=complex)
        return self._interpolate(xs)

    def _interpolate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def norm(self) -> float:
        """L2 norm by the grid's quadrature."""
        return float(np.sqrt(self.grid.spacing * np.sum(np.abs(self.values) ** 2)))

    def inner(self, other: "Sampled") -> complex:
        """<self|other>, conjugate-linear in self."""
        if self.grid != other.grid:
            raise GridMismatchError("signals live on different grids")
        return complex(self.grid.spacing * np.sum(np.conj(self.values) * other.values))


@dataclass(frozen=True, eq=False)
class CircleSignal(Sampled):
    """Sampled signal on a CircleGrid, interpolated trigonometrically.

    The evaluator, when present, is a vectorized callable defined on the
    chart; angles are reduced mod pi before either view is evaluated.
    """

    def __call__(self, theta) -> np.ndarray:
        return super().__call__(reduce_half_angle(theta))

    def _interpolate(self, theta: np.ndarray) -> np.ndarray:
        return trig_interpolate(self.grid, self.values, theta)


def _signed_freqs(n: int) -> np.ndarray:
    return np.fft.fftfreq(n, d=1.0 / n).astype(int)


def edge_fraction(values: np.ndarray, width: int = 1) -> float:
    """Largest |value| of the `width` outermost samples at either end over the
    peak |value|, 0 for a zero signal; the one measure every decay guard reads."""
    mag = np.abs(values)
    peak = float(mag.max())
    return float(max(mag[:width].max(), mag[-width:].max())) / peak if peak > 0.0 else 0.0


def _weak_sum_ok(terms: np.ndarray) -> bool:
    """|sum terms| <= WEAK_VERDICT_TOL sum |terms|: the weak integrand's quadrature
    vanishes relative to its l1 size, a ratio free of the grid and of dilations."""
    return bool(abs(np.sum(terms)) <= WEAK_VERDICT_TOL * np.sum(np.abs(terms)))


def _checked_spectrum(signal: CircleSignal, what: str) -> np.ndarray:
    """The samples' FFT, refused if modes above n_samples/4 carry > ALIAS_ENERGY_TOL of the energy."""
    u = np.fft.fft(signal.values)
    total = float(np.sum(np.abs(u) ** 2))
    k = _signed_freqs(signal.grid.n_samples)
    tail = float(np.sum(np.abs(u[np.abs(k) > signal.grid.n_samples // 4]) ** 2))
    if total > 0.0 and tail / total > ALIAS_ENERGY_TOL:
        raise AliasingError(
            f"{what}: modes above n_samples/4 carry {tail / total:.3e} of the energy "
            f"(> {ALIAS_ENERGY_TOL:.0e}); refine the grid"
        )
    return u


def trig_interpolate(grid: CircleGrid, values: np.ndarray, theta) -> np.ndarray:
    """Evaluate the trigonometric interpolant of midpoint samples.

    The interpolant is the unique pi-periodic trig polynomial through the
    samples; the Nyquist coefficient is split symmetrically so real input
    stays real (up to rounding).  Evaluation is the Gaussian-gridding
    type-2 non-uniform FFT (Greengard & Lee, SIAM Rev. 46, 2004) that
    `line.dilated_spectra` shares: the modes are divided by the Gaussian's
    Fourier coefficients, one inverse FFT puts them on an R * n_samples
    grid (R = NUFFT_OVERSAMPLING = 2), and each target sums the 2W
    Gaussian-weighted grid values around it (W = NUFFT_HALF_WIDTH = 14).
    The fine grid is extended periodically by 2W - 1 points (several
    periods on the smallest grids), so each target's neighbours are one
    contiguous window of it.  Targets are summed in blocks of NUFFT_BLOCK,
    so scratch memory is a few block-sized arrays whatever the number of
    targets, and every output is bitwise what one unblocked sum over all
    targets gives.  Cost is O(n log n) plus 2W terms per target.  The
    result is within 1e-12 of the direct mode sum, relative to the
    samples' largest value (measured at most 5.1e-13 for full-band complex
    samples, every even n in 4...1024, targets in [-4, 4]; 4e-14 against
    closed-form modes at n = 4096 and 16384).
    """
    n = grid.n_samples
    u = np.fft.fft(np.asarray(values, dtype=complex)) / n
    c = u[np.arange(-(n // 2), n // 2 + 1) % n]
    # split the unpaired -n/2 mode across +-n/2
    c[[0, -1]] *= 0.5
    t = np.asarray(theta, dtype=float)
    # fractional index on the fine grid; its point p sits at phase 2 pi p / m
    out = _gaussian_gridding(c)(NUFFT_OVERSAMPLING * ((t.reshape(-1) + np.pi / 2) / grid.spacing - 0.5))
    return out[0] if t.ndim == 0 else out.reshape(t.shape)


def _gaussian_gridding(modes: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of P(phi) = sum_k c_k e^{i k phi}, modes c_k for k = -n/2 ... n/2: builds P's fine
    grid of m = R n points once, and sums P at 1-d fine-grid positions s (phase 2 pi s / m)."""
    n = modes.size - 1
    m = NUFFT_OVERSAMPLING * n
    tau = np.pi * NUFFT_HALF_WIDTH / (n * n * NUFFT_OVERSAMPLING * (NUFFT_OVERSAMPLING - 0.5))
    ks = np.arange(-(n // 2), n // 2 + 1)
    fine = np.zeros(m, dtype=complex)
    # divide by the periodic Gaussian's Fourier coefficients sqrt(tau/pi) e^{-k^2 tau}
    fine[ks % m] = modes * (np.sqrt(np.pi / tau) * np.exp(ks * ks * tau))
    # windows[p] holds fine grid points p, p + 1, ..., p + 2W - 1 mod m
    width = 2 * NUFFT_HALF_WIDTH
    windows = np.lib.stride_tricks.sliding_window_view(np.resize(np.fft.ifft(fine), m + width - 1), width)
    # target s weighs points floor(s) + k, k = 1 - W ... W, by e^{-g d^2}, d = s - floor(s) - k
    offsets = np.arange(1 - NUFFT_HALF_WIDTH, NUFFT_HALF_WIDTH + 1, dtype=float)
    g = (np.pi / m) ** 2 / tau

    def at(s: np.ndarray) -> np.ndarray:
        # into one period; exact for finite s, and an infinite angle gives nan
        s = s - m * np.round(s / m)
        out = np.empty(s.size, dtype=complex)
        d = np.empty((min(NUFFT_BLOCK, s.size), width))
        weights = np.empty_like(d)
        for lo in range(0, s.size, NUFFT_BLOCK):
            sb = s[lo:lo + NUFFT_BLOCK]
            db, wb = d[:sb.size], weights[:sb.size]
            floor = np.floor(sb)
            near = windows[(floor.astype(int) + 1 - NUFFT_HALF_WIDTH) % m]
            # the integers first: (s - floor(s)) - k rounds differently for s in (-1, 0)
            np.subtract(sb[:, None], np.add(floor[:, None], offsets, out=db), out=db)
            np.multiply(np.multiply(db, -g, out=wb), db, out=wb)
            np.einsum("ij,ij->i", np.exp(wb, out=wb), near, out=out[lo:lo + sb.size])
        return out

    return at


def rep_action(
    gamma: CircleSignal,
    a: float,
    vartheta: float,
    params: RepParams | None = None,
) -> CircleSignal:
    """Unitary action of the point (vartheta, a) on a signal.

    Rotate by vartheta, then dilate by a; the multiplier power keeps the
    L2 chart norm exactly invariant.  The result carries a closed-form
    evaluator whenever the input does.
    """
    require_positive("dilation", a)
    alpha = (params or RepParams()).alpha
    inv = 1.0 / a

    def acted(t):
        d = reduce_half_angle(np.asarray(t, dtype=float) - vartheta)
        w = multiplier(inv, d) ** alpha
        return w * gamma(dilate_angle(d, inv))

    grid = gamma.grid
    return CircleSignal(grid, acted(grid.nodes), acted if gamma.evaluator is not None else None)


def _spectral_derivative(grid: CircleGrid, spectrum: np.ndarray) -> np.ndarray:
    n = grid.n_samples
    k = _signed_freqs(n).astype(float)
    k[n // 2] = 0.0  # unpaired Nyquist mode has no well-defined odd derivative
    return np.fft.ifft(2j * k * spectrum)


def generator(which: str, f: CircleSignal, params: RepParams | None = None) -> CircleSignal:
    """Apply one infinitesimal generator ('a', 'b' or 'theta') spectrally.

    Requires f band-limited to |n| <= n_samples/4; the aliasing guard
    rejects signals violating that within 1e-8 of their energy.
    """
    alpha = (params or RepParams()).alpha
    t = f.grid.nodes
    df = _spectral_derivative(f.grid, _checked_spectrum(f, f"generator '{which}'"))
    if which == "a":
        out = 0.5j * np.sin(2 * t) * df + 1j * alpha * np.cos(2 * t) * f.values
    elif which == "b":
        out = 0.5j * (np.cos(2 * t) - 1.0) * df - 1j * alpha * np.sin(2 * t) * f.values
    elif which == "theta":
        out = 1j * df
    else:
        raise ValueError(f"unknown generator {which!r}; expected 'a', 'b' or 'theta'")
    return CircleSignal(f.grid, out)


def casimir_apply(f: CircleSignal, params: RepParams | None = None) -> CircleSignal:
    """Quadratic invariant gen_a^2 + gen_b^2 + (gen_b gen_theta + gen_theta gen_b)/2.

    Acts as the scalar alpha(1-alpha) on band-limited signals; verified,
    not enforced here.
    """
    p = params or RepParams()
    ga = generator("a", generator("a", f, p), p)
    gb = generator("b", generator("b", f, p), p)
    bt = generator("b", generator("theta", f, p), p)
    tb = generator("theta", generator("b", f, p), p)
    return CircleSignal(f.grid, ga.values + gb.values + 0.5 * (bt.values + tb.values))

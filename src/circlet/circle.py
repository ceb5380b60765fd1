"""Unitary dilation/rotation action on the half-circle chart (-pi/2, pi/2).

Signals live on a midpoint grid theta_j = -pi/2 + pi(j+1/2)/n, which never
touches the chart endpoints and makes the n-point midpoint rule spectrally
accurate for smooth pi-periodic integrands.  The orthonormal reference
basis is e^{2 i n theta}/sqrt(pi).

The dilation a acts through the reparametrization
    theta_a = arctan(a tan theta),
whose Radon-Nikodym derivative is the multiplier
    lambda(a, theta) = a / (cos^2 theta + a^2 sin^2 theta),
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
computed by a type-2 non-uniform FFT with the exponential-of-semicircle
kernel, whose Fourier transform a midpoint rule gives once per n:
oversampling R = 2, kernel half-width W = 8, O(n log n) per call plus 2W
terms per target, and within 5.1e-13 of the direct mode sum (relative to
the samples' largest value) for full-band samples.  Targets are summed in
blocks of NUFFT_BLOCK = 256, so the kernel's scratch memory does not grow
with the number of targets, and no output bit depends on the blocking.
"""

from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import AliasingError, GridMismatchError, require_positive

DEFAULT_N_SAMPLES = 1024
ALIAS_ENERGY_TOL = 1e-8
WEAK_DECAY_TOL = 1e-6
WEAK_VERDICT_TOL = 1e-8
# trig_interpolate's exponential-of-semicircle gridding: oversampling and kernel half-width
NUFFT_OVERSAMPLING = 2
NUFFT_HALF_WIDTH = 8
NUFFT_BLOCK = 256  # targets per block of trig_interpolate's kernel sum
_ES_BETA = 2.30 * 2 * NUFFT_HALF_WIDTH  # the kernel's shape, for 2W taps at R = 2


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
    t = np.asarray(theta, dtype=float)
    return a / (np.cos(t) ** 2 + (a * np.sin(t)) ** 2)  # two terms >= 0: nothing cancels as a grows


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
        """theta_k = pi (k + 1/2 - N/2) / N, exactly odd: nodes[N-1-k] == -nodes[k] bitwise."""
        n = self.n_samples
        return np.pi * (np.arange(n) + (0.5 - n // 2)) / n


def _store_values(obj, shape: tuple, mismatch: Callable[[tuple], str], keep_real: bool = False, name="values"):
    """Replace obj.values (or obj.<name>), on a frozen dataclass, by a contiguous complex copy.

    With keep_real, values of a real dtype are stored as float64 instead.
    Raises ValueError(mismatch(got)) when the array's shape is not `shape`.
    """
    real = keep_real and not np.iscomplexobj(getattr(obj, name))
    v = np.ascontiguousarray(getattr(obj, name), dtype=float if real else complex)
    if v.shape != shape:
        raise ValueError(mismatch(v.shape))
    object.__setattr__(obj, name, v)
    return v


class _Lazy:
    """A missing attribute x is made on its first read by the class's _make_x(self), and kept."""

    def __getattr__(self, name: str):
        make = getattr(type(self), f"_make_{name}", None)  # reached only for a missing attribute
        if make is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        return self.__dict__.setdefault(name, make(self))


@dataclass(frozen=True, eq=False)
class Sampled(_Lazy):
    """Samples of a function on a grid, with an optional exact evaluator.

    The grid supplies `n_samples`, `nodes` and `spacing`, the uniform
    quadrature step of its measure.  Subclasses supply `_interpolate`, the
    evaluation of the samples between nodes.  A signal with an evaluator is
    sampled at the nodes on the first read of `values`, checked as given
    samples are at construction; a refused read keeps nothing and raises
    the same ValueError on the next one.
    """

    grid: Any
    values: np.ndarray = field(repr=False)  # a repr takes no samples
    evaluator: Callable[[np.ndarray], np.ndarray] | None = field(default=None)

    def __post_init__(self):
        n = self.grid.n_samples
        v = _store_values(self, (n,), lambda got: f"values shape {got} does not match grid ({n},)")
        if not np.all(np.isfinite(v.view(float))):
            raise ValueError("signal values must be finite")

    def _make_values(self) -> np.ndarray:
        # a fresh Sampled checks the samples before they are kept
        return Sampled(self.grid, self.evaluator(self.grid.nodes)).values

    @classmethod
    def from_evaluator(cls, grid, fn: Callable):
        """The exact signal fn on grid, sampled (and any refusal raised) on the first read of `values`."""
        signal = object.__new__(cls)
        signal.__dict__.update(grid=grid, evaluator=fn)
        return signal

    @classmethod
    def derived(cls, grid, fn: Callable, source: "Sampled"):
        """fn on grid, fn calling source: exact (sampled on first read) iff source is, else sampled now."""
        return cls.from_evaluator(grid, fn) if source.evaluator is not None else cls(grid, fn(grid.nodes))

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

    def _make_fingerprint(self) -> str:
        # cwt.wavelet_fingerprint: the samples are frozen first, so the kept digest stays theirs
        values = self.values
        values.flags.writeable = False
        h = hashlib.sha256(f"n_samples={self.grid.n_samples};".encode())
        h.update(np.ascontiguousarray(values, dtype="<c16"))
        return h.hexdigest()


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
    n = signal.grid.n_samples
    total = float(np.sum(np.abs(u) ** 2))
    tail = float(np.sum(np.abs(u[n // 4 + 1:n - n // 4]) ** 2))  # the bins of |k| > n/4, in order
    if total > 0.0 and tail / total > ALIAS_ENERGY_TOL:
        raise AliasingError(
            f"{what}: modes above n_samples/4 carry {tail / total:.3e} of the energy "
            f"(> {ALIAS_ENERGY_TOL:.0e}); refine the grid"
        )
    return u


def trig_interpolate(grid: CircleGrid, values: np.ndarray, theta) -> np.ndarray:
    """Evaluate the trigonometric interpolant of midpoint samples.

    The interpolant is the unique pi-periodic trig polynomial through the
    (grid.n_samples,) samples; the Nyquist coefficient is split
    symmetrically so real input stays real (up to rounding).  Evaluation is
    the exponential-of-semicircle type-2 NUFFT (Barnett, Magland & af
    Klinteberg, SIAM J. Sci. Comput. 41, 2019) that `line.dilated_spectra`
    shares: the modes are divided by the kernel's Fourier transform, one
    inverse FFT puts them on an R * n_samples grid (R = NUFFT_OVERSAMPLING
    = 2), and each target sums the 2W kernel-weighted grid values around it
    (W = NUFFT_HALF_WIDTH = 8).  The fine grid is extended periodically by
    2W - 1 points (several periods on the smallest grids), so each target's
    neighbours are one contiguous window of it.  Targets are summed in
    blocks of NUFFT_BLOCK, so scratch memory is a few block-sized arrays
    whatever the number of targets, and every output is bitwise what one
    unblocked sum over all targets gives.  Cost is O(n log n) plus 2W terms
    per target.  The result is within 1e-12 of the direct mode sum,
    relative to the samples' largest value (measured at most 5.1e-13 for
    full-band complex samples, every even n in 4...1024, targets in
    [-4, 4]; 4.9e-14 against closed-form modes at n = 4096 and 16384; see
    tools/nufft_accuracy.py).
    """
    n = grid.n_samples
    v = np.asarray(values, dtype=complex)
    if v.shape != (n,):
        raise ValueError(f"values shape {v.shape} does not match grid ({n},)")
    u = np.fft.fft(v) / n
    c = u[np.arange(-(n // 2), n // 2 + 1) % n]
    # split the unpaired -n/2 mode across +-n/2
    c[[0, -1]] *= 0.5
    t = np.asarray(theta, dtype=float)
    # fractional index on the fine grid; its point p sits at phase 2 pi p / m
    out = _nufft_evaluator(c)(NUFFT_OVERSAMPLING * ((t.reshape(-1) + np.pi / 2) / grid.spacing - 0.5))
    return out[0] if t.ndim == 0 else out.reshape(t.shape)


def _es_kernel(t: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The exponential-of-semicircle kernel K(t) = exp(beta (sqrt(1 - (t/W)^2) - 1)), |t| <= W, into out."""
    np.multiply(t, _ES_BETA / NUFFT_HALF_WIDTH, out=out)
    np.subtract(_ES_BETA * _ES_BETA, np.multiply(out, out, out=out), out=out)
    return np.exp(np.subtract(np.sqrt(out, out=out), _ES_BETA, out=out), out=out)


@functools.lru_cache(maxsize=4)  # grid sizes kept
def _es_deconvolution(n: int) -> np.ndarray:
    """Read-only m / K^(2 pi k / m), k = -n/2 ... n/2, m = R n: K^(w) = 2 int_0^W K(t) cos(w t) dt by a
    32-node midpoint rule (~1e-14 relative), one node at a time, so no temporary tops n/2 + 1 values."""
    step = NUFFT_HALF_WIDTH / 32
    t = step * (np.arange(32) + 0.5)
    omega = (2.0 * np.pi / (NUFFT_OVERSAMPLING * n)) * np.arange(n // 2 + 1)
    khat = sum(kj * np.cos(omega * tj) for tj, kj in zip(t, _es_kernel(t, np.empty_like(t))))
    factor = np.concatenate((khat[:0:-1], khat))
    np.divide(NUFFT_OVERSAMPLING * n / (2.0 * step), factor, out=factor)
    factor.flags.writeable = False
    return factor


def _nufft_evaluator(modes: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Evaluator of P(phi) = sum_k c_k e^{i k phi}, modes c_k for k = -n/2 ... n/2: builds P's fine
    grid of m = R n points once, and sums P at 1-d fine-grid positions s (phase 2 pi s / m)."""
    n = modes.size - 1
    m = NUFFT_OVERSAMPLING * n
    ks = np.arange(-(n // 2), n // 2 + 1)
    fine = np.zeros(m, dtype=complex)
    # divide by the kernel's Fourier transform: ifft's 1/m leaves sum_k c_k e^{2 pi i k p / m} / K^_k
    fine[ks % m] = modes * _es_deconvolution(n)
    # windows[p] holds fine grid points p, p + 1, ..., p + 2W - 1 mod m
    width = 2 * NUFFT_HALF_WIDTH
    windows = np.lib.stride_tricks.sliding_window_view(np.resize(np.fft.ifft(fine), m + width - 1), width)
    # target s weighs points floor(s) + k, k = 1 - W ... W, by K(d), d = s - floor(s) - k
    offsets = np.arange(1 - NUFFT_HALF_WIDTH, NUFFT_HALF_WIDTH + 1, dtype=float)

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
            np.einsum("ij,ij->i", _es_kernel(db, wb), near, out=out[lo:lo + sb.size])
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
    s = (params or RepParams()).s
    inv = 1.0 / a

    def acted(t):
        d = reduce_half_angle(np.asarray(t, dtype=float) - vartheta)
        lam = multiplier(inv, d)
        # lambda^alpha = sqrt(lambda) e^{i s ln lambda}: no complex power, and exactly sqrt(lambda) at s = 0
        w = np.sqrt(lam) * np.exp(1j * s * np.log(lam)) if s else np.sqrt(lam)
        return w * gamma(dilate_angle(d, inv))

    return CircleSignal.derived(gamma.grid, acted, gamma)


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

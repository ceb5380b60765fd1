"""Flat-geometry counterpart: the affine wavelet transform on the line.

Signals sit on a uniform endpoint-exclusive grid over a window [lo, hi);
all Fourier work treats the window as one period, so signals must decay
inside it.  The affine group acts by
    (U(a, b) f)(x) = a^(-1/2) f((x - b)/a),
and the admissibility constant of a wavelet G is
    C = int |G^(k)|^2 / |k| dk        (unitary Fourier convention),
with the k = 0 bin excluded.  Reconstruction divides per half-line by
2 pi C_sgn(k), the exact resolution constant for that frequency sign.

The transform works in the Fourier domain, as the classical CWT does:
per scale a, the signal's FFT times sqrt(2 pi a)/h G^(a k) on the grid's
frequencies.  Those spectra come from the wavelet's samples alone, by
the Gaussian-gridding NUFFT shared with `circle.trig_interpolate`, so
scales below the grid spacing do not alias.  A real wavelet's transform
runs on real FFTs, one per nonzero real component of the data; each
component keeps only the real part of its product at the Nyquist bin, as
a real row must.  Analysis and synthesis share one read-only table per
(wavelet, grid, scale grid) from a small memo, as the circle's analysis
and synthesis share `cwt.dilated_coeffs`.

The companion Fourier-picture action on L2(R+, da/a),
    (U(a', b') phi)(a) = e^{-i a b'} phi(a' a),
lives on the circle's log-uniform ScaleGrid, here also named LogGrid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circle import (NUFFT_OVERSAMPLING, WEAK_DECAY_TOL, Sampled, _gaussian_gridding, _store_complex_values,
                     _weak_sum_ok, edge_fraction)
from .cwt import MODE_FLOOR, TABLE_MEMO_SIZE, ScaleGrid
from .errors import require_positive

DEFAULT_LINE_SAMPLES = 2048
SPECTRA_BLOCK = 8  # scales per batched block of the spectra build, of analysis and of synthesis


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
    converged = edge_fraction(gamma.values) <= WEAK_DECAY_TOL and _weak_sum_ok(gamma.values)
    admissible = bool(converged and c_pos > 0.0 and c_neg > 0.0)
    return LineAdmissibility(c_pos + c_neg, c_pos, c_neg, converged, admissible)


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


def dilated_spectra(gamma: LineSignal, grid: LineGrid, scales: ScaleGrid) -> np.ndarray:
    """sqrt(2 pi a)/h G^(a k) for the scale nodes a (rows) at grid.freqs k (columns).

    h is grid.spacing, and G^ is the spectrum of the wavelet's samples,
    G^(kappa) = h_w/sqrt(2 pi) sum_j g_j e^{-i kappa x_j} on the wavelet's own
    grid, set to zero past that grid's Nyquist pi/h_w.  Row a is the DFT on
    `grid` of the dilated wavelet a^{-1/2} G(x/a), periodized rather than
    sampled, so scales below the grid spacing do not alias.  Only the
    samples enter, as in `cwt.dilated_coeffs`, and G^ is evaluated by the
    Gaussian-gridding NUFFT shared with `circle.trig_interpolate`.

    A real wavelet has G^(-kappa) = conj G^(kappa), and its table keeps only
    the first n/2 + 1 columns (k >= 0 and the -n/2 bin); a complex wavelet's
    keeps all n.  The table is read-only and shared: the last
    TABLE_MEMO_SIZE tables are kept, keyed on the wavelet samples, its
    window, the signal grid and the scale grid.
    """
    return _memo_spectra(gamma.values.tobytes(), gamma.grid, grid, scales)


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _memo_spectra(samples: bytes, wgrid: LineGrid, grid: LineGrid, scales: ScaleGrid) -> np.ndarray:
    """dilated_spectra behind the memo.

    With x_j = c + j' h_w (c the wavelet window's centre, j' = j - n_w/2),
    sum_j g_j e^{-i kappa x_j} = e^{-i kappa c} P(-kappa h_w) for the trig
    polynomial P(x) = sum_j' g_j e^{i j' x}.  The Gaussian-gridding NUFFT
    shared with `circle.trig_interpolate` builds P's fine grid once and
    evaluates P, SPECTRA_BLOCK scales at a time, at the kept kappa = a k.
    """
    g = np.frombuffer(samples, dtype=complex)
    nw, hw = wgrid.n_samples, wgrid.spacing
    centre = wgrid.lo + (nw // 2) * hw
    k = grid.freqs if np.any(g.imag) else grid.freqs[:grid.n_samples // 2 + 1]
    poly = _gaussian_gridding(np.append(g, 0.0))  # modes j' = -n_w/2 ... n_w/2, the last one zero
    table = np.zeros((scales.count, k.size), dtype=complex)
    nodes = scales.nodes
    for lo in range(0, scales.count, SPECTRA_BLOCK):
        a = nodes[lo:lo + SPECTRA_BLOCK]
        kappa = a[:, None] * k
        keep = np.abs(kappa) <= np.pi / hw
        kept = kappa[keep]
        # x = -kappa h_w sits at position m x / (2 pi) of P's fine grid of m = R n_w points
        p = poly(kept * (-NUFFT_OVERSAMPLING * nw * hw / (2.0 * np.pi)))
        p *= np.exp(-1j * centre * kept)
        # kept targets run row by row; entries past the Nyquist stay untouched zero pages
        p *= np.repeat(np.sqrt(a) * hw / grid.spacing, np.count_nonzero(keep, axis=1))
        table[lo:lo + SPECTRA_BLOCK][keep] = p
    table.flags.writeable = False
    return table


def line_analyze(psi: LineSignal, gamma: LineSignal, scales: ScaleGrid) -> LineScalogram:
    """W(b, a) = <U(a,b) gamma | psi> for b on the signal grid.

    Per scale, the product h fft(psi) conj(dilated_spectra) followed by an
    inverse FFT: a circular cross-correlation over the periodized window,
    so both signals must decay inside the window for the wraparound to be
    harmless.  A complex wavelet's full table takes one batched complex
    inverse FFT.  A real wavelet takes real FFTs per nonzero real component
    of psi, SPECTRA_BLOCK scales at a time, each into its own part of the
    scalogram; a component's product keeps only its real part at the
    Nyquist bin, as a real row must, so a real psi has an exactly real
    scalogram.
    """
    g = psi.grid
    table = dilated_spectra(gamma, g, scales)
    n, w = g.n_samples, table.shape[1]
    if w == n:
        out = np.conjugate(table)
        out *= g.spacing * np.fft.fft(psi.values)
        return LineScalogram(scales=scales, grid=g, values=np.fft.ifft(out, axis=1, out=out))
    out = np.zeros((scales.count, n), dtype=complex)
    buf = np.empty((min(SPECTRA_BLOCK, scales.count), w), dtype=complex)
    for part, dest in ((psi.values.real, out.real), (psi.values.imag, out.imag)):
        if not np.any(part):
            continue
        f = g.spacing * np.fft.rfft(part)
        for lo in range(0, scales.count, SPECTRA_BLOCK):
            rows = table[lo:lo + SPECTRA_BLOCK]
            block = np.conjugate(rows, out=buf[:len(rows)])
            block *= f
            # irfft reads only the real part of the Nyquist bin
            np.fft.irfft(block, n, axis=1, out=dest[lo:lo + SPECTRA_BLOCK])
    return LineScalogram(scales=scales, grid=g, values=out)


def line_synthesize(
    scalogram: LineScalogram,
    gamma: LineSignal,
    adm: LineAdmissibility,
) -> LineSignal:
    """Reconstruct from int int W(b,a) (U(a,b) gamma)(x) db da/a^2.

    In the frequency domain: each block of SPECTRA_BLOCK scalogram rows is
    transformed, multiplied by dilated_spectra and summed over scales with
    the weights db da/a^2.  A complex wavelet's full table takes one
    batched complex FFT per block.  A real wavelet's takes real FFTs per
    nonzero real component of the block: the real parts sum into the
    half-spectrum A and the imaginary parts into B, each kept real at the
    Nyquist bin as a real row's must be, and the full spectrum is A + iB
    at k[m], m <= n/2, and conj A + i conj B at k[n - m].  Normalized per
    frequency half-line by 2 pi C_sgn(k) (the exact resolution constant);
    frequencies on a half-line with constant below MODE_FLOOR * C_total
    are dropped, k = 0 included.
    """
    g = scalogram.grid
    scales = scalogram.scales
    table = dilated_spectra(gamma, g, scales)
    n, w = g.n_samples, table.shape[1]
    weights = g.spacing * scales.log_weights / scales.nodes  # db da/a^2
    sums = np.zeros((2, w), dtype=complex)  # A and B; a complex wavelet's full sum in A
    # one block buffer and no temporaries: large transients here fragment
    # the heap that the caller's next scalogram is allocated from
    buf = np.empty((min(SPECTRA_BLOCK, scales.count), w), dtype=complex)
    transform = np.fft.fft if w == n else np.fft.rfft
    for lo in range(0, scales.count, SPECTRA_BLOCK):
        rows = scalogram.values[lo:lo + SPECTRA_BLOCK]
        # imaginary parts are checked per block, in cache, by their bits (nan and -0.0 count)
        nonzero = w < n and np.bitwise_or.reduce(rows.imag.view(np.uint64), axis=None)
        parts = [rows] if w == n else [rows.real] + ([rows.imag] if nonzero else [])
        for acc, part in zip(sums, parts):
            block = transform(part, axis=1, out=buf[:len(rows)])
            block *= table[lo:lo + SPECTRA_BLOCK]
            # a weighted sum, not weights @ block: numpy's real @ complex is slow, and
            # a BLAS product here wakes OpenBLAS's other threads and their buffers
            block *= weights[lo:lo + SPECTRA_BLOCK, None]
            acc += block.sum(axis=0)
    acc_hat, b = sums
    if w < n:  # unfold A + iB; a real row's Nyquist bin is real
        sums[:, -1] = sums[:, -1].real
        acc_hat = np.concatenate([acc_hat + 1j * b, np.conj(acc_hat[n - w:0:-1]) + 1j * np.conj(b[n - w:0:-1])])
    k = g.freqs
    floor = MODE_FLOOR * max(adm.c_total, 1e-300)
    scale_fac = np.zeros(g.n_samples)
    for half, c in ((k > 0, adm.c_pos), (k < 0, adm.c_neg)):
        if c > floor:
            scale_fac[half] = 1.0 / (2.0 * np.pi * c)
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

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
frequencies.  Those spectra come from the wavelet's samples alone, by the
exponential-of-semicircle NUFFT shared with `circle.trig_interpolate`, so
scales below the grid spacing do not alias.  A real wavelet's transform
runs on real FFTs, one per nonzero real component of the data; each
component keeps only the real part of its product at the Nyquist bin, as
a real row must.  The transform is diagonal per frequency, so a scalogram
is held as those products, its rows' spectra (as a circle scalogram is
held as its modes); synthesis runs no FFT over the rows, and the samples
are made on their first read, exactly real float64 for a real signal and
wavelet.  Files hold samples as complex128.  Analysis and synthesis share
one read-only table per (wavelet, grid, scale grid) from a small memo, as
the circle's share `cwt.dilated_coeffs`.

The companion Fourier-picture action on L2(R+, da/a),
    (U(a', b') phi)(a) = e^{-i a b'} phi(a' a),
lives on the circle's log-uniform ScaleGrid, here also named LogGrid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .circle import (NUFFT_OVERSAMPLING, WEAK_DECAY_TOL, Sampled, _Lazy, _nufft_evaluator, _store_values,
                     _weak_sum_ok, edge_fraction)
from .cwt import MODE_FLOOR, TABLE_MEMO_SIZE, ScaleGrid, _weighted_rows
from .errors import require_positive

DEFAULT_LINE_SAMPLES = 2048
SPECTRA_BLOCK = 8  # scales per batched block of the spectra build and of synthesis


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

    return LineSignal.derived(f.grid, acted, f)


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
class LineScalogram(_Lazy):
    """Affine wavelet coefficients on translate x scale; b-grid = signal grid.

    Real values are stored as contiguous float64 (line_analyze's, for a
    real signal and wavelet), complex ones as complex128.  held is
    "spectra" or "values", what it was built from.  line_analyze's holds
    spectra[p, j], the spectrum of component p of row j (the row for a
    complex wavelet; else its real, and for a complex signal imaginary,
    part's n/2 + 1 bins), and makes read-only values from them when read.
    """

    scales: ScaleGrid
    grid: LineGrid
    values: np.ndarray = field(repr=False)  # a repr makes no values

    def __post_init__(self):
        self.__dict__["held"] = "values"
        shape = (self.scales.count, self.grid.n_samples)
        _store_values(self, shape, lambda got: f"values shape {got} does not match {shape}", keep_real=True)

    @classmethod
    def _from_spectra(cls, scales: ScaleGrid, grid: LineGrid, spectra: np.ndarray, zero: tuple[bool, ...]):
        """The scalogram held as its rows' spectra; zero[p] marks a component whose rows are +0.0."""
        scal = object.__new__(cls)
        scal.__dict__.update(scales=scales, grid=grid, held="spectra", spectra=spectra, _zero=zero)
        return scal

    def _make_values(self, rows: slice = slice(None)) -> np.ndarray:
        """values[rows] from the spectra, read-only: each component's inverse FFT, or +0.0 for a zero one."""
        spectra, n = self.spectra[:, rows], self.grid.n_samples
        half = spectra.shape[2] < n
        out = np.zeros((spectra.shape[1], n), dtype=float if half and len(spectra) == 1 else complex)
        for part, dest, zero in zip(spectra, (out,) if len(spectra) == 1 else (out.real, out.imag), self._zero):
            if not zero:
                (np.fft.irfft if half else np.fft.ifft)(part, n, axis=1, out=dest)
        out.flags.writeable = False
        return out


def dilated_spectra(gamma: LineSignal, grid: LineGrid, scales: ScaleGrid) -> np.ndarray:
    """sqrt(2 pi a)/h G^(a k) for the scale nodes a (rows) at grid.freqs k (columns).

    h is grid.spacing, and G^ is the spectrum of the wavelet's samples,
    G^(kappa) = h_w/sqrt(2 pi) sum_j g_j e^{-i kappa x_j} on the wavelet's own
    grid, set to zero past that grid's Nyquist pi/h_w.  Row a is the DFT on
    `grid` of the dilated wavelet a^{-1/2} G(x/a), periodized rather than
    sampled, so scales below the grid spacing do not alias.  Only the
    samples enter, as in `cwt.dilated_coeffs`, and G^ is evaluated by the
    exponential-of-semicircle NUFFT shared with `circle.trig_interpolate`,
    within 1e-12 of the dense DTFT relative to sqrt(a) h_w/h sum |g_j|
    (tools/nufft_accuracy.py measures 1.9e-14 over 300 seeded draws).

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
    polynomial P(x) = sum_j' g_j e^{i j' x}.  The NUFFT shared with
    `circle.trig_interpolate` builds P's fine grid once and sums 2W = 16 of
    its points per kept kappa = a k, SPECTRA_BLOCK scales at a time.
    """
    g = np.frombuffer(samples, dtype=complex)
    nw, hw = wgrid.n_samples, wgrid.spacing
    centre = wgrid.lo + (nw // 2) * hw
    k = grid.freqs if np.any(g.imag) else grid.freqs[:grid.n_samples // 2 + 1]
    poly = _nufft_evaluator(np.append(g, 0.0))  # modes j' = -n_w/2 ... n_w/2, the last one zero
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

    Per scale, the product h fft(psi) conj(dilated_spectra), whose inverse
    FFT is the row: a circular cross-correlation over the periodized
    window, so both signals must decay inside the window for the
    wraparound to be harmless.  The scalogram holds these products, per
    component of psi, and makes its values by their inverse FFTs on the
    first read.  A complex wavelet's full table takes psi whole, by complex
    FFTs, into complex128 values.  A real wavelet's half table takes each
    real component of psi by real FFTs, its products real at the Nyquist
    bin as a real row's spectrum is.  So a real psi has an exactly real
    scalogram, in float64 values; a complex psi's fills the real and
    imaginary parts of complex128 values.  A zero component gives +0.0 rows.
    """
    g = psi.grid
    table = dilated_spectra(gamma, g, scales)
    n, w = g.n_samples, table.shape[1]
    full = w == n
    parts = (psi.values,) if full else (psi.values.real,) + ((psi.values.imag,) if np.any(psi.values.imag) else ())
    zero = tuple(not np.any(part) for part in parts)
    spectra = np.zeros((len(parts), scales.count, w), dtype=complex)
    for part, dest, skip in zip(parts, spectra, zero):
        if skip:  # its spectra, and rows, stay +0.0
            continue
        f = g.spacing * (np.fft.fft if full else np.fft.rfft)(part)
        np.conjugate(table, out=dest)
        for row in dest:  # a broadcast product takes numpy iterator buffers the size of the rows
            row *= f
    if not full:  # irfft reads only the real part of the Nyquist bin
        spectra[..., -1].imag = 0.0
    spectra.flags.writeable = False
    return LineScalogram._from_spectra(scales, g, spectra, zero)


def _weighted_sums(scalogram: LineScalogram, table: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Per frequency, sum over scales of weights * row spectrum * table row: A and B.

    Each part runs through cwt._weighted_rows, the kernel of the circle's
    synthesis, SPECTRA_BLOCK rows at a time in one block buffer.  A
    scalogram held as spectra of the table's width gives them into A and B
    as they are, its values read or not.  Any other (so it reconstructs
    bitwise as all with its values) gives its rows' FFTs: whole into A for
    a full table or float64 rows; else the real parts into A, and the
    imaginary parts into B if they have a nonzero bit anywhere (nan and
    -0.0 count).  Measured with OpenBLAS 0.3.31 on 2 vCPUs, a block's
    (8, 2w) float GEMV runs on one thread: a line round trip at the
    defaults (200 scales, 2048 samples) takes 1.5-1.8 ms of wall time and
    within 5 us of it in CPU time.
    """
    w = table.shape[1]
    sums = np.zeros((2, w), dtype=complex)
    if scalogram.held == "spectra" and scalogram.spectra.shape[2] == w:
        parts, transform = list(scalogram.spectra), None
    else:
        values = scalogram.values
        transform = np.fft.fft if w == values.shape[1] else np.fft.rfft
        parts = [values]
        if transform is np.fft.rfft and values.dtype == complex:
            nonzero = np.bitwise_or.reduce(values.imag.view(np.uint64), axis=None)
            parts = [values.real] + ([values.imag] if nonzero else [])
    for acc, part in zip(sums, parts):
        _weighted_rows(part, table, weights, acc, SPECTRA_BLOCK, transform)
    return sums


def line_synthesize(
    scalogram: LineScalogram,
    gamma: LineSignal,
    adm: LineAdmissibility,
) -> LineSignal:
    """Reconstruct from int int W(b,a) (U(a,b) gamma)(x) db da/a^2.

    In the frequency domain, _weighted_sums multiplies the row spectra (held
    by line_analyze's scalogram, else by FFT) by dilated_spectra and sums
    over scales with the weights db da/a^2.  For a real wavelet it gives the
    half-spectra A and B of the real and imaginary parts, each kept real at
    the Nyquist bin as a real row's must be, and the full spectrum is
    A + iB at k[m], m <= n/2, and conj A + i conj B at k[n - m].  Normalized per frequency half-line
    by 2 pi C_sgn(k) (the exact resolution constant); frequencies on a
    half-line with constant below MODE_FLOOR * C_total are dropped, k = 0
    included.
    """
    g, scales = scalogram.grid, scalogram.scales
    table = dilated_spectra(gamma, g, scales)
    n, w = g.n_samples, table.shape[1]
    sums = _weighted_sums(scalogram, table, g.spacing * scales.log_weights / scales.nodes)  # db da/a^2
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

    return RPlusFunction.derived(phi.grid, acted, phi)

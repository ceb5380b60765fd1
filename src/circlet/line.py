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
frequencies.  Those spectra come from the wavelet's samples alone by one
chirp-z transform per scale (exact, since the targets a k are
equispaced), so scales below the grid spacing do not alias.  A real
wavelet's transform runs on real FFTs, one per nonzero real component of
the data; each component keeps only the real part of its product at the
Nyquist bin, as a real row must.  Analysis and synthesis share one
read-only table per (wavelet, grid, scale grid) from a small memo, as the
circle's analysis and synthesis share `cwt.dilated_coeffs`.

The companion Fourier-picture action on L2(R+, da/a),
    (U(a', b') phi)(a) = e^{-i a b'} phi(a' a),
lives on the circle's log-uniform ScaleGrid, here also named LogGrid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circle import Sampled, _store_complex_values, edge_fraction
from .cwt import MODE_FLOOR, TABLE_MEMO_SIZE, WEAK_DECAY_TOL, WEAK_VERDICT_TOL, ScaleGrid
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


def dilated_spectra(gamma: LineSignal, grid: LineGrid, scales: ScaleGrid) -> np.ndarray:
    """sqrt(2 pi a)/h G^(a k) for the scale nodes a (rows) at grid.freqs k (columns).

    h is grid.spacing, and G^ is the spectrum of the wavelet's samples,
    G^(kappa) = h_w/sqrt(2 pi) sum_j g_j e^{-i kappa x_j} on the wavelet's own
    grid, set to zero past that grid's Nyquist pi/h_w.  Row a is the DFT on
    `grid` of the dilated wavelet a^{-1/2} G(x/a), periodized rather than
    sampled, so scales below the grid spacing do not alias.  Only the
    samples enter, as in `cwt.dilated_coeffs`.

    A real wavelet has G^(-kappa) = conj G^(kappa), and its table keeps only
    the first n/2 + 1 columns (k >= 0 and the -n/2 bin); a complex wavelet's
    keeps all n.  The table is read-only and shared: the last
    TABLE_MEMO_SIZE tables are kept, keyed on the wavelet samples, its
    window, the signal grid and the scale grid.
    """
    return _memo_spectra(gamma.values.tobytes(), gamma.grid, grid, scales)


@functools.lru_cache(maxsize=TABLE_MEMO_SIZE)
def _memo_spectra(samples: bytes, wgrid: LineGrid, grid: LineGrid, scales: ScaleGrid) -> np.ndarray:
    """dilated_spectra behind the memo."""
    g = np.frombuffer(samples, dtype=complex)
    half = grid.n_samples // 2
    table = _half_spectra(g, wgrid, grid, scales)
    if np.any(g.imag):
        # the spectrum at -kappa is the conjugate of conj(gamma)'s at +kappa
        neg = _half_spectra(np.conj(g), wgrid, grid, scales)
        table = np.concatenate([table[:, :half], np.conj(neg[:, half:0:-1])], axis=1)
    else:
        table[:, half] = np.conj(table[:, half])  # column n/2 is the -n/2 bin
    table.flags.writeable = False
    return table


def _half_spectra(g: np.ndarray, wgrid: LineGrid, grid: LineGrid, scales: ScaleGrid) -> np.ndarray:
    """dilated_spectra's columns at k = m dk for m = 0..n/2, by chirp-z.

    With x_j = c + j' h_w (c the wavelet window's centre, j' = j - n_w/2),
    a k_m x_j = a k_m c + alpha m j' with alpha = a h_w dk, and Bluestein's
    m j' = (m^2 + j'^2 - (m - j')^2)/2 turns sum_j g_j e^{-i alpha m j'} into
    a correlation with the chirp w_t = e^{-i alpha t^2/2}: one chirp per scale
    serves the pre-multiply, the kernel and the post-multiply.  The sum is
    exact to rounding because the targets a k_m are equispaced per scale.
    SPECTRA_BLOCK scales at a time, each block only as wide as its unmasked
    band.
    """
    n, nw, h, hw = grid.n_samples, wgrid.n_samples, grid.spacing, wgrid.spacing
    centre = wgrid.lo + (nw // 2) * hw
    abs_k = np.abs(grid.freqs[:n // 2 + 1])
    pre = np.abs(np.arange(nw) - nw // 2)
    out = np.zeros((scales.count, n // 2 + 1), dtype=complex)
    nodes = scales.nodes
    for lo in range(0, scales.count, SPECTRA_BLOCK):
        a = nodes[lo:lo + SPECTRA_BLOCK, None]
        keep = a * abs_k <= np.pi / hw
        top = int(np.count_nonzero(keep[0]))  # the block's widest band, at its smallest scale
        size = _fft_length(nw + top - 1)
        # alpha t^2/2 = 2 pi (a h_w / (2 n h)) t^2
        chirp = _cis(a * hw / (2.0 * n * h), np.arange(nw // 2 + top) ** 2)
        # u_j = g_j w_j' and v_r = conj w_(r + 1 - n_w/2), so that the linear
        # convolution (u * v)[m + n_w - 1] is sum_j g_j w_j' conj w_(m - j')
        u = np.zeros((a.shape[0], size), dtype=complex)
        np.multiply(chirp[:, pre], g, out=u[:, :nw])
        v = np.zeros((a.shape[0], size), dtype=complex)
        np.conjugate(chirp[:, np.abs(np.arange(nw + top - 1) - (nw // 2 - 1))], out=v[:, :nw + top - 1])
        np.fft.fft(u, axis=1, out=u)
        np.fft.fft(v, axis=1, out=v)
        u *= v
        np.fft.ifft(u, axis=1, out=u)
        post = chirp[:, :top] * _cis(a * centre / (n * h), np.arange(top))
        post *= np.sqrt(a) * hw / h * keep[:, :top]
        np.multiply(u[:, nw - 1:nw - 1 + top], post, out=out[lo:lo + a.shape[0], :top])
    return out


def _fft_length(n: int) -> int:
    """Smallest 2^p or 3 * 2^p not below n (pocketfft's fast lengths)."""
    p = 1 << (n - 1).bit_length()
    return 3 * p // 4 if 3 * p // 4 >= n else p


def _cis(rate: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """e^{-2 pi i rate idx} for rates of shape (b, 1) and integers idx >= 0.

    idx is split into four base-2^s digits, so each row evaluates 4 * 2^s
    cosines and sines instead of one per entry.  Each digit's rate is
    reduced mod 1 exactly before it meets a digit below 2^s, so a phase is
    off by at most ~2^(s-53) turns however large rate * idx is.
    """
    s = max(-(-int(idx.max()).bit_length() // 4), 1)
    digits = np.arange(1 << s)
    out = None
    for shift in range(0, 4 * s, s):
        turns = (rate * 2.0 ** shift) % 1.0 * digits
        turns *= -2.0 * np.pi
        table = np.empty(turns.shape, dtype=complex)
        np.cos(turns, out=table.real)
        np.sin(turns, out=table.imag)
        factor = table[:, (idx >> shift) & ((1 << s) - 1)]
        out = factor if out is None else np.multiply(out, factor, out=out)
    return out


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
        # the imaginary parts are checked per block, while the block is in cache
        parts = [rows] if w == n else [rows.real] + ([rows.imag] if np.any(rows.imag) else [])
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

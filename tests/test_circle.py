"""Chart action: unitarity, multiplier laws, generators, quadratic invariant."""

import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlet import (
    AliasingError,
    CircleGrid,
    CircleSignal,
    RepParams,
    casimir_apply,
    dilate_angle,
    generator,
    multiplier,
    reduce_half_angle,
    rep_action,
    trig_interpolate,
)
from circlet.circle import _ES_BETA, NUFFT_BLOCK, NUFFT_HALF_WIDTH, NUFFT_OVERSAMPLING, _es_deconvolution, _signed_freqs

GRID = CircleGrid(1024)


def gauss_bump():
    return CircleSignal.from_evaluator(GRID, lambda t: np.exp(-np.tan(t) ** 2))


def band_limited(seed, n_band=8, grid=GRID):
    """Random trig polynomial in modes |n| <= n_band with decaying weights."""
    rng = np.random.default_rng(seed)
    t = grid.nodes
    vals = np.zeros(grid.n_samples, dtype=complex)
    for n in range(-n_band, n_band + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) / (1.0 + n * n)
        vals += c * np.exp(2j * n * t)
    return CircleSignal(grid, vals)


def test_reduce_half_angle():
    assert reduce_half_angle(0.3) == pytest.approx(0.3)
    assert reduce_half_angle(0.3 + np.pi) == pytest.approx(0.3)
    assert reduce_half_angle(-1.2 - 3 * np.pi) == pytest.approx(-1.2)
    assert np.allclose(reduce_half_angle(np.array([0.0, np.pi, 2.5])), [0.0, 0.0, 2.5 - np.pi])


def test_dilate_angle_known_value():
    assert dilate_angle(np.pi / 4, 2.0) == pytest.approx(np.arctan(2.0))
    # a = 1 is the identity
    t = np.linspace(-1.5, 1.5, 11)
    assert np.allclose(dilate_angle(t, 1.0), t)


def test_dilate_angle_group_property():
    t = np.linspace(-1.4, 1.4, 301)
    assert np.allclose(dilate_angle(dilate_angle(t, 2.0), 3.0), dilate_angle(t, 6.0), atol=1e-12)


def test_multiplier_known_value():
    # lambda(2, pi/4) = 2/(4 - 3/2) = 0.8
    assert multiplier(2.0, np.pi / 4) == pytest.approx(0.8, abs=1e-15)
    assert multiplier(1.0, 0.3) == pytest.approx(1.0, abs=1e-15)


def test_multiplier_is_dilation_derivative():
    # central differences of the dilated angle against the closed form
    t = np.linspace(-1.3, 1.3, 401)
    h = 1e-5
    for a in (0.3, 2.0, 7.0):
        fd = (dilate_angle(t + h, a) - dilate_angle(t - h, a)) / (2 * h)
        assert np.max(np.abs(fd - multiplier(a, t))) < 1e-6


def test_multiplier_cocycle():
    t = np.linspace(-1.5, 1.5, 501)
    for a, ap in ((2.0, 3.0), (0.4, 5.0), (0.2, 0.7)):
        lhs = multiplier(a * ap, t)
        rhs = multiplier(a, dilate_angle(t, ap)) * multiplier(ap, t)
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_multiplier_reciprocity():
    t = np.linspace(-1.5, 1.5, 501)
    for a in (0.25, 2.0, 9.0):
        prod = multiplier(1.0 / a, dilate_angle(t, a)) * multiplier(a, t)
        assert np.max(np.abs(prod - 1.0)) < 1e-12


@pytest.mark.parametrize("a", [1e-3, 0.1, 100.0, 1e3])
def test_multiplier_matches_mpmath_at_far_dilations(a):
    # 50-digit reference at the exact double angles: a / (a^2 + (1 - a^2) cos^2)
    # cancels for a >> 1, a / (cos^2 + a^2 sin^2) does not
    mpmath.mp.dps = 50
    t = CircleGrid(256).nodes
    ma = mpmath.mpf(a)
    want = np.array([float(ma / (mpmath.cos(x) ** 2 + (ma * mpmath.sin(x)) ** 2)) for x in map(mpmath.mpf, t)])
    assert np.max(np.abs(multiplier(a, t) / want - 1.0)) <= 2e-15


def test_rep_action_unitary():
    gamma = gauss_bump()
    base = gamma.norm()
    rng = np.random.default_rng(21)
    for _ in range(100):
        a = float(np.exp(rng.uniform(np.log(0.1), np.log(10.0))))
        vt = float(rng.uniform(-np.pi / 2, np.pi / 2))
        acted = rep_action(gamma, a, vt)
        assert abs(acted.norm() / base - 1.0) < 1e-6


def test_rep_action_splits():
    # U(a, vt) = U(1, vt) U(a, 0): rotate after dilating
    gamma = gauss_bump()
    a, vt = 2.7, 0.9
    joint = rep_action(gamma, a, vt)
    split = rep_action(rep_action(gamma, a, 0.0), 1.0, vt)
    assert np.max(np.abs(joint.values - split.values)) < 1e-12


def test_rep_action_group_law_on_dilations():
    gamma = gauss_bump()
    two_step = rep_action(rep_action(gamma, 2.0, 0.0), 3.0, 0.0)
    one_step = rep_action(gamma, 6.0, 0.0)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12


def test_rep_action_rotation_is_shift():
    gamma = gauss_bump()
    vt = GRID.spacing * 5  # exact grid shift
    acted = rep_action(gamma, 1.0, vt)
    assert np.max(np.abs(acted.values - np.roll(gamma.values, 5))) < 1e-12


def test_rep_action_preserves_realness_at_s0():
    # alpha = 1/2 keeps real signals real
    gamma = gauss_bump()
    acted = rep_action(gamma, 3.0, 0.4)
    assert np.max(np.abs(acted.values.imag)) < 1e-14


def test_trig_interpolation_exact_on_modes():
    t = GRID.nodes
    vals = np.exp(2j * 7 * t) + 0.3 * np.exp(-2j * 12 * t)
    probe = np.array([-1.234, -0.1, 0.555, 1.5])
    want = np.exp(2j * 7 * probe) + 0.3 * np.exp(-2j * 12 * probe)
    got = trig_interpolate(GRID, vals, probe)
    assert np.max(np.abs(got - want)) < 1e-12


def dense_trig_interpolate(grid, values, theta):
    """The direct mode sum: an (targets x (N+1)) matrix of exponentials."""
    n = grid.n_samples
    u = np.fft.fft(np.asarray(values, dtype=complex)) / n
    ks = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    # split the unpaired -n/2 mode across +-n/2
    ks_ext = np.concatenate([ks, [n // 2]])
    u_ext = np.concatenate([u, [0.5 * u[n // 2]]])
    u_ext[n // 2] *= 0.5
    t = np.atleast_1d(np.asarray(theta, dtype=float))
    # fractional grid index; e^{2 pi i k j(t)/n} is e^{2 i k t} up to a fixed phase
    j = (t + np.pi / 2) / grid.spacing - 0.5
    out = np.exp(2j * np.pi * np.outer(j, ks_ext) / n) @ u_ext
    if np.isscalar(theta) or np.ndim(theta) == 0:
        return out[0]
    return out.reshape(np.shape(theta))


def modulo_gather_trig_interpolate(grid, values, theta):
    """The gridding sum in one shot: every target's 2W neighbours gathered
    at once through an (targets x 2W) index array taken mod m, each weighed
    by the exponential-of-semicircle kernel exp(beta (sqrt(1 - (d/W)^2) - 1))."""
    n = grid.n_samples
    m = NUFFT_OVERSAMPLING * n
    u = np.fft.fft(np.asarray(values, dtype=complex)) / n
    ks = np.arange(-(n // 2), n // 2 + 1)
    c = u[ks % n]
    c[[0, -1]] *= 0.5
    fine = np.zeros(m, dtype=complex)
    fine[ks % m] = c * _es_deconvolution(n)
    fine = np.fft.ifft(fine)
    t = np.asarray(theta, dtype=float)
    s = NUFFT_OVERSAMPLING * ((t.reshape(-1) + np.pi / 2) / grid.spacing - 0.5)
    s -= m * np.round(s / m)
    idx = np.floor(s).astype(int)[:, None] + np.arange(1 - NUFFT_HALF_WIDTH, NUFFT_HALF_WIDTH + 1)
    d = s[:, None] - idx
    weights = np.exp(np.sqrt(_ES_BETA**2 - (d * (_ES_BETA / NUFFT_HALF_WIDTH)) ** 2) - _ES_BETA)
    out = np.einsum("ij,ij->i", weights, fine[idx % m])
    if t.ndim == 0:
        return out[0]
    return out.reshape(t.shape)


THETA_SHAPES = {
    "scalar": lambda t: float(t[0]),
    "0-d": lambda t: np.asarray(t[0]),
    "1-D": lambda t: t,
    "2-D": lambda t: t[: t.size // 3 * 3].reshape(3, -1),
}


@settings(max_examples=80, deadline=None)
@given(
    half_n=st.integers(2, 512),
    seed=st.integers(0, 2**32 - 1),
    span=st.sampled_from([np.pi / 2, 4.0]),
    shape=st.sampled_from(sorted(THETA_SHAPES)),
)
def test_trig_interpolate_matches_dense_sum(half_n, seed, span, shape):
    # full-band complex samples; targets inside and outside the chart (far
    # out, the angle's own rounding times n already exceeds the bound)
    grid = CircleGrid(2 * half_n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(grid.n_samples)
    theta = THETA_SHAPES[shape](rng.uniform(-span, span, 99))
    got = trig_interpolate(grid, vals, theta)
    want = dense_trig_interpolate(grid, vals, theta)
    assert np.shape(got) == np.shape(want) == np.shape(theta)
    # relative to the signal's scale: one target may sit near a zero
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(vals))


@pytest.mark.parametrize("n", [4096, 16384])
def test_trig_interpolate_closed_form_at_large_n(n):
    # samples of sum_k c_k e^{2ikt} for |k| <= n/4, built by one inverse FFT
    grid = CircleGrid(n)
    rng = np.random.default_rng(n)
    k = np.arange(-(n // 4), n // 4 + 1)
    c = (rng.standard_normal(k.size) + 1j * rng.standard_normal(k.size)) / (1.0 + np.abs(k))
    spectrum = np.zeros(n, dtype=complex)
    # e^{2ik theta_j} = e^{-ik pi + i pi k / n} e^{2 pi i k j / n} on the midpoint grid
    spectrum[k % n] = c * np.exp(1j * np.pi * k * (1.0 / n - 1.0))
    vals = n * np.fft.ifft(spectrum)
    theta = rng.uniform(-4.0, 4.0, 200)
    want = np.exp(2j * np.outer(theta, k)) @ c
    got = trig_interpolate(grid, vals, theta)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("n", [4, 6, 64, 1024])
def test_trig_interpolate_real_in_real_out(n):
    grid = CircleGrid(n)
    vals = np.random.default_rng(n).standard_normal(n)
    got = trig_interpolate(grid, vals, np.linspace(-4.0, 4.0, 301))
    assert np.max(np.abs(got.imag)) <= 1e-14 * np.max(np.abs(got))


ORACLE_COUNTS = [0, 1, NUFFT_BLOCK - 1, NUFFT_BLOCK, NUFFT_BLOCK + 1, 3 * NUFFT_BLOCK + 7]
ORACLE_SHAPES = {
    "scalar": lambda t: float(t[0]),
    "0-d": lambda t: np.asarray(t[0]),
    "1-D": lambda t: t,
    "2-D": lambda t: t.reshape(-1, 2),
}


@settings(max_examples=120, deadline=None)
@given(
    # below N = 8 the 2W-point window wraps the 2N-point fine grid more than once
    half_n=st.one_of(st.integers(2, 7), st.integers(8, 512)),
    count=st.sampled_from(ORACLE_COUNTS),
    shape=st.sampled_from(sorted(ORACLE_SHAPES)),
    special=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(half_n=2, count=3 * NUFFT_BLOCK + 7, shape="1-D", special=True, seed=0)
@example(half_n=7, count=NUFFT_BLOCK + 1, shape="2-D", special=True, seed=1)
@example(half_n=512, count=NUFFT_BLOCK, shape="1-D", special=True, seed=2)
def test_trig_interpolate_matches_modulo_gather_bitwise(half_n, count, shape, special, seed):
    # blocking changes neither shape nor a single output bit, including nan
    # for non-finite angles and targets just below the first node, whose
    # window wraps around the end of the fine grid
    grid = CircleGrid(2 * half_n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(grid.n_samples)
    raw = rng.uniform(-4.0, 4.0, 2 * count if shape == "2-D" else max(count, 1))
    if special and raw.size:
        specials = [np.inf, -np.inf, np.nan, grid.nodes[0] - rng.uniform(0.0, 0.25) * grid.spacing]
        raw[rng.integers(0, raw.size, len(specials))] = specials
    theta = ORACLE_SHAPES[shape](raw)
    with np.errstate(invalid="ignore"):
        got = trig_interpolate(grid, vals, theta)
        want = modulo_gather_trig_interpolate(grid, vals, theta)
    assert np.shape(got) == np.shape(want) == np.shape(theta)
    assert np.array_equal(got, want, equal_nan=True)


def test_trig_interpolate_scratch_does_not_grow_with_targets():
    # targets are summed in blocks of NUFFT_BLOCK in buffers reused per
    # call, so a large call holds little beyond its own output
    grid = CircleGrid(1024)
    rng = np.random.default_rng(1024)
    vals = rng.standard_normal(grid.n_samples) + 1j * rng.standard_normal(grid.n_samples)
    theta = rng.uniform(-4.0, 4.0, 65536)
    trig_interpolate(grid, vals, theta[:1])  # numpy's first-call caches are not the kernel's
    tracemalloc.start()
    try:
        out = trig_interpolate(grid, vals, theta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * out.nbytes


@pytest.mark.parametrize("values", [np.arange(10.0), np.arange(6.0), np.ones((2, 8))],
                         ids=["too-many", "too-few", "2-D"])
def test_trig_interpolate_refuses_values_off_the_grid(values):
    shape = re.escape(f"values shape {values.shape} does not match grid (8,)")
    with pytest.raises(ValueError, match=shape):
        trig_interpolate(CircleGrid(8), values, 0.3)


@pytest.mark.parametrize("n", [4, 16, 1024, 2048])
def test_es_deconvolution_matches_fine_midpoint_rule(n):
    # K^(2 pi k / m) = 2 int_0^W K(t) cos(2 pi k t / m) dt by 4096 midpoint nodes
    m, w = NUFFT_OVERSAMPLING * n, NUFFT_HALF_WIDTH
    step = w / 4096
    t = step * (np.arange(4096) + 0.5)
    kernel = np.exp(_ES_BETA * (np.sqrt(1.0 - (t / w) ** 2) - 1.0))
    k = np.arange(-(n // 2), n // 2 + 1)
    want = 2.0 * step * (np.cos(np.outer(2.0 * np.pi * k / m, t)) @ kernel)
    factor = _es_deconvolution(n)
    assert not factor.flags.writeable
    assert np.max(np.abs((m / factor) / want - 1.0)) <= 1e-13


def test_first_trig_interpolate_on_new_n_holds_small_temporaries():
    # the kernel transform of a new n adds no temporary above 64 KiB to
    # what a warm call holds (its fine grid, block buffers and output)
    n = 2048
    grid = CircleGrid(n)
    rng = np.random.default_rng(n)
    vals = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    theta = rng.uniform(-4.0, 4.0, n)
    trig_interpolate(grid, vals, theta)  # numpy's FFT plans are not the kernel's

    def traced_peak():
        tracemalloc.start()
        try:
            trig_interpolate(grid, vals, theta)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    warm = traced_peak()
    _es_deconvolution.cache_clear()
    assert traced_peak() <= warm + 64 * 1024
    assert _es_deconvolution.cache_info().misses == 1


def test_trig_interpolate_non_finite_angle_is_nan():
    grid = CircleGrid(8)
    with np.errstate(invalid="ignore"):
        got = trig_interpolate(grid, np.arange(8.0), np.array([np.nan, np.inf, -np.inf, 0.3]))
    assert np.all(np.isnan(got[:3])) and np.isfinite(got[3])


def test_signal_call_without_evaluator_interpolates():
    t = GRID.nodes
    sig = CircleSignal(GRID, np.cos(2 * t))
    probe = np.array([0.1, 0.2, -1.0])
    assert np.max(np.abs(sig(probe) - np.cos(2 * probe))) < 1e-12


def test_inner_product_orthonormal_modes():
    t = GRID.nodes
    e1 = CircleSignal(GRID, np.exp(2j * t) / np.sqrt(np.pi))
    e2 = CircleSignal(GRID, np.exp(4j * t) / np.sqrt(np.pi))
    assert e1.inner(e1) == pytest.approx(1.0, abs=1e-12)
    assert abs(e1.inner(e2)) < 1e-12


def test_generator_commutators():
    """The frozen structure constants of the realized algebra:

    [gen_a, gen_b]      = i gen_b
    [gen_a, gen_theta]  = -i (2 gen_b + gen_theta)
    [gen_b, gen_theta]  = 2 i gen_a
    """
    f = band_limited(31)

    def comm(x, y, g):
        return generator(x, generator(y, g)).values - generator(y, generator(x, g)).values

    ab = comm("a", "b", f)
    assert np.max(np.abs(ab - 1j * generator("b", f).values)) < 1e-8

    at = comm("a", "theta", f)
    want = -1j * (2.0 * generator("b", f).values + generator("theta", f).values)
    assert np.max(np.abs(at - want)) < 1e-8

    bt = comm("b", "theta", f)
    assert np.max(np.abs(bt - 2j * generator("a", f).values)) < 1e-8


def test_casimir_scalar_on_modes():
    # the invariant multiplies every mode by alpha(1 - alpha) = 1/4 at s = 0
    t = GRID.nodes
    ratios = []
    for n in range(-12, 13):
        f = CircleSignal(GRID, np.exp(2j * n * t))
        out = casimir_apply(f)
        ratios.append(np.mean(out.values / f.values))
    ratios = np.array(ratios)
    assert np.max(np.abs(ratios - 0.25)) < 1e-8
    assert np.max(np.abs(ratios - ratios.mean())) < 1e-8


def test_casimir_scalar_off_principal_axis():
    # at s != 0 the scalar moves to alpha(1-alpha) = 1/4 + s^2
    p = RepParams(s=0.7)
    t = GRID.nodes
    f = CircleSignal(GRID, np.exp(2j * 3 * t))
    out = casimir_apply(f, p)
    ratio = np.mean(out.values / f.values)
    assert ratio == pytest.approx(0.25 + 0.49, abs=1e-8)


def test_the_aliasing_tail_slice_is_the_bins_above_a_quarter():
    # _checked_spectrum sums u[n//4 + 1 : n - n//4]: the bins |k| > n/4, in FFT order, for every n
    for n in range(4, 1025):
        want = np.flatnonzero(np.abs(_signed_freqs(n)) > n // 4)
        assert np.array_equal(np.arange(n)[n // 4 + 1:n - n // 4], want), n


def test_generator_rejects_aliased_input():
    n = 64
    grid = CircleGrid(n)
    t = grid.nodes
    f = CircleSignal(grid, np.exp(2j * (n // 4 + 3) * t))  # above the safe band
    with pytest.raises(AliasingError):
        generator("theta", f)


def test_generator_theta_is_rotation_derivative():
    gamma = gauss_bump()
    h = 1e-6
    # d/dvartheta U(1, vartheta) at 0 equals -d/dtheta, i.e. i * gen_theta
    plus = rep_action(gamma, 1.0, h).values
    minus = rep_action(gamma, 1.0, -h).values
    fd = (plus - minus) / (2 * h)
    spectral = generator("theta", gamma).values
    assert np.max(np.abs(fd - 1j * spectral)) < 1e-4


def test_generator_a_is_dilation_derivative():
    gamma = gauss_bump()
    h = 1e-6
    # d/dt U(e^t, 0) at t = 0, against the closed-form generator
    plus = rep_action(gamma, np.exp(h), 0.0).values
    minus = rep_action(gamma, np.exp(-h), 0.0).values
    fd = (plus - minus) / (2 * h)
    spectral = generator("a", gamma).values
    assert np.max(np.abs(fd - 1j * spectral)) < 1e-4


def test_grid_nodes_are_exactly_odd():
    # the coefficient table folds the chart at u = 0, so nodes[N-1-k] must be -nodes[k] bit for bit.
    # The form -pi/2 + pi (k + 1/2)/N rounds the same nodes differently: it is up to 2.5 ulps of pi/2 off
    # in extended precision, and the two forms differ by up to 3 ulps of pi/2 (6.7e-16, first at n = 188)
    for n in range(4, 4097, 2):
        nodes = CircleGrid(n).nodes
        assert np.array_equal(nodes[::-1], -nodes), n
        old = -np.pi / 2 + np.pi * (np.arange(n) + 0.5) / n
        assert np.max(np.abs(nodes - old)) <= 3 * np.spacing(np.pi / 2), n


def test_grid_validation():
    with pytest.raises(ValueError):
        CircleGrid(5)
    with pytest.raises(ValueError):
        CircleGrid(2)


def test_signal_validation():
    with pytest.raises(ValueError):
        CircleSignal(GRID, np.zeros(100))
    bad = np.zeros(GRID.n_samples)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        CircleSignal(GRID, bad)

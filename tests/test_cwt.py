"""Transform layer: mode coefficients, admissibility, analysis, reconstruction."""

import dataclasses
import hashlib
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet import (
    AliasingError,
    CircleGrid,
    CircleSignal,
    DecayError,
    ScaleGrid,
    analyze,
    dilated_coeffs,
    fourier_coeffs,
    frame_bounds,
    lambda_sequence,
    make_dog,
    mexican_hat,
    mode_synthesis,
    reanalysis_error,
    rep_action,
    stereo_lift,
    synthesize,
    weak_admissibility,
)
from circlet import cwt, line
from circlet.circle import dilate_angle, multiplier
from circlet.cwt import MODE_FLOOR, TABLE_MEMO_SIZE, FourierCoeffs

GRID = CircleGrid(1024)


@pytest.fixture(scope="module")
def dog():
    return make_dog(2.0)


@pytest.fixture(scope="module")
def dog_report(dog):
    return lambda_sequence(dog, n_max=32)


def two_mode_signal():
    t = GRID.nodes
    return CircleSignal(GRID, np.cos(2 * t) + 0.5 * np.sin(4 * t))


def test_fourier_coeffs_cosine():
    # cos(2 theta) = (e^{2 i theta} + e^{-2 i theta})/2, so both +-1
    # coefficients against e^{2 i n theta}/sqrt(pi) equal sqrt(pi)/2
    t = GRID.nodes
    psi = CircleSignal(GRID, np.cos(2 * t))
    c = fourier_coeffs(psi, 4)
    assert c[1] == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)
    assert c[-1] == pytest.approx(np.sqrt(np.pi) / 2, abs=1e-12)
    assert abs(c[0]) < 1e-12
    assert abs(c[2]) < 1e-12


def test_fourier_round_trip():
    psi = two_mode_signal()
    c = fourier_coeffs(psi, 8)
    back = mode_synthesis(GRID, c)
    assert np.max(np.abs(back.values - psi.values)) < 1e-12


def test_fourier_parseval():
    psi = two_mode_signal()
    c = fourier_coeffs(psi, 8)
    assert np.sum(np.abs(c.values) ** 2) == pytest.approx(psi.norm() ** 2, rel=1e-12)


def test_fourier_coeffs_rejects_aliased():
    n = 64
    grid = CircleGrid(n)
    t = grid.nodes
    psi = CircleSignal(grid, np.exp(2j * 20 * t))
    with pytest.raises(AliasingError):
        fourier_coeffs(psi, 16)


def test_default_n_max_follows_grid():
    # min(DEFAULT_N_MAX, n_samples/4), as analyze uses
    psi = CircleSignal(CircleGrid(128), np.cos(2 * CircleGrid(128).nodes))
    assert fourier_coeffs(psi).n_max == 32
    assert analyze(psi, make_dog(2.0, grid=psi.grid), scales=ScaleGrid(0.5, 2.0, 3)).n_max == 32
    assert dilated_coeffs(make_dog(2.0, grid=psi.grid), ScaleGrid(0.5, 2.0, 3)).shape == (65, 3)


def test_fourier_coeffs_caps_n_max():
    psi = two_mode_signal()
    with pytest.raises(ValueError):
        fourier_coeffs(psi, GRID.n_samples // 4 + 1)


def test_coarse_wavelet_refuses_modes_its_grid_does_not_resolve():
    # a 1024-sample signal runs at n_max 64; a 128-sample wavelet resolves 32
    psi = CircleSignal(CircleGrid(1024), np.cos(2 * CircleGrid(1024).nodes))
    coarse = make_dog(2.0, grid=CircleGrid(128))
    with pytest.raises(ValueError, match=r"^n_max 64 exceeds n_samples/4 = 32$"):
        analyze(psi, coarse, scales=ScaleGrid(0.5, 2.0, 3))
    with pytest.raises(ValueError, match=r"^n_max 33 exceeds n_samples/4 = 32$"):
        dilated_coeffs(coarse, ScaleGrid(0.5, 2.0, 3), 33)
    assert analyze(psi, coarse, scales=ScaleGrid(0.5, 2.0, 3), n_max=32).n_max == 32


@pytest.mark.parametrize("n_max", [0, -1, -3])
def test_n_max_below_one_refused(dog, n_max):
    psi = two_mode_signal()
    for call in (lambda: fourier_coeffs(psi, n_max),
                 lambda: dilated_coeffs(dog, ScaleGrid(0.5, 2.0, 3), n_max),
                 lambda: lambda_sequence(dog, n_max=n_max),
                 lambda: analyze(psi, dog, scales=ScaleGrid(0.5, 2.0, 3), n_max=n_max)):
        with pytest.raises(ValueError, match=rf"^n_max must be at least 1, got {n_max}$"):
            call()


def test_dilated_coeffs_match_acted_signal(dog):
    """The scale-resolved coefficients computed in the undilated variable
    must agree with literally transforming the wavelet and reading its
    modes, wherever the latter is alias-free."""
    sc = ScaleGrid(0.5, 2.0, 5)
    via_substitution = dilated_coeffs(dog, sc, 16)
    for j, a in enumerate(sc.nodes):
        acted = rep_action(dog, float(a), 0.0)
        literal = fourier_coeffs(acted, 16)
        assert np.max(np.abs(via_substitution[:, j] - literal.values)) < 1e-10


def test_dilated_coeffs_identity_scale(dog):
    sc = ScaleGrid(0.999999, 1.000001, 3)
    mid = dilated_coeffs(dog, sc, 8)[:, 1]
    plain = fourier_coeffs(dog, 8)
    assert np.max(np.abs(mid - plain.values)) < 1e-5


def test_weak_integral_balanced(dog):
    assert abs(weak_admissibility(dog)) < 1e-10


def test_weak_integral_unbalanced():
    # the historical single-weight difference keeps a finite weak integral:
    # (1 - sqrt(alpha)) times the bump's own integral
    unb = make_dog(2.0, balanced=False)
    w = weak_admissibility(unb)
    assert w.real == pytest.approx(-0.6313067781276809, abs=1e-9)
    bump = CircleSignal.from_evaluator(GRID, lambda t: np.exp(-np.tan(t) ** 2))
    assert w.real == pytest.approx((1 - np.sqrt(2)) * weak_admissibility(bump).real, rel=1e-10)


def test_weak_integral_decay_guard():
    t = GRID.nodes
    flat = CircleSignal(GRID, np.ones_like(t, dtype=complex))
    with pytest.raises(DecayError):
        weak_admissibility(flat)
    value, ok = weak_admissibility(flat, strict=False)
    assert not ok
    assert np.isfinite(value.real)


@pytest.mark.parametrize("off, verdict", [(3e-9, True), (1e-8, False)])
@pytest.mark.filterwarnings("ignore:mode integrals have not plateaued")
def test_weak_verdict_is_the_same_at_every_dilation(dog, off, verdict):
    # the balance is off by `off` bumps; the weak integral grows like sqrt(a)
    # under dilation, and so does the l1 size of its integrand
    bump = CircleSignal.from_evaluator(GRID, lambda t: np.exp(-np.tan(t) ** 2))
    gamma = CircleSignal.from_evaluator(GRID, lambda t: dog.evaluator(t) + off * bump.evaluator(t))
    for a in (0.25, 1.0, 4.0):
        report = lambda_sequence(rep_action(gamma, a, 0.0), ScaleGrid(1e-2, 1e2, 40), 16)
        assert report.weak_ok is verdict


def test_lambda_sequence_balanced_dog(dog_report):
    rep = dog_report
    assert rep.admissible
    assert rep.weak_ok
    assert np.all(rep.lambdas > 0.0)
    assert np.isfinite(rep.sup_lambda)
    # frozen profile of the alpha = 2 balanced difference at 1024 samples
    assert rep.lambda_of(0) == pytest.approx(0.0635327747, abs=1e-6)
    assert rep.lambda_of(8) == pytest.approx(0.1609331784, abs=1e-6)
    assert rep.lambda_of(32) == pytest.approx(0.1591827, abs=1e-4)


def test_lambda_symmetry(dog_report):
    # real wavelet: conjugation flips the mode sign, |c_n| = |c_{-n}|
    for n in (1, 5, 17, 32):
        assert dog_report.lambda_of(n) == pytest.approx(dog_report.lambda_of(-n), rel=1e-10)


def test_lambda_rejects_constant():
    t = GRID.nodes
    flat = CircleSignal(GRID, np.ones_like(t, dtype=complex))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = lambda_sequence(flat, n_max=8)
    assert not rep.admissible
    assert not rep.weak_ok


def test_lambda_warns_without_plateau(dog):
    # a tiny mode budget cannot have settled; the report must say so
    with pytest.warns(RuntimeWarning, match="plateau"):
        rep = lambda_sequence(dog, n_max=2)
    assert not rep.plateau_ok


def test_lifted_line_wavelet_is_admissible():
    lifted = stereo_lift(mexican_hat(), GRID)
    rep = lambda_sequence(lifted, n_max=32)
    assert rep.admissible
    assert abs(rep.weak_integral) < 1e-10
    # the line admissibility constant is 1; the lifted mode integrals
    # settle onto that same plateau
    assert rep.lambda_of(32) == pytest.approx(1.0, abs=5e-3)


def test_frame_bounds(dog_report):
    lo, hi = frame_bounds(dog_report)
    assert 0.0 < lo <= hi
    assert lo == pytest.approx(dog_report.inf_lambda)
    assert hi == pytest.approx(dog_report.sup_lambda)


def test_frame_bounds_warn_on_bad_report(dog):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = lambda_sequence(dog, n_max=2)
    with pytest.warns(RuntimeWarning):
        frame_bounds(rep)


def analyze_direct(psi, gamma, a, vartheta):
    """Single coefficient <U(vartheta, a) gamma | psi> by direct quadrature (oracle route)."""
    return rep_action(gamma, a, vartheta).inner(psi)


def test_analyze_matches_direct_quadrature(dog):
    psi = two_mode_signal()
    scales = ScaleGrid(0.4, 2.5, 7)
    scal = analyze(psi, dog, scales=scales, n_max=16)
    for j in (0, 3, 6):
        for i in (100, 512, 900):
            a = float(scales.nodes[j])
            vt = float(scal.angles.nodes[i])
            direct = analyze_direct(psi, dog, a, vt)
            assert abs(scal.values[j, i] - direct) < 1e-8


def test_analyze_rotation_covariance(dog):
    # rotating the signal translates the scalogram in the angle slot
    psi = two_mode_signal()
    shift = 17
    vt0 = float(GRID.spacing * shift)
    rotated = rep_action(psi, 1.0, vt0)
    scales = ScaleGrid(0.5, 2.0, 4)
    base = analyze(psi, dog, scales=scales, n_max=8)
    moved = analyze(rotated, dog, scales=scales, n_max=8)
    assert np.max(np.abs(moved.values - np.roll(base.values, shift, axis=1))) < 1e-10


def test_analyze_dilation_covariance_on_axis(dog):
    # dilating the signal slides the zero-rotation fiber along log-scale:
    # W_{U(a0) psi}(0, a) = W_psi(0, a/a0).  Off that fiber rotations and
    # dilations interleave and no plain slide exists.
    psi = CircleSignal.from_evaluator(GRID, lambda t: np.exp(-np.tan(t) ** 2) * np.cos(2 * t))
    a0 = 2.0
    dilated = rep_action(psi, a0, 0.0)
    for a in (0.5, 1.0, 3.0):
        lhs = analyze_direct(dilated, dog, a, 0.0)
        rhs = analyze_direct(psi, dog, a / a0, 0.0)
        assert abs(lhs - rhs) < 1e-10


def test_analyze_holds_one_scalogram_sized_array(dog):
    # the mode sum is transformed in place, so analyze's transient memory
    # stays well below a second copy of its output
    psi = two_mode_signal()
    scales = ScaleGrid(1e-3, 1e3, 400)
    dilated_coeffs(dog, scales)  # the memoised table is not analyze's transient
    tracemalloc.start()
    try:
        scal = analyze(psi, dog, scales=scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * scal.values.nbytes


def test_synthesize_holds_no_scalogram_sized_array(dog):
    # the scalogram meets only a block-sized FFT buffer; every weight sits on
    # a (scales, modes) kernel, so synthesis holds well under a third of it
    scales = ScaleGrid(1e-3, 1e3, 400)
    report = lambda_sequence(dog, scales)  # carries its table: synthesize builds none
    scal = analyze(two_mode_signal(), dog, scales=scales)
    tracemalloc.start()
    try:
        synthesize(scal, dog, report)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * scal.values.nbytes


def test_analyze_holds_no_scalogram_sized_array(dog):
    # analyze keeps the (scales, modes) coefficients; the angle samples wait for their first read
    psi = two_mode_signal()
    scales = ScaleGrid(1e-3, 1e3, 400)
    dilated_coeffs(dog, scales)  # the memoised table is not analyze's transient
    tracemalloc.start()
    try:
        scal = analyze(psi, dog, scales=scales)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.2 * scal.values.nbytes


def _peak(fn) -> int:
    """The tracemalloc peak of fn()."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analyze_holds_its_modes_and_no_transposed_copy(dog):
    # the modes are made from the table's contiguous rows: no transposing copy, no broadcast buffers
    scal = analyze(two_mode_signal(), dog)  # the memoised table is not analyze's transient
    assert _peak(lambda: analyze(two_mode_signal(), dog)) <= 1.1 * scal.modes.nbytes


def test_synthesis_and_its_self_check_hold_no_array_of_the_modes_size(dog):
    report = lambda_sequence(dog)  # carries its table at the default sizes
    scal = analyze(two_mode_signal(), dog)
    rec = synthesize(scal, dog, report)
    assert _peak(lambda: synthesize(scal, dog, report)) < 0.25 * scal.modes.nbytes
    assert _peak(lambda: reanalysis_error(scal, dog, report, rec)) < 0.25 * scal.modes.nbytes


@st.composite
def weighted_rows_inputs(draw):
    """held, table, weights, acc and transform for cwt._weighted_rows, with its block of rows."""
    rows = draw(st.sampled_from([cwt.SPECTRUM_BLOCK, line.SPECTRA_BLOCK]))
    count = draw(st.one_of(st.just(1), st.integers(1, 4).map(lambda k: k * rows),
                           st.integers(2, 4 * rows).filter(lambda c: c % rows)))
    width, real = draw(st.integers(1, 40)), draw(st.booleans())
    transform = draw(st.sampled_from([None, np.fft.fft] + ([np.fft.rfft] if real else [])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    held = rng.normal(size=(count, width)) + (0.0 if real else 1j * rng.normal(size=(count, width)))
    out_width = width // 2 + 1 if transform is np.fft.rfft else width
    table = rng.normal(size=(count, out_width)) + 1j * rng.normal(size=(count, out_width))
    acc = rng.normal(size=out_width) + 1j * rng.normal(size=out_width)
    return held, table, rng.uniform(0.0, 2.0, count), acc, transform, rows


@settings(max_examples=60, deadline=None, derandomize=True)
@given(weighted_rows_inputs())
def test_weighted_rows_is_the_naive_weighted_sum(inputs):
    held, table, weights, acc, transform, rows = inputs
    spectra = held if transform is None else transform(held, axis=-1)
    want = acc + np.einsum("s,sm,sm->m", weights, table, spectra)
    scale = np.abs(acc) + np.einsum("s,sm,sm->m", weights, np.abs(table), np.abs(spectra))
    cwt._weighted_rows(held, table, weights, acc, rows, transform)
    assert np.all(np.abs(acc - want) <= 1e-14 * scale)


def test_analyze_values_are_the_mode_sum_made_on_first_read(dog):
    psi = two_mode_signal()
    scales = ScaleGrid(1e-2, 1e2, 40)
    scal = analyze(psi, dog, scales=scales, n_max=32)
    assert "values" not in vars(scal)
    # the eager analysis: the mode sum of conj(c_n(a)) psi_n, bit for bit
    want = cwt._mode_sum(np.conj(dilated_coeffs(dog, scales, 32).T) * fourier_coeffs(psi, 32).values, GRID)
    assert scal.values.tobytes() == want.tobytes()
    assert scal.values is scal.values
    with pytest.raises(ValueError, match="read-only"):
        scal.values[0, 0] = 0.0


def test_value_built_scalogram_takes_its_modes_on_first_read(dog):
    scal = analyze(two_mode_signal(), dog, n_max=32)
    copy = dataclasses.replace(scal, values=np.array(scal.values))
    assert "modes" not in vars(copy)
    assert np.max(np.abs(copy.modes - scal.modes)) <= 1e-14 * np.max(np.abs(scal.modes))
    assert not copy.modes.flags.writeable
    assert copy.modes is copy.modes


def test_analyze_refuses_angles_too_coarse_for_the_band_at_the_call(dog):
    with pytest.raises(ValueError, match="n_max 32 exceeds n_samples/4 = 16"):
        analyze(two_mode_signal(), dog, scales=ScaleGrid(1e-2, 1e2, 40), n_max=32, angles=CircleGrid(64))


def test_scalogram_energy_identity(dog, dog_report):
    psi = two_mode_signal()
    scal = analyze(psi, dog, n_max=16)
    c = fourier_coeffs(psi, 16)
    lam = np.array([dog_report.lambda_of(n) for n in range(-16, 17)])
    diagonal = np.pi * float(np.sum(lam * np.abs(c.values) ** 2))
    assert scal.energy() == pytest.approx(diagonal, rel=1e-10)


def test_round_trip(dog, dog_report):
    psi = two_mode_signal()
    scal = analyze(psi, dog, n_max=16)
    rec = synthesize(scal, dog, dog_report)
    err = np.sqrt(GRID.spacing * np.sum(np.abs(rec.values - psi.values) ** 2)) / psi.norm()
    assert err < 1e-10


def test_round_trip_improves_with_scale_range(dog, dog_report):
    psi = two_mode_signal()
    errs = []
    for a_min, a_max in ((1e-1, 1e1), (1e-2, 1e2), (1e-3, 1e3)):
        scal = analyze(psi, dog, scales=ScaleGrid(a_min, a_max, 400), n_max=16)
        rec = synthesize(scal, dog, dog_report)
        errs.append(np.sqrt(GRID.spacing * np.sum(np.abs(rec.values - psi.values) ** 2)) / psi.norm())
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-2


def test_synthesize_skips_dead_modes(dog, dog_report):
    # a mode floor high enough to kill everything returns the zero signal
    psi = two_mode_signal()
    scal = analyze(psi, dog, n_max=8)
    rec = synthesize(scal, dog, dog_report, mode_floor=10.0)
    assert np.max(np.abs(rec.values)) == 0.0


def test_make_dog_validation():
    with pytest.raises(ValueError):
        make_dog(1.0)
    with pytest.raises(ValueError):
        make_dog(-2.0)


def test_scale_grid_weights_integrate_power_law():
    # int_{a0}^{a1} a^{-2} da computed by the grid's own rule
    sc = ScaleGrid(1e-2, 1e2, 4000)
    got = float(sc.integrate_da_over_a2(np.ones(sc.count)))
    want = 1.0 / 1e-2 - 1.0 / 1e2
    assert got == pytest.approx(want, rel=1e-5)


def test_fourier_coeffs_container():
    c = FourierCoeffs(2, np.arange(5, dtype=complex))
    assert c[-2] == 0.0
    assert c[2] == 4.0
    with pytest.raises(IndexError):
        c[3]
    with pytest.raises(ValueError):
        FourierCoeffs(3, np.zeros(5, dtype=complex))


def test_lambda_sequence_caps_n_max(dog):
    with pytest.raises(ValueError, match="n_samples/4"):
        lambda_sequence(dog, n_max=GRID.n_samples // 4 + 1)


# Reference implementations: direct per-scale and per-mode loops, against
# which the memoised table and the FFT transforms are checked.

def loop_dilated_coeffs(gamma, scales, n_max):
    u = gamma.grid.nodes
    n = gamma.grid.n_samples
    out = np.empty((2 * n_max + 1, scales.count), dtype=complex)
    for j, a in enumerate(scales.nodes):
        p = ((np.sqrt(np.pi) / n) * np.sqrt(multiplier(a, u)) * gamma.values).astype(complex)
        z = np.exp(-2j * dilate_angle(u, a))
        out[n_max, j] = p.sum()
        q = p.copy()
        for m in range(1, n_max + 1):
            p = p * z
            out[n_max + m, j] = p.sum()
            q = q * np.conj(z)
            out[n_max - m, j] = q.sum()
    return out


def loop_mode_synthesis(grid, coeffs):
    vals = np.zeros(grid.n_samples, dtype=complex)
    for n, c in zip(coeffs.ns, coeffs.values):
        vals += (c / np.sqrt(np.pi)) * np.exp(2j * n * grid.nodes)
    return vals


def loop_analyze(psi, gamma, scales, n_max, angles):
    ph = fourier_coeffs(psi, n_max)
    cg = loop_dilated_coeffs(gamma, scales, n_max)
    out = np.zeros((scales.count, angles.n_samples), dtype=complex)
    for idx, n in enumerate(ph.ns):
        out += np.outer(np.conj(cg[idx]) * ph.values[idx], np.exp(2j * n * angles.nodes))
    return out


def loop_synthesize(scal, gamma, report, mode_floor=MODE_FLOOR):
    n_max = min(report.n_max, scal.n_max)
    cg = loop_dilated_coeffs(gamma, scal.scales, n_max)
    psi_hat = np.zeros(2 * n_max + 1, dtype=complex)
    for idx, m in enumerate(range(-n_max, n_max + 1)):
        lam = report.lambda_of(m)
        if lam <= mode_floor * report.sup_lambda:
            continue
        inner = scal.angles.spacing * (scal.values @ np.exp(-2j * m * scal.angles.nodes))
        psi_hat[idx] = scal.scales.integrate_da_over_a2(cg[idx] * inner) / (np.pi * lam)
    return loop_mode_synthesis(scal.angles, FourierCoeffs(n_max, psi_hat))


def rel_gap(got, want):
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def oracle_wavelet(dog, kind):
    """The even real dog, a rotated (real, not even) copy, or a complex one.

    Only the complex wavelet lacks the symmetry c_{-n} = conj(c_n); only
    the rotated one has complex c_n with that symmetry.
    """
    if kind == "rotated":
        return CircleSignal(GRID, rep_action(dog, 1.0, 0.3).values.real)
    if kind == "complex":
        return CircleSignal(GRID, dog.values * np.exp(2j * GRID.nodes))
    return dog


WAVELET_KINDS = ["even", "rotated", "complex"]


ORACLE_SCALES = ScaleGrid(1e-2, 1e2, 40)


@pytest.mark.parametrize("kind", WAVELET_KINDS)
@pytest.mark.parametrize("n_max", [8, 32, 64])
def test_dilated_coeffs_match_loop_oracle(dog, kind, n_max):
    gamma = oracle_wavelet(dog, kind)
    got = dilated_coeffs(gamma, ORACLE_SCALES, n_max)
    assert rel_gap(got, loop_dilated_coeffs(gamma, ORACLE_SCALES, n_max)) <= 1e-13


@st.composite
def fold_inputs(draw):
    """A wavelet on an even grid of 4...1024 points, a band 1...N/4 and a scale grid within [1e-6, 1e6]
    whose count is no multiple of the table's block."""
    n = 2 * draw(st.integers(2, 512))
    n_max = draw(st.integers(1, n // 4))
    lo = draw(st.floats(-6.0, 5.5))
    scales = ScaleGrid(10.0 ** lo, 10.0 ** draw(st.floats(lo + 0.5, 6.0)),
                       draw(st.integers(2, 2 * cwt.TABLE_BLOCK + 8).filter(lambda c: c % cwt.TABLE_BLOCK)))
    grid, kind = CircleGrid(n), draw(st.sampled_from(["even", "rolled", "complex"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.exp(-rng.uniform(0.2, 5.0) * np.tan(grid.nodes) ** 2)  # even on the odd nodes
    if kind == "rolled":
        values = np.roll(values, rng.integers(1, n))
    elif kind == "complex":
        values = rng.normal(size=n) + 1j * rng.normal(size=n)
    return CircleSignal(grid, values), scales, n_max


@settings(max_examples=30, deadline=None, derandomize=True)
@given(fold_inputs())
def test_folded_table_matches_the_full_grid_loop_oracle(inputs):
    # the table sums each power over the positive half of the chart, folding in the mirrored nodes
    gamma, scales, n_max = inputs
    assert rel_gap(dilated_coeffs(gamma, scales, n_max), loop_dilated_coeffs(gamma, scales, n_max)) <= 1e-13


@pytest.mark.parametrize("kind", WAVELET_KINDS)
def test_dilated_coeffs_obey_the_generator_equation(dog, kind):
    # the dilation generator (i/2) sin 2theta d/dtheta + (i/2) cos 2theta is tridiagonal on the modes, so
    #     d c_m / d ln a = (1/2) [(m + 1/2) c_{m+1} - (m - 1/2) c_{m-1}]   for |m| < n_max,
    # an oracle from the group, not from the kernel's formula; a 4th-order central stencil in ln a gives the
    # left side (residual ~5e-7 of each column's largest |c|; the equation with the other sign reads 2.6-4.1).
    # The grid stops at a = 10: above a ~ 12.7 the 1024-point grid no longer resolves the kernel, which
    # varies on a width ~1/a around u = 0, and the table fails the equation by O(1) (ROADMAP item 11).
    scales = ScaleGrid(0.1, 10.0, 401)
    c = dilated_coeffs(oracle_wavelet(dog, kind), scales, 64)
    deriv = (c[1:-1, :-4] - 8 * c[1:-1, 1:-3] + 8 * c[1:-1, 3:-1] - c[1:-1, 4:]) / (12 * scales.spacing)
    m = np.arange(-63, 64)[:, None]
    rhs = 0.5 * ((m + 0.5) * c[2:, 2:-2] - (m - 0.5) * c[:-2, 2:-2])
    assert np.max(np.abs(deriv - rhs) / np.max(np.abs(c[:, 2:-2]), axis=0)) <= 1e-6


@pytest.mark.parametrize("kind", WAVELET_KINDS)
@pytest.mark.parametrize("n_max", [8, 32, 64])
@pytest.mark.parametrize("n_angles", [1024, 96, 16])
def test_analyze_synthesize_match_loop_oracle(dog, kind, n_max, n_angles):
    # 96 and 16 angles differ from the signal's grid; a band wider than
    # n_angles/4 does not fit the angle grid and is refused
    gamma = oracle_wavelet(dog, kind)
    rng = np.random.default_rng(n_max + n_angles)
    ns = np.arange(-8, 9)
    c = rng.normal(size=ns.size) + 1j * rng.normal(size=ns.size)
    psi = CircleSignal(GRID, np.exp(2j * np.outer(GRID.nodes, ns)) @ c)
    angles = CircleGrid(n_angles)
    if n_max > n_angles // 4:
        with pytest.raises(ValueError, match=rf"^n_max {n_max} exceeds n_samples/4 = {n_angles // 4}$"):
            analyze(psi, gamma, scales=ORACLE_SCALES, n_max=n_max, angles=angles)
        return
    scal = analyze(psi, gamma, scales=ORACLE_SCALES, n_max=n_max, angles=angles)
    assert rel_gap(scal.values, loop_analyze(psi, gamma, ORACLE_SCALES, n_max, angles)) <= 1e-13
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = lambda_sequence(gamma, n_max=n_max)
    rec = synthesize(scal, gamma, report)
    assert rel_gap(rec.values, loop_synthesize(scal, gamma, report)) <= 1e-13


def test_synthesize_mode_floor_matches_loop_oracle(dog, dog_report):
    # a floor at the median mode integral skips about half of the modes
    psi = two_mode_signal()
    scal = analyze(psi, dog, scales=ORACLE_SCALES, n_max=16)
    lam = dog_report.lambdas[32 - 16:32 + 17]
    floor = float(np.median(lam)) / dog_report.sup_lambda
    assert 0 < np.sum(lam <= floor * dog_report.sup_lambda) < lam.size
    rec = synthesize(scal, dog, dog_report, mode_floor=floor)
    want = loop_synthesize(scal, dog, dog_report, mode_floor=floor)
    assert rel_gap(rec.values, want) <= 1e-13


@pytest.mark.parametrize("n_angles", [1024, 16])
def test_mode_synthesis_matches_loop_oracle(n_angles):
    rng = np.random.default_rng(n_angles)
    coeffs = FourierCoeffs(32, rng.normal(size=65) + 1j * rng.normal(size=65))
    grid = CircleGrid(n_angles)
    if n_angles < 4 * 32:
        with pytest.raises(ValueError, match=rf"^n_max 32 exceeds n_samples/4 = {n_angles // 4}$"):
            mode_synthesis(grid, coeffs)
        return
    got = mode_synthesis(grid, coeffs).values
    assert rel_gap(got, loop_mode_synthesis(grid, coeffs)) <= 1e-13


def cold_dilated_coeffs(gamma, scales, n_max):
    """The table built afresh, with the memo emptied first: what any hit must equal bitwise."""
    cwt._memo_table.cache_clear()
    return np.array(dilated_coeffs(gamma, scales, n_max))


def test_dilated_coeffs_memo_follows_content(dog):
    gamma = CircleSignal(GRID, dog.values.copy())
    sc = ScaleGrid(0.5, 2.0, 5)
    first = dilated_coeffs(gamma, sc, 8)
    assert dilated_coeffs(gamma, sc, 8) is first
    gamma.values[400:600] *= 0.5  # in-place edit of the wavelet samples
    edited = dilated_coeffs(gamma, sc, 8)
    assert not np.array_equal(edited, first)
    assert np.array_equal(edited, cold_dilated_coeffs(gamma, sc, 8))
    assert rel_gap(edited, loop_dilated_coeffs(gamma, sc, 8)) <= 1e-13
    for scales, n_max in ((ScaleGrid(0.5, 3.0, 5), 8), (ScaleGrid(0.5, 2.0, 6), 8), (sc, 9)):
        fresh = dilated_coeffs(gamma, scales, n_max)
        assert fresh.shape == (2 * n_max + 1, scales.count)
        assert np.array_equal(fresh, cold_dilated_coeffs(gamma, scales, n_max))
        assert rel_gap(fresh, loop_dilated_coeffs(gamma, scales, n_max)) <= 1e-13


def test_wavelet_fingerprint_is_hashed_once_per_wavelet(dog, monkeypatch):
    gamma = CircleSignal(GRID, dog.values.copy())
    want = hashlib.sha256(b"n_samples=1024;" + gamma.values.astype("<c16").tobytes()).hexdigest()
    assert cwt.wavelet_fingerprint(gamma) == want
    # the samples the digest belongs to can no longer change under it
    with pytest.raises(ValueError, match="read-only"):
        gamma.values[0] = 1.0
    hashes = []
    monkeypatch.setattr(hashlib, "sha256", lambda *a: hashes.append(a))
    report = lambda_sequence(gamma, ScaleGrid(1e-3, 1e3, 40), 32)
    scal = analyze(two_mode_signal(), gamma, report.scales, 32)
    rec = synthesize(scal, gamma, report)
    reanalysis_error(scal, gamma, report, rec)
    assert hashes == []
    assert report.wavelet_fingerprint == scal.wavelet_fingerprint == want


def test_dilated_coeffs_table_is_read_only(dog):
    table = dilated_coeffs(dog, ScaleGrid(0.5, 2.0, 5), 8)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1.0


def test_dilated_coeffs_memo_is_bounded(dog):
    sc = ScaleGrid(0.5, 2.0, 3)
    for n_max in range(1, TABLE_MEMO_SIZE + 4):
        dilated_coeffs(dog, sc, n_max)
        assert cwt._memo_table.cache_info().currsize <= TABLE_MEMO_SIZE
    assert cwt._memo_table.cache_info().currsize == TABLE_MEMO_SIZE


def test_dilated_coeffs_memo_under_threads(dog):
    # more threads than memo slots, each cycling through its own tables,
    # with frequent thread switches to expose lost updates or evictions
    # racing a hit
    gamma = CircleSignal(CircleGrid(64), dog.values[::16])
    sc = ScaleGrid(0.5, 2.0, 3)
    want = {n_max: cold_dilated_coeffs(gamma, sc, n_max) for n_max in range(1, 9)}
    assert all(rel_gap(table, loop_dilated_coeffs(gamma, sc, n_max)) <= 1e-13 for n_max, table in want.items())
    errors = []

    def work(offset):
        try:
            for i in range(40):
                n_max = 1 + (offset + i) % 8
                assert np.array_equal(dilated_coeffs(gamma, sc, n_max), want[n_max])
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cwt._memo_table.cache_info().currsize <= TABLE_MEMO_SIZE


def test_report_carries_its_table(dog):
    scales = ScaleGrid(0.1, 10.0, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = lambda_sequence(dog, scales, n_max=16)
    assert report.table is dilated_coeffs(dog, scales, 16)
    assert not report.table.flags.writeable
    # a (2 n_max + 1, count) view of a C-contiguous (count, 2 n_max + 1) table: a scale's modes are one row
    assert report.table.shape == (33, 50)
    assert report.table.T.flags.c_contiguous and not report.table.T.flags.writeable


@pytest.mark.parametrize("n_max", [8, 32])
def test_synthesize_with_the_reports_table_is_bitwise(dog, dog_report, n_max):
    # the report's middle rows are the table dilated_coeffs builds, bit for bit
    scal = analyze(two_mode_signal(), dog, n_max=n_max)
    rec = synthesize(scal, dog, dog_report)
    bare = synthesize(scal, dog, dataclasses.replace(dog_report, table=None))
    assert rec.values.tobytes() == bare.values.tobytes()


def test_synthesize_on_another_grid_builds_its_table(dog, dog_report):
    # a table on the report's grid cannot serve another scalogram grid
    scales = ScaleGrid(1e-3, 1e3, 399)
    scal = analyze(two_mode_signal(), dog, scales=scales, n_max=16)
    wrong = np.ones_like(dog_report.table)
    rec = synthesize(scal, dog, dataclasses.replace(dog_report, table=wrong))
    bare = synthesize(scal, dog, dataclasses.replace(dog_report, table=None))
    assert rec.values.tobytes() == bare.values.tobytes()


def reanalysis_by_analyze(scal, gamma, rec):
    """The self check by the route it replaces: re-analyze, compare on the grid."""
    again = analyze(rec, gamma, scales=scal.scales, n_max=scal.n_max)
    return float(np.linalg.norm(again.values - scal.values) / np.linalg.norm(scal.values))


@settings(max_examples=25, deadline=None)
@given(n_angles=st.sampled_from([256, 1024]), scal_n_max=st.integers(4, 64), data=st.data(),
       log_noise=st.floats(-6.0, -1.0), seed=st.integers(0, 2**32 - 1), same_grid=st.booleans())
def test_reanalysis_error_matches_reanalysis(dog, n_angles, scal_n_max, data, log_noise, seed, same_grid):
    # a noisy scalogram, reconstructed with a report of a band at most the
    # scalogram's, on its grid (the table route) or on another one
    rng = np.random.default_rng(seed)
    grid = CircleGrid(n_angles)
    c = rng.normal(size=17) + 1j * rng.normal(size=17)
    psi = CircleSignal(grid, np.exp(2j * np.outer(grid.nodes, np.arange(-8, 9))) @ c)
    scal = analyze(psi, dog, scales=ORACLE_SCALES, n_max=scal_n_max)
    noise = rng.normal(size=scal.values.shape) + 1j * rng.normal(size=scal.values.shape)
    noisy = dataclasses.replace(scal, values=scal.values + 10.0**log_noise * np.abs(scal.values).max() * noise)
    report_n_max = data.draw(st.integers(1, scal_n_max))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = lambda_sequence(dog, ORACLE_SCALES if same_grid else ScaleGrid(1e-2, 1e2, 41), report_n_max)
    rec = synthesize(noisy, dog, report)
    want = reanalysis_by_analyze(noisy, dog, rec)
    assert abs(reanalysis_error(noisy, dog, report, rec) - want) <= 1e-9 * want


@settings(max_examples=20, deadline=None, derandomize=True)
@given(n_angles=st.sampled_from([64, 256]), scal_n_max=st.integers(4, 16), data=st.data(),
       log_outside=st.floats(-8.0, 1.0), seed=st.integers(0, 2**32 - 1))
def test_value_built_scalogram_counts_its_energy_outside_the_band(dog, n_angles, scal_n_max, data, log_outside, seed):
    # an analyzed scalogram plus rows of modes beyond its band, up to the grid's Nyquist
    rng = np.random.default_rng(seed)
    grid = CircleGrid(n_angles)
    c = rng.normal(size=9) + 1j * rng.normal(size=9)
    scal = analyze(CircleSignal(grid, np.exp(2j * np.outer(grid.nodes, np.arange(-4, 5))) @ c), dog,
                   scales=ORACLE_SCALES, n_max=scal_n_max)
    ks = np.arange(scal_n_max + 1, n_angles // 2)
    ks = np.concatenate((-ks, ks))
    beyond = (rng.normal(size=(ORACLE_SCALES.count, ks.size)) + 1j * rng.normal(size=(ORACLE_SCALES.count, ks.size)))
    beyond = beyond @ np.exp(2j * np.outer(ks, grid.nodes))
    values = scal.values + 10.0**log_outside * np.abs(scal.values).max() / np.abs(beyond).max() * beyond
    built = cwt.Scalogram(ORACLE_SCALES, grid, values, scal_n_max, scal.wavelet_fingerprint)
    direct = ORACLE_SCALES.integrate_da_over_a2(grid.spacing * np.sum(np.abs(values) ** 2, axis=1))
    assert built.energy() == pytest.approx(direct, rel=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        report = lambda_sequence(dog, ORACLE_SCALES, data.draw(st.integers(1, scal_n_max)))
    rec = synthesize(built, dog, report)
    want = reanalysis_by_analyze(built, dog, rec)
    assert abs(reanalysis_error(built, dog, report, rec) - want) <= 1e-9 * want


def test_a_zero_wavelet_has_no_plateau_to_warn_about():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = lambda_sequence(CircleSignal(GRID, np.zeros(GRID.n_samples)), ORACLE_SCALES)
        assert frame_bounds(report) == (0.0, 0.0)
    assert not report.plateau_ok and not report.admissible


def test_reanalysis_error_of_a_zero_scalogram_is_zero(dog, dog_report):
    # a zero reference reads 0.0 when the misfit is zero too, not a ZeroDivisionError
    scal = analyze(CircleSignal(GRID, np.zeros(GRID.n_samples)), dog, n_max=32)
    rec = synthesize(scal, dog, dog_report)
    assert not np.any(scal.values) and not np.any(rec.values)
    assert reanalysis_error(scal, dog, dog_report, rec) == 0.0


def test_scale_grid_makes_its_nodes_and_weights_once():
    grid = ScaleGrid(1e-3, 1e3, 400)
    nodes, weights = grid.nodes, grid.log_weights
    assert grid.nodes is nodes and grid.log_weights is weights
    assert nodes.tobytes() == np.geomspace(1e-3, 1e3, 400).tobytes()
    assert weights[0] == weights[-1] == 0.5 * grid.spacing and np.all(weights[1:-1] == grid.spacing)
    for array in (nodes, weights):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 1.0
    # the kept arrays are no part of the grid's equality or hash, memo keys of the tables
    fresh = ScaleGrid(1e-3, 1e3, 400)
    assert fresh == grid and hash(fresh) == hash(grid)
    assert "nodes" not in fresh.__dict__ and "nodes" in grid.__dict__
    assert cwt.default_scale_grid() is cwt.default_scale_grid()  # made once, as its nodes are


def test_a_scalogram_repr_makes_no_values():
    scal = analyze(two_mode_signal(), make_dog(2.0, grid=GRID), ScaleGrid(0.5, 2.0, 4))
    text = repr(scal)
    assert "values" not in scal.__dict__ and "values" not in text and "n_max=" in text

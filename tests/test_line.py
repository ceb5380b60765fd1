"""Affine transform on the line and the half-line realization."""

import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet import line
from circlet.cwt import TABLE_MEMO_SIZE
from circlet import (
    LineAdmissibility,
    LineGrid,
    LineScaleGrid,
    LineScalogram,
    LineSignal,
    LogGrid,
    RPlusFunction,
    ScaleGrid,
    affine_action,
    dilated_spectra,
    line_admissibility,
    line_analyze,
    line_synthesize,
    mexican_hat,
    rplus_action,
    spectrum,
)

GRID = LineGrid(-16.0, 16.0, 2048)


def band_signal():
    # oscillation under a Gaussian keeps the spectrum away from k = 0
    return LineSignal.from_evaluator(GRID, lambda x: np.cos(5.0 * x) * np.exp(-0.5 * x * x))


def test_grid_nodes_and_spacing():
    g = LineGrid(-2.0, 2.0, 8)
    assert g.spacing == pytest.approx(0.5)
    assert g.nodes[0] == -2.0
    assert g.nodes[-1] == pytest.approx(1.5)


def test_grid_validation():
    with pytest.raises(ValueError):
        LineGrid(1.0, -1.0, 8)
    with pytest.raises(ValueError):
        LineGrid(-1.0, 1.0, 7)


def test_spectrum_of_gaussian():
    # e^{-x^2/2} maps to e^{-k^2/2} under the unitary convention
    f = LineSignal.from_evaluator(GRID, lambda x: np.exp(-0.5 * x * x))
    sp = spectrum(f)
    k = GRID.freqs
    keep = np.abs(k) < 8.0
    assert np.max(np.abs(sp[keep] - np.exp(-0.5 * k[keep] ** 2))) < 1e-12


def test_spectrum_translation_phase():
    f = LineSignal.from_evaluator(GRID, lambda x: np.exp(-0.5 * x * x))
    g = affine_action(f, 1.0, 1.25)
    k = GRID.freqs
    keep = np.abs(k) < 8.0
    expected = spectrum(f)[keep] * np.exp(-1j * k[keep] * 1.25)
    assert np.max(np.abs(spectrum(g)[keep] - expected)) < 1e-10


def test_affine_action_unitary():
    f = band_signal()
    rng = np.random.default_rng(41)
    for _ in range(50):
        a = float(np.exp(rng.uniform(-1.5, 1.5)))
        b = float(rng.uniform(-4.0, 4.0))
        g = affine_action(f, a, b)
        assert g.norm() == pytest.approx(f.norm(), rel=1e-6)


def test_affine_action_composition():
    from circlet import AffineElement, affine_compose

    f = band_signal()
    inner, outer = AffineElement(2.0, 0.5), AffineElement(1.5, -0.25)
    two_step = affine_action(affine_action(f, inner.a, inner.b), outer.a, outer.b)
    joint = affine_compose(inner, outer)
    one_step = affine_action(f, joint.a, joint.b)
    assert joint.b == pytest.approx(-0.25 + 1.5 * 0.5)
    assert np.max(np.abs(two_step.values - one_step.values)) < 1e-12


def test_mexican_hat_admissibility_constant():
    adm = line_admissibility(mexican_hat())
    assert adm.admissible
    # the (1 - x^2) e^{-x^2/2} normalization makes the constant exactly 1
    assert adm.c_total == pytest.approx(1.0, rel=1e-2)
    assert adm.c_pos == pytest.approx(adm.c_neg, rel=1e-10)


def test_gaussian_flagged_divergent():
    g = LineSignal.from_evaluator(GRID, lambda x: np.exp(-0.5 * x * x))
    adm = line_admissibility(g)
    assert not adm.converged
    assert not adm.admissible


def line_analyze_direct(psi, gamma, a, b):
    """Single coefficient <U(a, b) gamma | psi> by direct quadrature (oracle route)."""
    return affine_action(gamma, a, b).inner(psi)


def test_analyze_matches_direct():
    f = band_signal()
    mh = mexican_hat()
    scales = LineScaleGrid(0.3, 3.0, 5)
    scal = line_analyze(f, mh, scales)
    for j in (0, 2, 4):
        for i in (512, 1024, 1500):
            a = float(scales.nodes[j])
            b = float(GRID.nodes[i])
            direct = line_analyze_direct(f, mh, a, b)
            assert abs(scal.values[j, i] - direct) < 1e-8


def test_analyze_translation_covariance():
    f = band_signal()
    mh = mexican_hat()
    scales = LineScaleGrid(0.5, 2.0, 4)
    shift = 64  # whole grid steps
    moved = affine_action(f, 1.0, shift * GRID.spacing)
    base = line_analyze(f, mh, scales)
    got = line_analyze(moved, mh, scales)
    assert np.max(np.abs(got.values - np.roll(base.values, shift, axis=1))) < 1e-10


def test_line_round_trip():
    f = band_signal()
    mh = mexican_hat()
    adm = line_admissibility(mh)
    scales = LineScaleGrid(1e-2, 1e2, 200)
    scal = line_analyze(f, mh, scales)
    rec = line_synthesize(scal, mh, adm)
    err = np.sqrt(GRID.spacing * np.sum(np.abs(rec.values - f.values) ** 2)) / f.norm()
    assert err < 1e-2


def test_line_round_trip_improves_with_scales():
    f = band_signal()
    mh = mexican_hat()
    adm = line_admissibility(mh)
    errs = []
    for a_min, a_max in ((0.5, 2.0), (0.1, 10.0), (1e-2, 1e2)):
        scal = line_analyze(f, mh, LineScaleGrid(a_min, a_max, 200))
        rec = line_synthesize(scal, mh, adm)
        errs.append(np.sqrt(GRID.spacing * np.sum(np.abs(rec.values - f.values) ** 2)) / f.norm())
    assert errs[0] > errs[1] > errs[2]


def test_complex_signal_on_the_line():
    # a packet at k0 = 4 plus a real part: a real wavelet transforms both components
    f = LineSignal.from_evaluator(
        GRID, lambda x: np.exp(4j * x - 0.5 * (x - 1.0) ** 2) + np.cos(3.0 * x) * np.exp(-x * x / 3.0))
    # the complex wavelet of test_complex_wavelet_round_trips_like_its_real_part has a full table
    odd = LineSignal.from_evaluator(GRID, lambda x: (1 - x * x + 1j * (3 * x - x**3)) * np.exp(-0.5 * x * x))
    scales = LineScaleGrid(0.3, 3.0, 5)
    for gamma in (mexican_hat(), odd):
        scal = line_analyze(f, gamma, scales)
        for j in (0, 2, 4):
            for i in (512, 1024, 1500):
                direct = line_analyze_direct(f, gamma, float(scales.nodes[j]), float(GRID.nodes[i]))
                assert abs(scal.values[j, i] - direct) < 1e-8
    mh = mexican_hat()
    rec = line_synthesize(line_analyze(f, mh, LineScaleGrid(1e-2, 1e2, 200)), mh, line_admissibility(mh))
    assert LineSignal(GRID, rec.values - f.values).norm() / f.norm() < 1e-2


def test_real_signal_and_real_wavelet_give_a_real_scalogram():
    scal = line_analyze(band_signal(), mexican_hat(), LineScaleGrid(1e-2, 1e2, 200))
    assert np.all(scal.values.imag == 0.0)


def test_line_synthesize_holds_no_scalogram_sized_array():
    # the scalogram meets only a block-sized buffer of half-spectra
    mh = mexican_hat()
    adm = line_admissibility(mh)
    scal = line_analyze(band_signal(), mh, LineScaleGrid(1e-2, 1e2, 200))
    line_synthesize(scal, mh, adm)  # the memoised table is not synthesis's transient
    tracemalloc.start()
    try:
        line_synthesize(scal, mh, adm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.06 * scal.values.nbytes

def test_one_imaginary_entry_adds_its_own_synthesis():
    # a real scalogram but for one imaginary entry: its block alone takes the
    # imaginary transform, and synthesis stays linear
    mh = mexican_hat()
    adm = line_admissibility(mh)
    scal = line_analyze(band_signal(), mh, LineScaleGrid(1e-2, 1e2, 200))
    spike = np.zeros_like(scal.values)
    spike[103, 777] = 1j
    base = line_synthesize(scal, mh, adm).values
    edited = line_synthesize(LineScalogram(scal.scales, GRID, scal.values + spike), mh, adm).values
    alone = line_synthesize(LineScalogram(scal.scales, GRID, spike), mh, adm).values
    assert np.max(np.abs(alone)) > 1e-6 * np.max(np.abs(base))  # a skipped block would show
    assert np.max(np.abs(edited - base - alone)) <= 1e-12 * np.max(np.abs(base))


def test_log_grid():
    g = LogGrid(1e-2, 1e2, 9)
    assert g.nodes[0] == pytest.approx(1e-2)
    assert g.nodes[-1] == pytest.approx(1e2)
    assert np.allclose(np.diff(np.log(g.nodes)), g.spacing)
    with pytest.raises(ValueError):
        LogGrid(1.0, 0.1, 9)


def test_rplus_action_unitary():
    grid = LogGrid(1e-3, 80.0, 2000)
    phi = RPlusFunction.from_evaluator(grid, lambda r: r * np.exp(-0.5 * r))
    rng = np.random.default_rng(43)
    for _ in range(20):
        a = float(np.exp(rng.uniform(-1.0, 1.0)))
        b = float(rng.uniform(-3.0, 3.0))
        acted = rplus_action(phi, a, b)
        assert acted.norm() == pytest.approx(phi.norm(), rel=1e-4)


def test_rplus_action_phase_and_dilation():
    grid = LogGrid(1e-3, 80.0, 2000)
    phi = RPlusFunction.from_evaluator(grid, lambda r: r * np.exp(-0.5 * r))
    acted = rplus_action(phi, 2.0, 0.7)
    r = grid.nodes
    want = np.exp(-1j * r * 0.7) * (2.0 * r) * np.exp(-0.5 * 2.0 * r)
    assert np.max(np.abs(acted.values - want)) < 1e-12


def test_mexican_hat_admissible_on_a_short_window():
    # the verdict is the weak condition: decay and zero mean, not a window-length heuristic
    adm = line_admissibility(mexican_hat(LineGrid(-8.0, 8.0, 256)))
    assert adm.converged and adm.admissible
    assert adm.c_total == pytest.approx(1.0004280687584532, rel=1e-9)
    assert line_admissibility(mexican_hat()).c_total == pytest.approx(1.0000252366267923, rel=1e-9)


def test_mexican_hat_cut_off_by_the_window_refused():
    adm = line_admissibility(mexican_hat(LineGrid(-4.0, 4.0, 128)))
    assert not adm.converged
    assert not adm.admissible


@settings(max_examples=40, deadline=None)
@given(width=st.floats(0.25, 2.0), half=st.floats(1.0, 4.0), n=st.integers(64, 1024).map(lambda m: 2 * m))
def test_line_verdict_ignores_window_and_scale(width, half, n):
    # a window of 8..32 widths that samples each width at least twice
    lo = -8.0 * half * width
    grid = LineGrid(lo, -lo, max(n, int(np.ceil(-4.0 * lo / width / 2)) * 2))
    hat = LineSignal.from_evaluator(grid, lambda x: (1 - (x / width) ** 2) * np.exp(-0.5 * (x / width) ** 2))
    gauss = LineSignal.from_evaluator(grid, lambda x: np.exp(-0.5 * (x / width) ** 2))
    assert line_admissibility(hat).admissible
    assert not line_admissibility(gauss).converged


def test_log_grid_is_the_scale_grid():
    assert LogGrid is ScaleGrid is LineScaleGrid
    g = LogGrid(1e-2, 1e2, 9)
    assert g.n_samples == g.count == 9
    assert np.allclose(g.log_weights[1:-1], g.spacing)


def dense_spectra(gamma, grid, scales):
    """sqrt(2 pi a)/h G^(a k) by the DTFT of the wavelet samples at every k, FFT order."""
    x, hw = gamma.grid.nodes, gamma.grid.spacing
    out = np.zeros((scales.count, grid.n_samples), dtype=complex)
    for row, a in zip(out, scales.nodes):
        kappa = a * grid.freqs
        keep = np.abs(kappa) <= np.pi / hw
        row[keep] = np.sqrt(a) * hw / grid.spacing * (np.exp(-1j * np.outer(kappa[keep], x)) @ gamma.values)
    return out


def l1_bound(gamma, grid, scales):
    """Per-scale bound sqrt(2 pi a)/h * h_w/sqrt(2 pi) * sum |g_j| on every table entry."""
    hw = gamma.grid.spacing
    return np.sqrt(scales.nodes) * hw / grid.spacing * np.sum(np.abs(gamma.values))


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    is_complex=st.booleans(),
    same_grid=st.booleans(),
    log_a=st.tuples(st.floats(np.log(1e-3), np.log(1e2)), st.floats(np.log(1e-3), np.log(1e2))),
    count=st.integers(2, 6),
)
def test_dilated_spectra_match_dense_dtft(seed, is_complex, same_grid, log_a, count):
    rng = np.random.default_rng(seed)
    grid = LineGrid(-float(rng.uniform(1.0, 20.0)), float(rng.uniform(1.0, 20.0)), 2 * int(rng.integers(16, 256)))
    wgrid = grid if same_grid else LineGrid(float(rng.uniform(-9.0, 3.0)), float(rng.uniform(4.0, 9.0)),
                                            2 * int(rng.integers(8, 128)))
    values = rng.normal(size=wgrid.n_samples) + (1j * rng.normal(size=wgrid.n_samples) if is_complex else 0.0)
    gamma = LineSignal(wgrid, values)
    lo, hi = sorted(np.exp(log_a))
    scales = ScaleGrid(lo, max(hi, lo * 1.01), count)
    table = dilated_spectra(gamma, grid, scales)
    assert table.shape == (count, grid.n_samples if is_complex else grid.n_samples // 2 + 1)
    # a max-relative scale would fail on rounding: at large a the true values can be ~1e-81
    gap = np.abs(table - dense_spectra(gamma, grid, scales)[:, :table.shape[1]])
    assert np.all(gap <= 1e-12 * l1_bound(gamma, grid, scales)[:, None])


def test_dilated_spectra_of_an_off_centre_window_match_dense_dtft():
    # the window's centre, 108, enters only through the phase e^{-i kappa c}
    rng = np.random.default_rng(5)
    wgrid = LineGrid(100.0, 116.0, 1024)
    scales = ScaleGrid(1e-2, 1e1, 5)
    for values in (rng.normal(size=1024), rng.normal(size=1024) + 1j * rng.normal(size=1024)):
        gamma = LineSignal(wgrid, values)
        table = dilated_spectra(gamma, GRID, scales)
        gap = np.abs(table - dense_spectra(gamma, GRID, scales)[:, :table.shape[1]])
        assert np.all(gap <= 1e-12 * l1_bound(gamma, GRID, scales)[:, None])


def test_dilated_spectra_build_scratch_is_a_fraction_of_the_table():
    # the kept targets are gridded SPECTRA_BLOCK scales at a time
    mh = mexican_hat()
    line._memo_spectra.cache_clear()
    tracemalloc.start()
    try:
        table = dilated_spectra(mh, GRID, LineScaleGrid(1e-2, 1e2, 200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - table.nbytes < 0.4 * table.nbytes


def test_dilated_spectra_of_the_mexican_hat():
    # the hat (1 - x^2) e^{-x^2/2} has G^(k) = k^2 e^{-k^2/2}
    mh = mexican_hat()
    scales = ScaleGrid(1e-3, 1e2, 60)
    table = dilated_spectra(mh, GRID, scales)
    a = scales.nodes[:, None]
    ak = a * np.abs(GRID.freqs[:GRID.n_samples // 2 + 1])
    want = np.sqrt(2.0 * np.pi * a) / GRID.spacing * ak**2 * np.exp(-0.5 * ak**2)
    want[ak > np.pi / GRID.spacing] = 0.0
    assert np.all(np.abs(table - want) <= 1e-12 * l1_bound(mh, GRID, scales)[:, None])


def test_dilated_spectra_memo_is_bounded_and_read_only():
    mh = mexican_hat(LineGrid(-8.0, 8.0, 64))
    first = dilated_spectra(mh, mh.grid, ScaleGrid(0.5, 2.0, 3))
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0, 0] = 1.0
    for count in range(3, TABLE_MEMO_SIZE + 6):
        dilated_spectra(mh, mh.grid, ScaleGrid(0.5, 2.0, count))
        assert line._memo_spectra.cache_info().currsize <= TABLE_MEMO_SIZE
    assert line._memo_spectra.cache_info().currsize == TABLE_MEMO_SIZE


def test_dilated_spectra_memo_under_threads():
    # more threads than memo slots, each cycling through its own tables,
    # with frequent thread switches to expose lost updates or evictions
    # racing a hit
    mh = mexican_hat(LineGrid(-8.0, 8.0, 64))
    grids = {count: ScaleGrid(0.5, 2.0, count) for count in range(2, 10)}
    want = {count: dense_spectra(mh, mh.grid, sc)[:, :33] for count, sc in grids.items()}
    errors = []

    def work(offset):
        try:
            for i in range(40):
                count = 2 + (offset + i) % 8
                got = dilated_spectra(mh, mh.grid, grids[count])
                assert np.all(np.abs(got - want[count]) <= 1e-12 * l1_bound(mh, mh.grid, grids[count])[:, None])
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
    assert line._memo_spectra.cache_info().currsize <= TABLE_MEMO_SIZE


def test_dilated_spectra_memo_follows_content():
    gamma = LineSignal(GRID, mexican_hat().values.copy())
    scales = ScaleGrid(0.5, 2.0, 5)
    first = dilated_spectra(gamma, GRID, scales)
    assert dilated_spectra(gamma, GRID, scales) is first
    gamma.values[900:1100] *= 0.5  # in-place edit of the wavelet samples
    edited = dilated_spectra(gamma, GRID, scales)
    assert not np.array_equal(edited, first)
    assert np.allclose(edited, dense_spectra(gamma, GRID, scales)[:, :edited.shape[1]], rtol=0, atol=1e-10)


def test_round_trip_builds_the_spectra_once():
    f = band_signal()
    mh = mexican_hat()
    scales = LineScaleGrid(0.5, 2.0, 7)
    line._memo_spectra.cache_clear()
    line_synthesize(line_analyze(f, mh, scales), mh, line_admissibility(mh))
    assert line._memo_spectra.cache_info().misses == 1


def test_complex_wavelet_round_trips_like_its_real_part():
    # hat + i (3x - x^3) e^{-x^2/2} has G^(k) = (k^2 + k^3) e^{-k^2/2}: C_+ != C_-,
    # and the spectrum at -k is not the conjugate of the one at +k
    f = band_signal()
    scales = LineScaleGrid(1e-2, 1e2, 200)
    errs = []
    for odd in (0.0, 1.0):
        gamma = LineSignal.from_evaluator(
            GRID, lambda x, odd=odd: (1 - x * x + 1j * odd * (3 * x - x**3)) * np.exp(-0.5 * x * x))
        adm = line_admissibility(gamma)
        assert adm.admissible
        rec = line_synthesize(line_analyze(f, gamma, scales), gamma, adm)
        errs.append(LineSignal(GRID, rec.values - f.values).norm() / f.norm())
    assert adm.c_pos > 10.0 * adm.c_neg
    assert errs[1] < 3.0 * errs[0] < 1e-4


def test_scales_below_the_grid_spacing_do_not_alias():
    # the circle's default scale grid reaches 31x below the line grid's spacing
    f = band_signal()
    mh = mexican_hat()
    rec = line_synthesize(line_analyze(f, mh, ScaleGrid(1e-3, 1e3, 400)), mh, line_admissibility(mh))
    assert LineSignal(GRID, rec.values - f.values).norm() / f.norm() < 1e-3



def test_one_sided_report_reconstructs_one_half():
    # a half-line constant of 0 drops that half instead of dividing by it
    f = band_signal()
    mh = mexican_hat()
    adm = line_admissibility(mh)
    scal = line_analyze(f, mh, LineScaleGrid(1e-2, 1e2, 200))
    full = np.fft.fft(line_synthesize(scal, mh, adm).values)
    half = np.fft.fft(line_synthesize(scal, mh, LineAdmissibility(adm.c_pos, adm.c_pos, 0.0, True, True)).values)
    k = GRID.freqs
    peak = np.abs(full).max()
    assert np.max(np.abs(half[k <= 0])) < 1e-12 * peak
    assert np.max(np.abs(half[k > 0] - full[k > 0])) < 1e-12 * peak

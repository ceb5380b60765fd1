"""Affine transform on the line and the half-line realization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet import (
    LineGrid,
    LineScaleGrid,
    LineSignal,
    LogGrid,
    RPlusFunction,
    ScaleGrid,
    affine_action,
    line_admissibility,
    line_analyze,
    line_analyze_direct,
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


def test_log_grid():
    g = LogGrid(1e-2, 1e2, 9)
    assert g.nodes[0] == pytest.approx(1e-2)
    assert g.nodes[-1] == pytest.approx(1e2)
    assert np.allclose(np.diff(np.log(g.nodes)), g.log_spacing)
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

"""The shared sampled-function base and the single-path group actions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import circlet
from circlet import (
    CircleGrid,
    CircleSignal,
    ContractionParams,
    GridMismatchError,
    LineGrid,
    LineSignal,
    LogGrid,
    RPlusFunction,
    affine_action,
    i_r_inverse,
    i_r_map,
    rep_action,
    rplus_action,
)

CGRID = CircleGrid(64)
LGRID = LineGrid(-16.0, 16.0, 128)
RGRID = LogGrid(1e-3, 80.0, 128)


def test_line_scale_grid_is_the_scale_grid():
    assert circlet.LineScaleGrid is circlet.ScaleGrid


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_rplus_function_refuses_non_finite_samples(bad):
    vals = np.ones(RGRID.n_samples, dtype=complex)
    vals[5] = bad
    with pytest.raises(ValueError, match="finite"):
        RPlusFunction(RGRID, vals)


def test_rplus_function_refuses_wrong_shape():
    with pytest.raises(ValueError, match="shape"):
        RPlusFunction(RGRID, np.ones(RGRID.n_samples - 1))


@pytest.mark.parametrize(
    "cls, grid",
    [(CircleSignal, CGRID), (LineSignal, LGRID), (RPlusFunction, RGRID)],
)
def test_from_evaluator_builds_the_subclass(cls, grid):
    f = cls.from_evaluator(grid, lambda x: np.exp(-np.asarray(x) ** 2))
    assert type(f) is cls
    assert f.values.dtype == complex
    assert np.array_equal(f.values, np.exp(-grid.nodes ** 2))


def test_log_grid_spacing_is_the_log_step():
    assert np.allclose(np.diff(np.log(RGRID.nodes)), RGRID.spacing)


def test_rplus_inner_matches_norm_and_checks_grids():
    phi = RPlusFunction.from_evaluator(RGRID, lambda r: r * np.exp(-0.5 * r))
    assert phi.inner(phi).real == pytest.approx(phi.norm() ** 2, rel=1e-14)
    other = RPlusFunction.from_evaluator(LogGrid(1e-2, 80.0, 128), lambda r: r * np.exp(-0.5 * r))
    with pytest.raises(GridMismatchError):
        phi.inner(other)


def test_circle_signal_reduces_angles_for_both_views():
    ev = lambda t: np.exp(-np.tan(t) ** 2) * np.cos(2 * t)
    exact = CircleSignal.from_evaluator(CGRID, ev)
    sampled = CircleSignal(CGRID, exact.values)
    t = np.array([0.3, 0.3 + np.pi, 0.3 - 2 * np.pi])
    assert np.allclose(exact(t), exact(0.3), rtol=0, atol=1e-14)
    assert np.allclose(sampled(t), sampled(0.3), rtol=0, atol=1e-12)


def _circle_source(width, exact):
    fn = lambda t: np.exp(-np.tan(t) ** 2 / width ** 2) * np.cos(2 * t)
    return CircleSignal.from_evaluator(CGRID, fn) if exact else CircleSignal(CGRID, fn(CGRID.nodes))


def _line_source(width, exact):
    fn = lambda x: np.exp(-0.5 * (np.asarray(x) / width) ** 2)
    return LineSignal.from_evaluator(LGRID, fn) if exact else LineSignal(LGRID, fn(LGRID.nodes))


def _rplus_source(width, exact):
    fn = lambda r: r * np.exp(-np.asarray(r) / width)
    return RPlusFunction.from_evaluator(RGRID, fn) if exact else RPlusFunction(RGRID, fn(RGRID.nodes))


# action name -> (source builder, action applied at group parameters (a, b))
ACTIONS = {
    "rep_action": (_circle_source, lambda s, a, b: rep_action(s, a, b)),
    "affine_action": (_line_source, lambda s, a, b: affine_action(s, a, b)),
    "rplus_action": (_rplus_source, lambda s, a, b: rplus_action(s, a, b)),
    "i_r_map": (_circle_source, lambda s, a, b: i_r_map(s, LGRID, ContractionParams(a))),
    "i_r_inverse": (_line_source, lambda s, a, b: i_r_inverse(s, CGRID, ContractionParams(a))),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(ACTIONS)),
    exact=st.booleans(),
    width=st.floats(0.5, 2.0),
    a=st.floats(0.2, 5.0),
    b=st.floats(-1.5, 1.5),
)
def test_actions_carry_an_evaluator_iff_the_input_does(name, exact, width, a, b):
    build, act = ACTIONS[name]
    src = build(width, exact)
    out = act(src, a, b)
    assert (out.evaluator is not None) == exact
    if exact:
        again = np.asarray(out.evaluator(out.grid.nodes), dtype=complex)
        assert again.tobytes() == out.values.tobytes()

"""The shared sampled-function base and the single-path group actions."""

import functools
from dataclasses import dataclass, field

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
    LaguerreBasisSpec,
    LineGrid,
    LineSignal,
    LogGrid,
    RPlusFunction,
    affine_action,
    euclidean_limit_error,
    i_r_inverse,
    i_r_map,
    laguerre_function,
    make_dog,
    rep_action,
    rplus_action,
    smooth_bump,
)
from circlet import laguerre

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


@pytest.mark.parametrize("cls, grid", [(CircleSignal, CGRID), (LineSignal, LGRID), (RPlusFunction, RGRID)])
def test_a_repr_takes_no_samples(cls, grid):
    # 1/x is not finite at a node of the line grid, so sampling it would raise
    calls = []
    signal = cls.from_evaluator(grid, lambda x: calls.append(x) or 1.0 / np.asarray(x))
    text = repr(signal)
    assert text.startswith(f"{cls.__name__}(grid=") and "values" not in text
    assert calls == [] and "values" not in signal.__dict__
    assert repr(cls(grid, np.ones(grid.n_samples))).count("values") == 0


def test_the_repr_of_a_refused_line_signal_prints():
    signal = LineSignal.from_evaluator(LineGrid(-16.0, 16.0, 2048), lambda x: 1.0 / x)
    assert repr(signal).startswith("LineSignal(grid=LineGrid(lo=-16.0, hi=16.0, n_samples=2048)")
    with np.errstate(divide="ignore"), pytest.raises(ValueError, match="signal values must be finite"):
        signal.values


@pytest.mark.parametrize("cls, grid", [(CircleSignal, CGRID), (LineSignal, LGRID), (RPlusFunction, RGRID)])
@pytest.mark.parametrize("bad, says", [
    (lambda x: np.where(np.arange(len(x)) == 5, np.nan, 1.0), "signal values must be finite"),
    (lambda x: np.where(np.arange(len(x)) == 5, np.inf, 1.0), "signal values must be finite"),
    (lambda x: np.where(np.arange(len(x)) == 5, -np.inf, 1.0), "signal values must be finite"),
    (lambda x: np.ones(len(x) + 1), r"values shape \(\d+,\) does not match grid"),
], ids=["nan", "inf", "-inf", "shape"])
def test_a_refused_exact_signal_stays_refused(cls, grid, bad, says):
    # each check builds the signal on first use, so eager sampling, which refuses when the
    # signal is built, meets the same contract: no read ever returns refused samples
    signal = functools.cache(lambda: cls.from_evaluator(grid, bad))
    for read in (lambda: signal().values, lambda: signal().values, lambda: signal().norm()):
        with pytest.raises(ValueError, match=says):
            read()


def _counted(fn):
    """A copy of fn that records the shape of each argument, and the list it records into."""
    calls = []

    def counting(x):
        calls.append(np.shape(x))
        return fn(x)

    return counting, calls


@pytest.mark.parametrize("name", sorted(ACTIONS))
def test_an_exact_action_calls_its_source_on_first_read_only(name):
    build, act = ACTIONS[name]
    src = build(1.0, exact=True)
    ev, calls = _counted(src.evaluator)
    src = type(src).from_evaluator(src.grid, ev)
    assert calls == []
    src.values  # i_r_inverse reads its source's samples for the edge guard
    calls.clear()
    out = act(src, 1.5, 0.3)
    assert calls == []
    out(np.array([0.1, 0.2]))  # a call off the grid takes no samples
    assert calls == [(2,)]
    out.values
    out.values
    assert calls == [(2,), (out.grid.n_samples,)]


def test_euclidean_limit_error_samples_f_three_times():
    # f's own samples (support guard and edge guard), the round trip's, the affine target's
    ev, calls = _counted(smooth_bump(1.0))
    f = LineSignal.from_evaluator(LineGrid(-16.0, 16.0, 2048), ev)
    euclidean_limit_error(f, 0.7, 2.0, ContractionParams(10.0))
    assert len(calls) == 3


def test_laguerre_functions_are_sampled_on_first_read(monkeypatch):
    calls, basis = [], laguerre.laguerre_basis
    counting = lambda spec, n, r: calls.append(np.shape(r)) or basis(spec, n, r)
    monkeypatch.setattr(laguerre, "laguerre_basis", counting)
    ladder = [laguerre_function(LaguerreBasisSpec(k=1.0), n, RGRID) for n in range(5)]
    assert calls == []
    ladder[2].values
    assert calls == [(RGRID.n_samples,)]


@dataclass(frozen=True)
class _CountingGrid(CircleGrid):
    """A circle grid that counts reads of its nodes, one per sample set taken."""

    reads: list = field(default_factory=list, compare=False)

    @property
    def nodes(self):
        self.reads.append(None)
        return super().nodes


def test_make_dog_samples_only_the_wavelet_on_first_read():
    grid = _CountingGrid(64)
    dog = make_dog(2.0, grid=grid)
    assert grid.reads == []
    dog(np.array([0.1, 0.2]))
    assert grid.reads == []
    assert np.array_equal(dog.values, make_dog(2.0, grid=CGRID).values)
    assert len(grid.reads) == 1

"""One parameter gate and one half-plane check: every entry refuses nan,
infinities, zero and negative values the same way."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from circlet import (
    AffineElement,
    CircleGrid,
    CircleSignal,
    ContractionParams,
    GroupElement,
    LaguerreBasisSpec,
    LineGrid,
    LineSignal,
    LogGrid,
    RPlusFunction,
    ScaleGrid,
    affine_action,
    contract_point,
    dilate_angle,
    halfplane_basis,
    laplace_kernel,
    laplace_kernel_series,
    laplace_transform,
    make_dog,
    multiplier,
    rep_action,
    rplus_action,
    smooth_bump,
)

CIRCLE = CircleSignal.from_evaluator(CircleGrid(16), lambda t: np.exp(-np.tan(t) ** 2))
LINE = LineSignal.from_evaluator(LineGrid(-4.0, 4.0, 16), lambda x: np.exp(-x * x))
RGRID = LogGrid(1e-2, 10.0, 16)
RPLUS = RPlusFunction.from_evaluator(RGRID, lambda r: r * np.exp(-r))
SPEC = LaguerreBasisSpec(1.0)

# entries taking a value that must be positive and finite
POSITIVE = {
    "rep_action": lambda v: rep_action(CIRCLE, v, 0.0),
    "affine_action": lambda v: affine_action(LINE, v, 0.0),
    "rplus_action": lambda v: rplus_action(RPLUS, v, 0.0),
    "contract_point": lambda v: contract_point(0.5, v, ContractionParams()),
    "GroupElement.a": lambda v: GroupElement(v, 0.0, 0.0),
    "AffineElement.a": lambda v: AffineElement(v, 0.0),
    "ContractionParams": lambda v: ContractionParams(v),
    "make_dog": lambda v: make_dog(v, grid=CircleGrid(16)),
    "smooth_bump": lambda v: smooth_bump(v),
    "dilate_angle": lambda v: dilate_angle(0.3, v),
    "multiplier": lambda v: multiplier(v, 0.3),
    "ScaleGrid.a_min": lambda v: ScaleGrid(v, 10.0, 4),
    "ScaleGrid.a_max": lambda v: ScaleGrid(1e-3, v, 4),
    "LogGrid.r_max": lambda v: LogGrid(1e-3, v, 9),
    "halfplane_basis": lambda v: halfplane_basis(SPEC, 0, v),
    "halfplane_basis[array]": lambda v: halfplane_basis(SPEC, 0, np.array([1.0, v])),
    "laplace_kernel": lambda v: laplace_kernel(SPEC, v, 1.0),
    "laplace_kernel_series": lambda v: laplace_kernel_series(SPEC, v, 1.0, 3),
    "laplace_transform": lambda v: laplace_transform(RPLUS, SPEC, v),
}

# entries where any finite value is fine but nan and infinities are not
FINITE = {
    "GroupElement.b": lambda v: GroupElement(1.0, v, 0.0),
    "GroupElement.theta": lambda v: GroupElement(1.0, 0.0, v),
    "AffineElement.b": lambda v: AffineElement(1.0, v),
    "halfplane_basis.imag": lambda v: halfplane_basis(SPEC, 0, complex(1.0, v)),
    "laplace_transform.imag": lambda v: laplace_transform(RPLUS, SPEC, complex(1.0, v)),
}

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@pytest.mark.parametrize("entry", sorted(POSITIVE))
@settings(max_examples=25, deadline=None)
@given(value=NON_FINITE | st.floats(max_value=0.0))
@example(math.nan)
@example(math.inf)
@example(-math.inf)
@example(0.0)
@example(-1.0)
def test_positive_gates_refuse_the_rest(entry, value):
    with pytest.raises(ValueError):
        POSITIVE[entry](value)


@pytest.mark.parametrize("entry", sorted(FINITE))
@settings(max_examples=10, deadline=None)
@given(value=NON_FINITE)
@example(math.nan)
@example(math.inf)
@example(-math.inf)
def test_finite_gates_refuse_non_finite(entry, value):
    with pytest.raises(ValueError):
        FINITE[entry](value)


@pytest.mark.parametrize("entry", sorted(FINITE))
def test_finite_gates_keep_finite_values(entry):
    FINITE[entry](-1.0)
    FINITE[entry](0.0)


# each of these went through at the parent and returned nan or built a nan grid
@pytest.mark.parametrize("call, says", [
    (lambda: multiplier(math.inf, 0.3), "dilation must be positive and finite, got inf"),
    (lambda: dilate_angle(0.0, math.inf), "dilation must be positive and finite, got inf"),
    (lambda: GroupElement(1.0, 0.0, math.nan), "rotation must be finite, got nan"),
    (lambda: AffineElement(1.0, math.nan), "translation must be finite, got nan"),
    (lambda: halfplane_basis(SPEC, 0, math.nan), "half-plane point needs Re(w) > 0, got (nan+0j)"),
    (lambda: laplace_kernel(SPEC, math.nan, 1.0), "half-plane point needs Re(w) > 0, got (nan+0j)"),
    (lambda: smooth_bump(math.inf), "halfwidth must be positive and finite, got inf"),
    (lambda: ScaleGrid(1e-3, math.inf, 4), "need 0 < a_min < a_max < inf, got [0.001, inf]"),
    (lambda: ScaleGrid(1e-3, 1e306, 40), "a_max / a_min overflows, got [0.001, 1e+306]"),  # an inf spacing
    (lambda: LogGrid(1e-3, math.inf, 9), "need 0 < a_min < a_max < inf, got [0.001, inf]"),
], ids=["multiplier", "dilate_angle", "GroupElement", "AffineElement", "halfplane_basis",
        "laplace_kernel", "smooth_bump", "ScaleGrid", "ScaleGrid-ratio", "LogGrid"])
def test_non_finite_holes_are_refused(call, says):
    with pytest.raises(ValueError) as err:
        call()
    assert str(err.value) == says

"""Group arithmetic against the 2x2 matrix oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circlet import (
    AffineElement,
    GroupElement,
    Sl2Matrix,
    affine_compose,
    affine_embed,
    compose,
    haar_weight,
    inverse,
    iwasawa_decompose,
    matrix,
    reduce_angle,
)


def random_elements(rng, count):
    a = np.exp(rng.uniform(-2.0, 2.0, count))
    b = rng.uniform(-5.0, 5.0, count)
    th = rng.uniform(-np.pi, np.pi, count)
    return [GroupElement(float(x), float(y), float(t)) for x, y, t in zip(a, b, th)]


def close(g, h, tol=1e-10):
    dth = abs(math.remainder(g.theta - h.theta, 2.0 * math.pi))
    return abs(g.a - h.a) <= tol * max(1.0, g.a) and abs(g.b - h.b) <= tol * max(1.0, abs(g.b)) and dth <= tol


def test_reduce_angle_chart():
    assert reduce_angle(np.pi) == pytest.approx(np.pi)
    assert reduce_angle(-np.pi) == pytest.approx(np.pi)  # open at -pi
    assert reduce_angle(3.0 * np.pi) == pytest.approx(np.pi)
    assert reduce_angle(0.1 - 4.0 * np.pi) == pytest.approx(0.1)


def test_matrix_has_unit_det():
    rng = np.random.default_rng(11)
    for g in random_elements(rng, 100):
        assert matrix(g).det() == pytest.approx(1.0, abs=1e-12)


def test_iwasawa_round_trip():
    rng = np.random.default_rng(12)
    for g in random_elements(rng, 500):
        back = iwasawa_decompose(matrix(g))
        assert close(g, back, 1e-10)


def test_iwasawa_rejects_non_unimodular():
    with pytest.raises(ValueError):
        iwasawa_decompose(Sl2Matrix(2.0, 0.0, 0.0, 1.0))


def test_compose_matches_matrix_product():
    rng = np.random.default_rng(13)
    gs = random_elements(rng, 400)
    hs = random_elements(rng, 400)
    for g, h in zip(gs, hs):
        direct = compose(g, h)
        via_matrix = iwasawa_decompose(matrix(g) @ matrix(h))
        assert close(direct, via_matrix, 1e-9)


elements = st.builds(
    lambda log_a, b, theta: GroupElement(math.exp(log_a), b, theta),
    st.floats(-3.0, 3.0), st.floats(-5.0, 5.0), st.floats(-math.pi, math.pi),
)


def entries(m):
    return np.array([m.m11, m.m12, m.m21, m.m22])


@settings(max_examples=200, deadline=None)
@given(elements, elements)
def test_group_law_property(g, h):
    # compose, inverse and iwasawa_decompose against products of the matrix
    # oracle, compared as matrices so that the angle branch counts too;
    # tolerances are relative to the factors' sizes
    mg, mh = matrix(g), matrix(h)
    size_g = np.linalg.norm(entries(mg))
    size = size_g * np.linalg.norm(entries(mh))
    product = mg @ mh
    assert np.max(np.abs(entries(matrix(compose(g, h))) - entries(product))) <= 1e-13 * size
    assert np.max(np.abs(entries(matrix(iwasawa_decompose(product))) - entries(product))) <= 1e-13 * size
    assert np.max(np.abs(entries(matrix(inverse(g))) - entries(mg.inverse()))) <= 1e-13 * size_g
    assert close(iwasawa_decompose(mg), g, 1e-12)


def test_associativity():
    rng = np.random.default_rng(14)
    gs = random_elements(rng, 200)
    hs = random_elements(rng, 200)
    ks = random_elements(rng, 200)
    for g, h, k in zip(gs, hs, ks):
        left = compose(compose(g, h), k)
        right = compose(g, compose(h, k))
        assert close(left, right, 1e-8)


def test_identity_and_inverse():
    e = GroupElement.identity()
    rng = np.random.default_rng(15)
    for g in random_elements(rng, 100):
        assert close(compose(g, e), g, 1e-12)
        assert close(compose(e, g), g, 1e-12)
        assert close(compose(g, inverse(g)), e, 1e-9)
        assert close(compose(inverse(g), g), e, 1e-9)


def test_rotation_subgroup_wraps():
    # pure rotations add angles mod 2 pi, staying in (-pi, pi]
    g = GroupElement(1.0, 0.0, 2.0)
    h = GroupElement(1.0, 0.0, 2.5)
    prod = compose(g, h)
    assert prod.a == pytest.approx(1.0, abs=1e-12)
    assert abs(prod.b) < 1e-12
    assert prod.theta == pytest.approx(4.5 - 2.0 * np.pi)


def test_affine_embedding_is_homomorphism():
    rng = np.random.default_rng(16)
    for _ in range(100):
        hp = AffineElement(float(np.exp(rng.uniform(-2, 2))), float(rng.uniform(-5, 5)))
        h = AffineElement(float(np.exp(rng.uniform(-2, 2))), float(rng.uniform(-5, 5)))
        lifted = compose(affine_embed(hp), affine_embed(h))
        flat = affine_compose(hp, h)
        assert lifted.theta == 0.0
        assert lifted.a == pytest.approx(flat.a, rel=1e-12)
        assert lifted.b == pytest.approx(flat.b, rel=1e-12, abs=1e-12)


def test_upper_triangular_stays_upper_triangular():
    m = matrix(affine_embed(AffineElement(2.0, 3.0)))
    assert m.m21 == 0.0


def test_haar_weight():
    assert haar_weight(GroupElement(2.0, 7.0, 1.0)) == pytest.approx(0.25)
    assert haar_weight(GroupElement.identity()) == pytest.approx(1.0)


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GroupElement(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        GroupElement(1.0, float("inf"), 0.0)


def test_theta_reduced_on_construction():
    g = GroupElement(1.0, 0.0, 5.0 * np.pi / 2.0)
    assert g.theta == pytest.approx(np.pi / 2.0)

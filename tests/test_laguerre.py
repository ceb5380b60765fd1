"""Half-line ladder basis, its generators, and the half-plane transform."""

import warnings

import numpy as np
import pytest
from scipy.special import eval_genlaguerre, roots_laguerre

from circlet import (
    LaguerreBasisSpec,
    LogGrid,
    QuadratureConvergenceWarning,
    RPlusFunction,
    gauss_laguerre_gram,
    genlaguerre,
    halfplane_basis,
    laguerre_basis,
    laguerre_function,
    laplace_kernel,
    laplace_kernel_series,
    laplace_transform,
    rplus_generators,
)
from circlet.laguerre import _gauss_laguerre_rule, _laguerre_recurrence

GRID = LogGrid(1e-3, 80.0, 6000)


def test_recurrence_against_scipy():
    r = np.geomspace(1e-3, 60.0, 200)
    rng = np.random.default_rng(51)
    for _ in range(30):
        n = int(rng.integers(0, 12))
        m = float(rng.choice([0.0, 1.0, 2.0, 0.5, 3.0]))
        ours = genlaguerre(n, m, r)
        ref = eval_genlaguerre(n, m, r)
        scale = np.maximum(np.abs(ref), 1.0)
        assert np.max(np.abs(ours - ref) / scale) < 1e-10


@pytest.mark.parametrize("n_nodes", [8, 64, 128, 256])
def test_gauss_laguerre_rule_against_scipy(n_nodes):
    # scipy is the reference only; the library builds its own rule
    u, w = _gauss_laguerre_rule(n_nodes)
    u_ref, w_ref = roots_laguerre(n_nodes)
    assert np.max(np.abs(u - u_ref) / u_ref) <= 1e-12
    gap = np.abs(w - w_ref)
    assert np.all((gap <= 1e-11 * w_ref) | (gap <= 1e-13))
    assert _gauss_laguerre_rule(n_nodes) is _gauss_laguerre_rule(n_nodes)
    assert not u.flags.writeable and not w.flags.writeable
    # the recurrence is renormalised, so nothing overflows even where the
    # weights underflow
    with np.errstate(over="raise", invalid="raise"):
        _laguerre_recurrence(n_nodes, 0.0, u_ref)


def test_spec_validation():
    with pytest.raises(ValueError):
        LaguerreBasisSpec(k=0.5)
    with pytest.raises(ValueError):
        LaguerreBasisSpec(k=1.3)
    assert LaguerreBasisSpec(k=1.5).q == pytest.approx(0.75)


def test_gram_orthonormal():
    for k in (1.0, 1.5, 2.0):
        spec = LaguerreBasisSpec(k=k)
        gram = gauss_laguerre_gram(spec, 8)
        assert np.max(np.abs(gram - np.eye(9))) < 1e-10


@pytest.mark.parametrize("k, top", [(1.0, 127), (1.5, 126)])
def test_gram_refuses_modes_the_rule_cannot_integrate(k, top):
    # exact while 2 n_max + 2k - 1 <= 2 * 128 - 1; one mode more would give a
    # deviation from the identity of 0.99, not 1e-13
    spec = LaguerreBasisSpec(k)
    assert np.max(np.abs(gauss_laguerre_gram(spec, top) - np.eye(top + 1))) < 1e-10
    with pytest.raises(ValueError, match=rf"^n_max {top + 1} at k = {k} is beyond the 128-node"):
        gauss_laguerre_gram(spec, top + 1)


def test_closed_form_ground_state():
    # k = 1: zero norm correction, basis_0(r) = r e^{-r/2}
    spec = LaguerreBasisSpec(k=1.0)
    r = np.geomspace(1e-2, 30.0, 50)
    assert np.max(np.abs(laguerre_basis(spec, 0, r) - r * np.exp(-0.5 * r))) < 1e-12


def test_closed_form_halfplane_ground_state():
    # k = 1, n = 0: normalizer pi/4, so hp_0(w) = 2 Re(w) (1+w)^{-2}/sqrt(pi)
    spec = LaguerreBasisSpec(k=1.0)
    w = np.array([1.0 + 0.0j, 0.5 - 1.0j, 2.0 + 3.0j])
    want = 2.0 * w.real * (1.0 + w) ** -2 / np.sqrt(np.pi)
    assert np.max(np.abs(halfplane_basis(spec, 0, w) - want)) < 1e-12


def test_eigenrelation():
    # -(1/2) gen_theta basis_n = (k + n) basis_n
    for k in (1.0, 1.5, 2.0):
        spec = LaguerreBasisSpec(k=k)
        for n in (0, 1, 4, 8):
            f = laguerre_function(spec, n, GRID)
            out = rplus_generators("theta", f, spec)
            resid = -0.5 * out.values - (spec.k + n) * f.values
            assert np.max(np.abs(resid)) < 1e-6


def test_rplus_commutators():
    """Same structure constants as the chart realization, via log-grid
    finite differences on a smooth decaying probe."""
    spec = LaguerreBasisSpec(k=1.0)
    probe = RPlusFunction.from_evaluator(GRID, lambda r: r**2.5 * np.exp(-0.7 * r))

    def gen(which, g):
        return rplus_generators(which, g, spec)

    ab = gen("a", gen("b", probe)).values - gen("b", gen("a", probe)).values
    assert np.max(np.abs(ab - 1j * gen("b", probe).values)) < 1e-8

    bt = gen("b", gen("theta", probe)).values - gen("theta", gen("b", probe)).values
    assert np.max(np.abs(bt - 2j * gen("a", probe).values)) < 1e-8

    at = gen("a", gen("theta", probe)).values - gen("theta", gen("a", probe)).values
    want = -1j * (2.0 * gen("b", probe).values + gen("theta", probe).values)
    assert np.max(np.abs(at - want)) < 1e-6


def test_generator_decay_warning():
    spec = LaguerreBasisSpec(k=1.0)
    flat = RPlusFunction(GRID, np.ones(GRID.n_samples, dtype=complex))
    with pytest.warns(RuntimeWarning, match="decayed"):
        rplus_generators("a", flat, spec)


def test_laplace_maps_basis_to_closed_form():
    spec = LaguerreBasisSpec(k=1.0)
    rng = np.random.default_rng(52)
    ws = rng.uniform(0.5, 2.5, 10) + 1j * rng.uniform(-2.0, 2.0, 10)
    for n in range(5):
        f = laguerre_function(spec, n, GRID)
        for w in ws:
            got = laplace_transform(f, spec, complex(w))
            want = complex(halfplane_basis(spec, n, w))
            assert abs(got - want) < 1e-8


def test_laplace_linear():
    # compare interpolated against interpolated so both sides carry the
    # same off-grid error; the sampling wobble may trip the convergence
    # warning, which is beside the point here
    spec = LaguerreBasisSpec(k=1.0)
    v0 = laguerre_function(spec, 0, GRID).values
    v1 = laguerre_function(spec, 1, GRID).values
    mix = RPlusFunction(GRID, 0.3 * v0 - 1.2j * v1)
    w = 1.1 + 0.4j
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", QuadratureConvergenceWarning)
        got = laplace_transform(mix, spec, w)
        want = 0.3 * laplace_transform(
            RPlusFunction(GRID, v0), spec, w
        ) - 1.2j * laplace_transform(RPlusFunction(GRID, v1), spec, w)
    assert abs(got - want) < 1e-10


def test_kernel_is_mode_sum():
    spec = LaguerreBasisSpec(k=1.0)
    w, r = 1.2 + 0.8j, 3.0
    exact = complex(laplace_kernel(spec, w, r))
    errs = [abs(laplace_kernel_series(spec, w, r, m) - exact) for m in (8, 16, 32)]
    assert errs[0] > errs[1] > errs[2]
    # |(w-1)/(w+1)| ~ 0.37 here: each doubling of the terms squares the gap
    assert errs[1] < errs[0] * 1e-2
    assert errs[2] < 1e-12


def test_laplace_warns_near_boundary():
    spec = LaguerreBasisSpec(k=1.0)
    f = laguerre_function(spec, 0, GRID)
    with pytest.warns(QuadratureConvergenceWarning):
        laplace_transform(f, spec, 1e-3 + 0.0j)


def test_halfplane_validation():
    spec = LaguerreBasisSpec(k=1.0)
    with pytest.raises(ValueError):
        halfplane_basis(spec, 0, np.array([-1.0 + 0.5j]))
    with pytest.raises(ValueError):
        laplace_kernel(spec, -0.1 + 0.0j, 1.0)
    with pytest.raises(ValueError):
        genlaguerre(-1, 0.0, 1.0)


def test_basis_rejects_nonpositive_radius():
    spec = LaguerreBasisSpec(k=1.0)
    with pytest.raises(ValueError):
        laguerre_basis(spec, 0, np.array([0.0, 1.0]))


def test_generators_need_eight_nodes():
    # the one-sided edge stencils reach seven nodes in; the grid itself takes any count
    spec = LaguerreBasisSpec(k=2.0)
    short = laguerre_function(spec, 0, LogGrid(1e-2, 80.0, 7))
    with pytest.raises(ValueError, match="n_samples must be >= 8, got 7"):
        rplus_generators("a", short, spec)
    rplus_generators("a", laguerre_function(spec, 0, LogGrid(1e-2, 80.0, 8)), spec)

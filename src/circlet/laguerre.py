"""Discrete-series realization on the positive half-line and the half-plane.

For a half-integer weight k > 1/2 the half-line model L2(R+, dr/r)
carries the generators
    gen_a     = i r d/dr
    gen_b     = r / 2
    gen_theta = 2 r d^2/dr^2 - (r^2/2 + 2 q)/r,      q = k(k - 1),
whose compact generator -(1/2) gen_theta has the orthonormal eigenbasis
    basis_n(r) = e^{-r/2} r^k L_n^{(2k-1)}(r) / sqrt(G(n+2k)/G(n+1))
with eigenvalue k + n.  The companion half-plane model (Re w > 0) has the
orthonormal family
    hp_n(w) = Re(w)^k (1+w)^{-2k} ((w-1)/(w+1))^n / sqrt(M_nk),
    M_nk = pi n! (2k-2)! / (2^{4k-2} (2k+n-1)!),
and the two are exchanged by the Laplace-type kernel
    K(w, r) = Re(w)^k r^k e^{-r w/2} / (2 sqrt(pi (2k-2)!)),
i.e. transform(f)(w) = int_0^inf dr/r K(w, r) f(r), which is also the
mode sum K(w, r) = sum_n hp_n(w) conj(basis_n(r)) (geometric convergence
since |(w-1)/(w+1)| < 1 on the half-plane).

Laguerre polynomials are evaluated by the standard three-term upward
recurrence; factorial ratios go through log-gamma.  The Gauss-Laguerre
rule is Golub & Welsch's (Math. Comp. 23, 1969), in numpy alone.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .circle import edge_fraction
from .cwt import ScaleGrid
from .line import RPlusFunction

GL_NODES_DEFAULT = 128
GL_RULE_MEMO_SIZE = 4  # node counts kept; callers use 128 and 127


class QuadratureConvergenceWarning(RuntimeWarning):
    """Gauss-Laguerre estimate has not settled (typically Re(w) near 0)."""


@dataclass(frozen=True)
class LaguerreBasisSpec:
    """Weight k of the discrete series; half-integer, k > 1/2."""

    k: float

    def __post_init__(self):
        if not (self.k > 0.5 and np.isfinite(self.k)):
            raise ValueError(f"weight must exceed 1/2, got {self.k}")
        if abs(2.0 * self.k - round(2.0 * self.k)) > 1e-12:
            raise ValueError(f"weight must be a half-integer, got {self.k}")

    @property
    def q(self) -> float:
        return self.k * (self.k - 1.0)


def genlaguerre(n: int, m: float, r) -> np.ndarray:
    """Generalized Laguerre polynomial L_n^{(m)}(r), upward three-term recurrence."""
    if n < 0:
        raise ValueError(f"degree must be nonnegative, got {n}")
    _, cur, exponent, _ = _laguerre_recurrence(n, m, np.asarray(r, dtype=float))
    return np.ldexp(cur, exponent)


def _laguerre_recurrence(n: int, m: float, r: np.ndarray):
    """L_{n-1}^{(m)}, L_n^{(m)} and sum_{k<n} L_k^{(m)}^2 at r as prev * 2^exponent,
    cur * 2^exponent and total * 4^exponent: rescaling by powers of two
    whenever |cur| exceeds 1 is exact and keeps the squares from overflowing."""
    prev, cur, total = np.zeros_like(r), np.ones_like(r), np.zeros_like(r)
    exponent = np.zeros(r.shape, dtype=int)
    for j in range(n):
        total += cur * cur
        prev, cur = cur, ((2.0 * j + 1.0 + m - r) * cur - (j + m) * prev) / (j + 1.0)
        shift = np.maximum(np.frexp(cur)[1], 0)
        prev, cur, total = np.ldexp(prev, -shift), np.ldexp(cur, -shift), np.ldexp(total, -2 * shift)
        exponent += shift
    return prev, cur, exponent, total


def log_norm_rplus(spec: LaguerreBasisSpec, n: int) -> float:
    """ln of the squared half-line normalizer G(n+2k)/G(n+1)."""
    return math.lgamma(n + 2.0 * spec.k) - math.lgamma(n + 1.0)


def laguerre_basis(spec: LaguerreBasisSpec, n: int, r) -> np.ndarray:
    """Orthonormal eigenfunction basis_n on L2(R+, dr/r)."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("basis functions live on r > 0")
    envelope = np.exp(-0.5 * r + spec.k * np.log(r) - 0.5 * log_norm_rplus(spec, n))
    return envelope * genlaguerre(n, 2.0 * spec.k - 1.0, r)


def laguerre_function(spec: LaguerreBasisSpec, n: int, grid: ScaleGrid) -> RPlusFunction:
    """basis_n wrapped as an RPlusFunction with an exact evaluator."""
    return RPlusFunction.from_evaluator(grid, lambda r: laguerre_basis(spec, n, r))


def _fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights on integer offsets, exact on polynomials."""
    a = np.vander(np.asarray(offsets, dtype=float), increasing=True).T
    rhs = np.zeros(len(offsets))
    rhs[order] = float(math.factorial(order))
    return np.linalg.solve(a, rhs)


# one-sided 4th-order weights; boundary rows would otherwise dominate the
# residual after the 1/r amplification near the origin
_D1_EDGE0 = _fd_weights(np.arange(5), 1)
_D1_EDGE1 = _fd_weights(np.arange(-1, 4), 1)
_D2_EDGE0 = _fd_weights(np.arange(7), 2)
_D2_EDGE1 = _fd_weights(np.arange(-1, 6), 2)


def _log_derivs(values: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """4th-order d/dx and d2/dx2 on a uniform grid, one-sided at the ends."""
    v = values
    d1 = np.empty_like(v)
    d2 = np.empty_like(v)
    d1[2:-2] = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12 * h)
    d2[2:-2] = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12 * h * h)
    d1[0] = _D1_EDGE0 @ v[:5] / h
    d1[1] = _D1_EDGE1 @ v[:5] / h
    d1[-1] = -(_D1_EDGE0 @ v[-5:][::-1]) / h
    d1[-2] = -(_D1_EDGE1 @ v[-5:][::-1]) / h
    d2[0] = _D2_EDGE0 @ v[:7] / (h * h)
    d2[1] = _D2_EDGE1 @ v[:7] / (h * h)
    d2[-1] = _D2_EDGE0 @ v[-7:][::-1] / (h * h)
    d2[-2] = _D2_EDGE1 @ v[-7:][::-1] / (h * h)
    return d1, d2


def rplus_generators(which: str, f: RPlusFunction, spec: LaguerreBasisSpec) -> RPlusFunction:
    """Apply one half-line generator ('a', 'b' or 'theta') on the log grid.

    Derivatives are finite differences in ln r (4th order inside, one-sided
    at the ends), which need at least 8 nodes; a warning fires when the
    function has not decayed at the grid ends, where the stencils degrade.
    """
    if f.grid.n_samples < 8:
        raise ValueError(f"n_samples must be >= 8, got {f.grid.n_samples}")
    h = f.grid.spacing
    r = f.grid.nodes
    v = f.values
    # power-law vanishing toward r = 0 is slow; only flag edges that carry
    # an appreciable fraction of the peak
    if edge_fraction(v, 2) > 1e-2:
        warnings.warn(
            "function has not decayed at the log-grid ends; "
            "one-sided edge stencils will dominate the error there",
            RuntimeWarning,
            stacklevel=2,
        )
    if which == "b":
        return RPlusFunction(f.grid, 0.5 * r * v)
    d1, d2 = _log_derivs(v, h)
    if which == "a":
        # i r d/dr = i d/d(ln r)
        return RPlusFunction(f.grid, 1j * d1)
    if which == "theta":
        # 2 r d^2/dr^2 = (2/r)(d^2/dx^2 - d/dx) in x = ln r
        out = (2.0 / r) * (d2 - d1) - (0.5 * r + 2.0 * spec.q / r) * v
        return RPlusFunction(f.grid, out)
    raise ValueError(f"unknown generator {which!r}; expected 'a', 'b' or 'theta'")


def log_norm_halfplane(spec: LaguerreBasisSpec, n: int) -> float:
    """ln of the squared half-plane normalizer M_nk."""
    k = spec.k
    return float(
        np.log(np.pi)
        + math.lgamma(n + 1.0)
        + math.lgamma(2.0 * k - 1.0)
        - (4.0 * k - 2.0) * np.log(2.0)
        - math.lgamma(2.0 * k + n)
    )


def require_halfplane(w) -> np.ndarray:
    """w (a point or an array of points) as a complex array, refused unless
    every point is finite with Re(w) > 0; the one half-plane check."""
    w = np.asarray(w, dtype=complex)
    ok = (w.real > 0.0) & np.isfinite(w)
    if not ok.all():
        raise ValueError(f"half-plane point needs Re(w) > 0, got {w[~ok].flat[0]}")
    return w


def halfplane_basis(spec: LaguerreBasisSpec, n: int, w) -> np.ndarray:
    """Orthonormal half-plane family hp_n(w), Re(w) > 0."""
    if n < 0:
        raise ValueError(f"index must be nonnegative, got {n}")
    w = require_halfplane(w)
    k = spec.k
    disk = (w - 1.0) / (w + 1.0)  # |disk| < 1 on the half-plane
    return (
        w.real ** k
        * (1.0 + w) ** (-2.0 * k)
        * disk ** n
        * np.exp(-0.5 * log_norm_halfplane(spec, n))
    )


def _log_kernel_const(spec: LaguerreBasisSpec) -> float:
    """ln of the kernel constant 1 / (2 sqrt(pi (2k-2)!))."""
    return -np.log(2.0) - 0.5 * (np.log(np.pi) + math.lgamma(2.0 * spec.k - 1.0))


def laplace_kernel(spec: LaguerreBasisSpec, w, r) -> np.ndarray:
    """Closed-form kernel K(w, r) = Re(w)^k r^k e^{-r w/2} / (2 sqrt(pi (2k-2)!))."""
    w = require_halfplane(w)
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("kernel lives on r > 0")
    k = spec.k
    return w.real ** k * r ** k * np.exp(-0.5 * r * w + _log_kernel_const(spec))


def laplace_kernel_series(spec: LaguerreBasisSpec, w: complex, r: float, n_terms: int) -> complex:
    """Partial mode sum sum_{n<n_terms} hp_n(w) basis_n(r); converges geometrically."""
    w = complex(require_halfplane(w))
    total = 0.0 + 0.0j
    for n in range(n_terms):
        total += complex(halfplane_basis(spec, n, w)) * float(laguerre_basis(spec, n, r))
    return total


@functools.lru_cache(maxsize=GL_RULE_MEMO_SIZE)
def _gauss_laguerre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the rule for int_0^inf e^{-u} f(u) du.

    Jacobi-matrix eigenvalues, one Newton step with L_n' = n (L_n - L_{n-1})/u,
    then Christoffel weights, which keep the digits that 1/(u L_n'^2) loses.
    """
    i = np.arange(n_nodes, dtype=float)
    u = np.linalg.eigvalsh(np.diag(2.0 * i + 1.0) + np.diag(i[1:], 1) + np.diag(i[1:], -1))
    prev, cur, _, _ = _laguerre_recurrence(n_nodes, 0.0, u)
    u -= u * cur / (n_nodes * (cur - prev))
    _, _, exponent, total = _laguerre_recurrence(n_nodes, 0.0, u)
    weights = np.ldexp(1.0 / total, -2 * exponent)
    u.flags.writeable = weights.flags.writeable = False
    return u, weights


def laplace_transform(f: RPlusFunction, spec: LaguerreBasisSpec, w: complex) -> complex:
    """int_0^inf dr/r K(w, r) f(r) by Gauss-Laguerre in u = r Re(w)/2.

    The kernel's |e^{-r w/2}| = e^{-u} is exactly the quadrature weight, so
    it cancels analytically and only the phase and the function values are
    sampled.  Warns when the rule of one node fewer moves the estimate
    (small Re(w) pushes f's variation under the nodes).
    """
    w = complex(require_halfplane(w))
    k = spec.k
    ln_c = _log_kernel_const(spec)

    # both rules' nodes in one evaluation of the kernel and of f
    u, wq = (np.concatenate(pair) for pair in zip(_gauss_laguerre_rule(GL_NODES_DEFAULT),
                                                   _gauss_laguerre_rule(GL_NODES_DEFAULT - 1)))
    rr = 2.0 * u / w.real
    # K(w,r) with the e^{-u} modulus removed; the measure dr/r becomes du/u
    core = np.exp(ln_c + k * np.log(w.real) + k * np.log(rr)) * np.exp(-0.5j * rr * w.imag)
    terms = wq * core * f(rr) / u
    full, fewer = complex(np.sum(terms[:GL_NODES_DEFAULT])), complex(np.sum(terms[GL_NODES_DEFAULT:]))
    tol = 1e-8 * max(abs(full), 1e-30) + 1e-14
    if abs(full - fewer) > tol:
        warnings.warn(
            f"Gauss-Laguerre estimate moved by {abs(full - fewer):.3e} with "
            f"one node fewer at w = {w}; treat the value as unconverged",
            QuadratureConvergenceWarning,
            stacklevel=2,
        )
    return full


def _check_ladder_n_max(spec: LaguerreBasisSpec, n_max: int):
    """Refuse modes 0..n_max whose products the GL_NODES_DEFAULT-node rule cannot integrate."""
    if 2 * n_max + 2 * spec.k - 1 > 2 * GL_NODES_DEFAULT - 1:
        raise ValueError(f"n_max {n_max} at k = {spec.k} is beyond the {GL_NODES_DEFAULT}-node Gauss-Laguerre "
                         f"rule, exact only while 2 n_max + 2k - 1 <= {2 * GL_NODES_DEFAULT - 1}")


def gauss_laguerre_gram(spec: LaguerreBasisSpec, n_max: int) -> np.ndarray:
    """Gram matrix <basis_n | basis_m> on L2(R+, dr/r) by Gauss-Laguerre.

    The integrand e^{-r} r^{2k-1} L_n L_m is weight times polynomial for
    half-integer k, so the rule is exact once 2 GL_NODES_DEFAULT - 1 covers
    the degree 2 n_max + 2k - 1; a larger n_max is refused."""
    _check_ladder_n_max(spec, n_max)
    u, wq = _gauss_laguerre_rule(GL_NODES_DEFAULT)
    funcs = []
    for n in range(n_max + 1):
        # each row is r^{k-1/2} L_n / sqrt(norm); products give the integrand
        funcs.append(
            np.exp((spec.k - 0.5) * np.log(u) - 0.5 * log_norm_rplus(spec, n))
            * genlaguerre(n, 2.0 * spec.k - 1.0, u)
        )
    F = np.array(funcs)
    return (F * wq) @ F.T

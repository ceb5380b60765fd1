"""Exact SL(2,R) arithmetic in rotation/dilation/translation coordinates.

Elements are stored as the (a, b, theta) triple of their Iwasawa K*A*N
factorization: a > 0 the dilation, b the translation, theta in (-pi, pi]
the rotation angle.  The 2x2 matrix picture is the cross-checking oracle
for every closed-form parameter formula, and the composition angle branch
(the arctangent formula only fixes theta'' mod pi) is resolved by the sign
of the first column of the matrix product.

The upper-triangular (theta = 0) elements form the affine subgroup of the
line; ``affine_embed`` injects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import require_positive

DET_TOL = 1e-8


def reduce_angle(theta: float) -> float:
    """Reduce an angle to the chart (-pi, pi]."""
    t = math.fmod(theta, 2.0 * math.pi)
    if t <= -math.pi:
        t += 2.0 * math.pi
    elif t > math.pi:
        t -= 2.0 * math.pi
    return t


@dataclass(frozen=True)
class Sl2Matrix:
    """Real 2x2 matrix with unit determinant (checked where it matters)."""

    m11: float
    m12: float
    m21: float
    m22: float

    def det(self) -> float:
        return self.m11 * self.m22 - self.m12 * self.m21

    def __matmul__(self, other: "Sl2Matrix") -> "Sl2Matrix":
        return Sl2Matrix(
            self.m11 * other.m11 + self.m12 * other.m21,
            self.m11 * other.m12 + self.m12 * other.m22,
            self.m21 * other.m11 + self.m22 * other.m21,
            self.m21 * other.m12 + self.m22 * other.m22,
        )

    def inverse(self) -> "Sl2Matrix":
        # adjugate; valid because det = 1
        return Sl2Matrix(self.m22, -self.m12, -self.m21, self.m11)


@dataclass(frozen=True)
class GroupElement:
    """Group element in (dilation, translation, rotation) coordinates."""

    a: float
    b: float
    theta: float

    def __post_init__(self):
        AffineElement(self.a, self.b)  # checks the dilation and the translation
        if not math.isfinite(self.theta):
            raise ValueError(f"rotation must be finite, got {self.theta}")
        object.__setattr__(self, "theta", reduce_angle(self.theta))

    @staticmethod
    def identity() -> "GroupElement":
        return GroupElement(1.0, 0.0, 0.0)


@dataclass(frozen=True)
class AffineElement:
    """Element (a, b) of the affine group of the line, a > 0."""

    a: float
    b: float

    def __post_init__(self):
        require_positive("dilation", self.a)
        if not math.isfinite(self.b):
            raise ValueError(f"translation must be finite, got {self.b}")


def matrix(g: GroupElement) -> Sl2Matrix:
    """2x2 matrix of g: rotation times diag(1/sqrt(a), sqrt(a)) times shear."""
    sa = math.sqrt(g.a)
    c, s = math.cos(g.theta), math.sin(g.theta)
    return Sl2Matrix(
        c / sa,
        g.b * c / sa - sa * s,
        s / sa,
        sa * c + g.b * s / sa,
    )


def iwasawa_decompose(m: Sl2Matrix) -> GroupElement:
    """Recover (a, b, theta) from a unit-determinant matrix.

    The first column is (cos theta, sin theta)/sqrt(a), which fixes a and
    theta (including the branch); b then follows from the first row dotted
    into the second column.
    """
    if abs(m.det() - 1.0) > DET_TOL:
        raise ValueError(f"determinant {m.det()} is not 1 within {DET_TOL}")
    r2 = m.m11 * m.m11 + m.m21 * m.m21
    a = 1.0 / r2
    theta = math.atan2(m.m21, m.m11)
    if theta <= -math.pi:
        theta = math.pi
    b = a * (m.m11 * m.m12 + m.m21 * m.m22)
    return GroupElement(a, b, theta)


def compose(gp: GroupElement, g: GroupElement) -> GroupElement:
    """Product gp * g in parameter space.

    Closed forms for the dilation and translation; the angle comes from
    atan2 of the product matrix's first column, written out explicitly,
    which agrees with the arctangent quotient but carries the correct
    branch.
    """
    ap, bp, thp = gp.a, gp.b, gp.theta
    a, b, th = g.a, g.b, g.theta
    c, s = math.cos(th), math.sin(th)
    cp, sp = math.cos(thp), math.sin(thp)
    den = c * c + (ap * ap + bp * bp) * s * s + 2.0 * bp * s * c
    a2 = a * ap / den
    b2 = (
        (b + a * bp) * c * c
        + (2.0 * b * bp + a * (-1.0 + ap * ap + bp * bp)) * c * s
        + (ap * ap * b + bp * (-a + b * bp)) * s * s
    ) / den
    num_t = ap * cp * s + (c + bp * s) * sp
    den_t = c * cp + s * (bp * cp - ap * sp)
    th2 = math.atan2(num_t, den_t)
    if th2 <= -math.pi:
        th2 = math.pi
    return GroupElement(a2, b2, th2)


def inverse(g: GroupElement) -> GroupElement:
    """Inverse element, via the matrix picture."""
    return iwasawa_decompose(matrix(g).inverse())


def haar_weight(g: GroupElement) -> float:
    """Density of the (bi-invariant) Haar measure against da db dtheta."""
    return 1.0 / (g.a * g.a)


def affine_compose(hp: AffineElement, h: AffineElement) -> AffineElement:
    """Product in the affine group: dilations multiply, a*b' shifts b."""
    return AffineElement(hp.a * h.a, h.b + h.a * hp.b)


def affine_embed(h: AffineElement) -> GroupElement:
    """Inject the affine group as the theta = 0 (upper-triangular) subgroup."""
    return GroupElement(h.a, h.b, 0.0)

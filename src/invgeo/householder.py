"""Order-2 Householder reflections.

P = I - 2 v v^T for a unit vector v reflects the plane through the line
orthogonal to v.  In 2x2 form every such P is

    H(phi) = [[cos phi, sin phi], [sin phi, -cos phi]],

with v = (-sin(phi/2), cos(phi/2)), and these are precisely the symmetric
square roots of I2 other than +-I2 (the principal section of the involution
hyperboloid).  Pythagorean triples (r, s, t) give the rational members
H = [[r, s], [s, -r]] / t.
"""

from __future__ import annotations

import math

from .errors import NotPythagorean, NotUnitVector
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, _finite, _setattr, _Value, approx_eq
from .roots import is_involution

_NORM_SLACK = 1e-6  # inputs this close to unit length are renormalized
_I2 = Mat2.identity()
_NEG_I2 = -_I2
_TWO_PI = 2.0 * math.pi


class UnitVec2(_Value):
    """Unit column vector; near-unit inputs are renormalized, others rejected."""

    __slots__ = ("v1", "v2")

    def __init__(self, v1: float, v2: float):
        v1, v2 = _finite(v1, "v1"), _finite(v2, "v2")
        norm = math.hypot(v1, v2)
        if abs(norm - 1.0) > _NORM_SLACK:
            raise NotUnitVector(f"|v| = {norm}, not within {_NORM_SLACK} of 1")
        _setattr(self, "v1", v1 / norm)
        _setattr(self, "v2", v2 / norm)


def householder_from_unit(v: UnitVec2) -> Mat2:
    """P = I - 2 v v^T: symmetric involution with Pv = -v."""
    return Mat2(
        1.0 - 2.0 * v.v1 * v.v1,
        -2.0 * v.v1 * v.v2,
        -2.0 * v.v1 * v.v2,
        1.0 - 2.0 * v.v2 * v.v2,
    )


def householder_from_angle(phi: float) -> Mat2:
    """H(phi) = [[cos phi, sin phi], [sin phi, -cos phi]].

    These are exactly the points of S(0, -1) with Bell coordinate z = 0.
    """
    return Mat2(math.cos(phi), math.sin(phi), math.sin(phi), -math.cos(phi))


def reflection_axis(phi: float) -> UnitVec2:
    """The unit vector v with householder_from_unit(v) = H(phi)."""
    return UnitVec2(-math.sin(0.5 * phi), math.cos(0.5 * phi))


def pythagorean_root(r: int, s: int, t: int) -> Mat2:
    """Rational symmetric involution [[r, s], [s, -r]] / t from a triple."""
    r, s, t = int(r), int(s), int(t)
    if t == 0 or r * r + s * s != t * t:
        raise NotPythagorean(f"({r}, {s}, {t}) is not a Pythagorean triple")
    return Mat2(r / t, s / t, s / t, -r / t)


def householder_angle(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> float | None:
    """The unique phi in [0, 2*pi) with m = H(phi), or None.

    Returns None unless m is a symmetric involution different from +-I2
    (the identity is not a Householder matrix).
    """
    if (not is_involution(m, tol) or not m.is_symmetric(tol)
            or approx_eq(m, _I2, tol) or approx_eq(m, _NEG_I2, tol)):
        return None
    phi = math.atan2(m.b, m.a) % _TWO_PI
    # a negative atan2 within half an ulp of 0 rounds up to the modulus
    return 0.0 if phi == _TWO_PI else phi

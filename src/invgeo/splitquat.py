"""The split-quaternion (coquaternion) algebra and its matrix picture.

Basis {1, i, j, k} with i^2 = -1, j^2 = k^2 = ijk = +1, ij = k = -ji,
jk = -i = -kj, ki = j = -ik.  The map

    w + xi + yj + zk  ->  [[w + z, x + y], [y - x, w - z]]

is a ring isomorphism onto the 2x2 real matrices, under which the modulus
q q* = w^2 + x^2 - y^2 - z^2 becomes the determinant.  Square roots of +-1
other than +-1 are pure quaternions xi + yj + zk on the quadrics

    x^2 - y^2 - z^2 = -1   (roots of  1, parametrized by sinh/cosh),
    x^2 - y^2 - z^2 = +1   (roots of -1, parametrized by sec/tan),

and map to the square roots of +-I2.  As a quadric in (x, y, z) the first
surface is a hyperboloid of one sheet and the second has two sheets (one
per sign of x = sec t), matching the trace/determinant classification of
the corresponding matrix loci S(0, -1) and S(0, 1).
"""

from __future__ import annotations

import enum
import math

from .errors import NonFiniteEntry, NotInvertible, SingularParameter
from .householder import householder_from_angle
from .mat2 import (
    DEFAULT_TOL,
    Mat2,
    Tolerance,
    _finite,
    _json_numbers,
    _plain_finite,
    _pow2_scaled,
    _setattr,
    _Value,
)


class CausalClass(enum.Enum):
    """Sign class of the modulus q q*."""

    SPACELIKE = "spacelike"   # qq* < 0
    LIGHTLIKE = "lightlike"   # qq* = 0
    TIMELIKE = "timelike"     # qq* > 0


class SplitQuat(_Value):
    """w + x*i + y*j + z*k with real coefficients."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w: float, x: float, y: float, z: float):
        if not _plain_finite(w, x, y, z):
            w, x, y, z = _finite(w, "w"), _finite(x, "x"), _finite(y, "y"), _finite(z, "z")
        _setattr(self, "w", w)
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "z", z)

    @staticmethod
    def unit(name: str) -> "SplitQuat":
        coeffs = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}
        return SplitQuat(*coeffs[name])

    @staticmethod
    def real(w: float) -> "SplitQuat":
        return SplitQuat(w, 0.0, 0.0, 0.0)

    def __add__(self, other: "SplitQuat") -> "SplitQuat":
        return SplitQuat(self.w + other.w, self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "SplitQuat") -> "SplitQuat":
        return SplitQuat(self.w - other.w, self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "SplitQuat":
        return SplitQuat(-self.w, -self.x, -self.y, -self.z)

    def __rmul__(self, t: float) -> "SplitQuat":
        t = float(t)
        return SplitQuat(t * self.w, t * self.x, t * self.y, t * self.z)

    def __mul__(self, other: "SplitQuat") -> "SplitQuat":
        return sq_mul(self, other)

    def conjugate(self) -> "SplitQuat":
        return SplitQuat(self.w, -self.x, -self.y, -self.z)

    def modulus(self) -> float:
        """q q* = w^2 + x^2 - y^2 - z^2, +-inf beyond the float range.

        Where the squares would overflow or lose precision it is taken on
        q * 2**-e, which is exact, and scaled back by 4**e.  Scaled back, the
        rounding error of the float sum would be scaled too, so where the
        scaled sum is within its a-priori error bound, and its sign and size
        therefore unknown, the modulus is the exact sum of q's squares,
        rounded once: 0.0 for a lightlike q.
        """
        e, w, x, y, z, mod = _scaled(self)
        if e == 0:
            return mod
        # |error| <= gamma_4 * (w^2 + x^2 + y^2 + z^2) plus four underflows
        # of at most 2**-1075 each; 2**-50 > gamma_4 covers the rounding of
        # the bound's own sum
        if abs(mod) <= math.ldexp(w * w + x * x + y * y + z * z, -50) + 2.0**-1070:
            from fractions import Fraction

            w, x, y, z = map(Fraction, (self.w, self.x, self.y, self.z))
            exact = w * w + x * x - y * y - z * z
            try:
                return float(exact)
            except OverflowError:
                return math.inf if exact > 0 else -math.inf
        try:
            return math.ldexp(mod, 2 * e)
        except OverflowError:
            return math.copysign(math.inf, mod)

    def max_diff(self, other: "SplitQuat") -> float:
        """Max-norm of self - other; inf where a difference overflows."""
        return max(abs(self.w - other.w), abs(self.x - other.x),
                   abs(self.y - other.y), abs(self.z - other.z))

    def to_json_dict(self) -> dict:
        return {"w": self.w, "x": self.x, "y": self.y, "z": self.z}

    @staticmethod
    def from_json_dict(obj: dict) -> "SplitQuat":
        return SplitQuat(*_json_numbers(obj, "wxyz", "quaternion"))


ONE = SplitQuat(1.0, 0.0, 0.0, 0.0)


def _scaled(q: SplitQuat) -> tuple:
    """(e, w, x, y, z, w^2 + x^2 - y^2 - z^2) of q * 2**-e, which is exact;
    e = 0 unless the squares of q would overflow or lose precision."""
    w, x, y, z = q.w, q.x, q.y, q.z
    e, w, x, y, z = _pow2_scaled((w, x, y, z), (), w * w + x * x + y * y + z * z)
    return e, w, x, y, z, w * w + x * x - y * y - z * z


def sq_mul(p: SplitQuat, q: SplitQuat) -> SplitQuat:
    """Bilinear product of the algebra (associative, not commutative)."""
    return SplitQuat(
        p.w * q.w - p.x * q.x + p.y * q.y + p.z * q.z,
        p.w * q.x + p.x * q.w - p.y * q.z + p.z * q.y,
        p.w * q.y + p.y * q.w - p.x * q.z + p.z * q.x,
        p.w * q.z + p.z * q.w + p.x * q.y - p.y * q.x,
    )


def sq_classify(q: SplitQuat, tol: Tolerance = DEFAULT_TOL) -> CausalClass:
    """Sign class of q q*; lightlike when negligible (exact_tol) next to w^2+x^2+y^2+z^2.

    The test does not change when q is scaled.  Where the squares would
    overflow or lose precision it runs on q * 2**-e, which is exact.
    """
    _, w, x, y, z, mod = _scaled(q)
    if tol.negligible(mod, w * w + x * x + y * y + z * z, exact=True):
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if mod > 0 else CausalClass.SPACELIKE


def sq_inverse(q: SplitQuat, tol: Tolerance = DEFAULT_TOL) -> SplitQuat:
    """q* / (q q*); lightlike elements are the non-invertible ones.

    Where q q* would overflow or underflow it is 2**-e * q'* / (q' q'*) with
    q' = q * 2**-e, which is exact; NotInvertible, as from Mat2.inverse,
    where the inverse of a near-subnormal q is beyond the float range.
    """
    if sq_classify(q, tol) is CausalClass.LIGHTLIKE:
        raise NotInvertible("lightlike split-quaternion has no inverse")
    e, w, x, y, z, mod = _scaled(q)
    r = 1.0 / mod
    inverse = r * w, r * -x, r * -y, r * -z
    if e == 0:
        return SplitQuat(*inverse)
    try:
        return SplitQuat(*(math.ldexp(v, -e) for v in inverse))
    except OverflowError:
        raise NotInvertible(f"the inverse of {q} is beyond the float range") from None


def to_matrix(q: SplitQuat) -> Mat2:
    """Ring isomorphism onto 2x2 real matrices; det(to_matrix(q)) = q q*."""
    return Mat2(q.w + q.z, q.x + q.y, q.y - q.x, q.w - q.z)


def from_matrix(m: Mat2) -> SplitQuat:
    """Inverse of to_matrix."""
    try:
        return SplitQuat(0.5 * (m.a + m.d), 0.5 * (m.b - m.c), 0.5 * (m.b + m.c), 0.5 * (m.a - m.d))
    except NonFiniteEntry:
        # A sum left the float range.  Its entries are far above the
        # subnormals, so halving them first is exact and rounds as the sum
        # would; the other pair's halves may lose a subnormal's last bit.
        a, b, c, d = 0.5 * m.a, 0.5 * m.b, 0.5 * m.c, 0.5 * m.d
        return SplitQuat(a + d, b - c, b + c, a - d)


def unit_root_identity(t: float, phi: float) -> SplitQuat:
    """Square root of 1: i*sinh(t) + (j*sin(phi) + k*cos(phi))*cosh(t).

    The coefficients sweep the one-sheet quadric x^2 - y^2 - z^2 = -1.
    """
    return SplitQuat(
        0.0,
        math.sinh(t),
        math.cosh(t) * math.sin(phi),
        math.cosh(t) * math.cos(phi),
    )


def unit_root_neg(t: float, phi: float, tol: Tolerance = DEFAULT_TOL) -> SplitQuat:
    """Square root of -1: i*sec(t) + (j*sin(phi) + k*cos(phi))*tan(t).

    The coefficients sweep x^2 - y^2 - z^2 = 1; the sign of sec(t) selects
    the sheet.  Undefined where cos(t) is negligible (exact_tol) next to 1.
    """
    cos_t = math.cos(t)
    if tol.negligible(cos_t, 1.0, exact=True):
        raise SingularParameter(f"cos(t) ~ 0 at t = {t}")
    tan_t = math.sin(t) / cos_t
    return SplitQuat(0.0, 1.0 / cos_t, tan_t * math.sin(phi), tan_t * math.cos(phi))


def root_matrix_identity(t: float, phi: float) -> Mat2:
    """Matrix form of unit_root_identity: a square root of I2."""
    return to_matrix(unit_root_identity(t, phi))


def root_matrix_neg(t: float, phi: float, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Matrix form of unit_root_neg: a square root of -I2."""
    return to_matrix(unit_root_neg(t, phi, tol))


#: The distinguished skew-involution [[0, 1], [-1, 0]] (the image of i).
SKEW_J = Mat2(0.0, 1.0, -1.0, 0.0)


def decompose_root(
    t: float, phi: float, which: str, tol: Tolerance = DEFAULT_TOL
) -> tuple[float, Mat2, float, Mat2]:
    """Split a parametrized root into reflection and rotation parts.

    Returns (coef_h, H, coef_j, J) with

        root_matrix_identity(t, phi) = cosh(t)*H(phi) + sinh(t)*J
        root_matrix_neg(t, phi)      = tan(t)*H(phi)  + sec(t)*J

    where H(phi) is the Householder reflection and J = [[0, 1], [-1, 0]].
    """
    h = householder_from_angle(phi)
    if which == "identity":
        return math.cosh(t), h, math.sinh(t), SKEW_J
    if which == "neg":
        q = unit_root_neg(t, 0.0, tol)  # x = sec(t), z = tan(t) cos(0)
        return q.z, h, q.x, SKEW_J
    raise ValueError(f"which must be 'identity' or 'neg', got {which!r}")

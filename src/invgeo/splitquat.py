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
from dataclasses import dataclass

from .errors import NotInvertible, SingularParameter
from .householder import householder_from_angle
from .mat2 import _SAFE_MIN, DEFAULT_TOL, Mat2, Tolerance, _finite


class CausalClass(enum.Enum):
    """Sign class of the modulus q q*."""

    SPACELIKE = "spacelike"   # qq* < 0
    LIGHTLIKE = "lightlike"   # qq* = 0
    TIMELIKE = "timelike"     # qq* > 0


@dataclass(frozen=True)
class SplitQuat:
    """w + x*i + y*j + z*k with real coefficients."""

    w: float
    x: float
    y: float
    z: float

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

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
        return self.w * self.w + self.x * self.x - self.y * self.y - self.z * self.z

    def max_diff(self, other: "SplitQuat") -> float:
        d = self - other
        return max(abs(d.w), abs(d.x), abs(d.y), abs(d.z))

    def to_json_dict(self) -> dict:
        return {"w": self.w, "x": self.x, "y": self.y, "z": self.z}

    @staticmethod
    def from_json_dict(obj: dict) -> "SplitQuat":
        try:
            return SplitQuat(obj["w"], obj["x"], obj["y"], obj["z"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"quaternion JSON needs keys w, x, y, z: {obj!r}") from exc


ONE = SplitQuat(1.0, 0.0, 0.0, 0.0)


def sq_mul(p: SplitQuat, q: SplitQuat) -> SplitQuat:
    """Bilinear product of the algebra (associative, not commutative)."""
    return SplitQuat(
        p.w * q.w - p.x * q.x + p.y * q.y + p.z * q.z,
        p.w * q.x + p.x * q.w - p.y * q.z + p.z * q.y,
        p.w * q.y + p.y * q.w - p.x * q.z + p.z * q.x,
        p.w * q.z + p.z * q.w + p.x * q.y - p.y * q.x,
    )


def sq_classify(q: SplitQuat, tol: Tolerance = DEFAULT_TOL) -> CausalClass:
    """Sign class of q q*; lightlike when |q q*| <= exact_tol * (w^2 + x^2 + y^2 + z^2).

    The test does not change when q is scaled.  Where the squares would
    overflow or lose precision it runs on q * 2**-e, which is exact.
    """
    w, x, y, z = q.w, q.x, q.y, q.z
    norm_sq = w * w + x * x + y * y + z * z
    if not _SAFE_MIN < norm_sq < math.inf:
        e = math.frexp(max(abs(w), abs(x), abs(y), abs(z)))[1]
        w, x, y, z = (math.ldexp(v, -e) for v in (w, x, y, z))
        norm_sq = w * w + x * x + y * y + z * z
    mod = w * w + x * x - y * y - z * z
    if abs(mod) <= tol.exact_tol * norm_sq:
        return CausalClass.LIGHTLIKE
    return CausalClass.TIMELIKE if mod > 0 else CausalClass.SPACELIKE


def sq_inverse(q: SplitQuat, tol: Tolerance = DEFAULT_TOL) -> SplitQuat:
    """q* / (q q*); lightlike elements are the non-invertible ones."""
    if sq_classify(q, tol) is CausalClass.LIGHTLIKE:
        raise NotInvertible("lightlike split-quaternion has no inverse")
    return (1.0 / q.modulus()) * q.conjugate()


def to_matrix(q: SplitQuat) -> Mat2:
    """Ring isomorphism onto 2x2 real matrices; det(to_matrix(q)) = q q*."""
    return Mat2(q.w + q.z, q.x + q.y, q.y - q.x, q.w - q.z)


def from_matrix(m: Mat2) -> SplitQuat:
    """Inverse of to_matrix."""
    return SplitQuat(
        0.5 * (m.a + m.d),
        0.5 * (m.b - m.c),
        0.5 * (m.b + m.c),
        0.5 * (m.a - m.d),
    )


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
    the sheet.  Undefined where cos(t) vanishes.
    """
    cos_t = math.cos(t)
    if abs(cos_t) <= tol.exact_tol:
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
        cos_t = math.cos(t)
        if abs(cos_t) <= tol.exact_tol:
            raise SingularParameter(f"cos(t) ~ 0 at t = {t}")
        return math.sin(t) / cos_t, h, 1.0 / cos_t, SKEW_J
    raise ValueError(f"which must be 'identity' or 'neg', got {which!r}")

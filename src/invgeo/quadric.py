"""The locus S(alpha, beta) and its geometry inside the trace hyperplane.

S(alpha, beta) is the set of non-scalar 2x2 matrices X with trace(X) = alpha
and det(X) = beta, i.e. the non-scalar solutions of X^2 - alpha X + beta I2
= 0.  Inside the hyperplane {trace = alpha} of R^4 we erect an orthonormal
frame (the Bell frame) with origin (alpha/2, 0, 0, alpha/2) and axes

    e_x = (1, 0, 0, -1)/sqrt(2),
    e_y = (0, 1, 1, 0)/sqrt(2),
    e_z = (0, -1, 1, 0)/sqrt(2),

in which S(alpha, beta) is the quadric

    x^2 + y^2 - z^2 = alpha^2/2 - 2*beta,

a hyperboloid of one sheet, a right circular cone, or a hyperboloid of
two sheets according to the sign of alpha^2 - 4*beta.

The involution surface S(0, -1) is the one-sheet case x^2 + y^2 - z^2 = 2.
It is doubly ruled: through each point A run two straight lines A + t*U and
A + t*V whose direction matrices satisfy

    AU = U,  UA = -U,  U^2 = 0     and     AV = -V,  VA = V,  V^2 = 0,

and such directions are produced by U = (A + I)X(A - I), V = (A - I)X(A + I)
for almost every seed matrix X.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import dataclass

from .errors import (
    AlphaMismatch,
    DegenerateSeed,
    InvalidCount,
    NotAnInvolution,
    NotInHyperplane,
)
from .mat2 import _SAFE_MIN, DEFAULT_TOL, Mat2, Tolerance, _finite, _plain_finite

_SQRT2 = math.sqrt(2.0)
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)

#: The Bell frame axes as vectors in R^4 = (x1, x2, x3, x4).
BELL_BASIS = (
    (1.0 / _SQRT2, 0.0, 0.0, -1.0 / _SQRT2),
    (0.0, 1.0 / _SQRT2, 1.0 / _SQRT2, 0.0),
    (0.0, -1.0 / _SQRT2, 1.0 / _SQRT2, 0.0),
)


@dataclass(frozen=True, slots=True)
class LocusParams:
    """Target trace and determinant of the matrix locus."""

    alpha: float
    beta: float

    def __post_init__(self):
        object.__setattr__(self, "alpha", _finite(self.alpha, "alpha"))
        object.__setattr__(self, "beta", _finite(self.beta, "beta"))


@dataclass(frozen=True, slots=True)
class BellPoint:
    """(x, y, z) coordinates in the Bell frame of the hyperplane trace=alpha."""

    x: float
    y: float
    z: float
    alpha: float = 0.0

    def __post_init__(self):
        if _plain_finite(self.x, self.y, self.z, self.alpha):
            return
        for name in ("x", "y", "z", "alpha"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "alpha": self.alpha}


class SurfaceTag(enum.Enum):
    ONE_SHEET_HYPERBOLOID = "one_sheet"
    RIGHT_CIRCULAR_CONE = "cone"
    TWO_SHEET_HYPERBOLOID = "two_sheet"


@dataclass(frozen=True, slots=True)
class SurfaceClass:
    tag: SurfaceTag
    radius_sq: float

    def to_json_dict(self) -> dict:
        return {"class": self.tag.value, "radius_sq": self.radius_sq}


@dataclass(frozen=True, slots=True)
class GeneratorPair:
    """Direction matrices of the two rulings through a point of S(0, -1).

    U satisfies AU = U, UA = -U, U^2 = 0; V satisfies AV = -V, VA = V,
    V^2 = 0.  Both are normalized to unit max-norm (the construction only
    determines them up to scale).
    """

    u: Mat2
    v: Mat2


@dataclass(frozen=True, slots=True)
class SurfacePoint:
    """One sampled point: Bell coordinates, the matrix, and a tag.

    tag is "surface" for locus members and "vertex" for the cone apex,
    which is the scalar matrix excluded from S(alpha, beta) itself.
    """

    bell: BellPoint
    matrix: Mat2
    tag: str = "surface"


def in_locus(m: Mat2, params: LocusParams, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership test: trace and det match and m is not a scalar matrix."""
    if abs(m.trace() - params.alpha) > tol.abs_tol:
        return False
    if abs(m.det() - params.beta) > tol.abs_tol:
        return False
    return m.scalar_distance() >= tol.exact_tol


def classify_quadric(params: LocusParams, tol: Tolerance = DEFAULT_TOL) -> SurfaceClass:
    """Surface type of S(alpha, beta) by the sign of alpha^2 - 4*beta.

    It is a cone when |alpha^2 - 4 beta| <= exact_tol * (alpha^2 + 4|beta|),
    a test that does not change when alpha and beta are scaled as alpha*s
    and beta*s^2.  Where the squares would overflow or lose precision it
    runs on alpha * 2**-e and beta * 4**-e, which is exact.
    """
    radius_sq = 0.5 * params.alpha * params.alpha - 2.0 * params.beta
    alpha, beta = params.alpha, params.beta
    scale = alpha * alpha + 4.0 * abs(beta)
    if not _SAFE_MIN < scale < math.inf:
        e = math.frexp(max(abs(alpha), math.sqrt(abs(beta))))[1]
        alpha, beta = math.ldexp(alpha, -e), math.ldexp(beta, -2 * e)
        scale = alpha * alpha + 4.0 * abs(beta)
    disc = alpha * alpha - 4.0 * beta
    if abs(disc) <= tol.exact_tol * scale:
        return SurfaceClass(SurfaceTag.RIGHT_CIRCULAR_CONE, radius_sq)
    if disc > 0:
        return SurfaceClass(SurfaceTag.ONE_SHEET_HYPERBOLOID, radius_sq)
    return SurfaceClass(SurfaceTag.TWO_SHEET_HYPERBOLOID, radius_sq)


def to_bell(m: Mat2, alpha: float, tol: Tolerance = DEFAULT_TOL) -> BellPoint:
    """Bell coordinates of a matrix lying in the hyperplane trace = alpha.

    Inverts x1 = alpha/2 + x/sqrt2, x2 = (y-z)/sqrt2, x3 = (y+z)/sqrt2,
    x4 = alpha/2 - x/sqrt2.
    """
    if abs(m.trace() - alpha) > tol.abs_tol:
        raise NotInHyperplane(f"trace {m.trace()} != alpha {alpha}")
    return BellPoint(
        x=_SQRT2 * (m.a - 0.5 * alpha),
        y=(m.b + m.c) / _SQRT2,
        z=(m.c - m.b) / _SQRT2,
        alpha=alpha,
    )


def from_bell(p: BellPoint) -> Mat2:
    """Matrix with the given Bell coordinates in the hyperplane trace = alpha."""
    half = 0.5 * p.alpha
    return Mat2(
        half + p.x / _SQRT2,
        (p.y - p.z) / _SQRT2,
        (p.y + p.z) / _SQRT2,
        half - p.x / _SQRT2,
    )


def quadric_residual(p: BellPoint, params: LocusParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """x^2 + y^2 - z^2 - (alpha^2/2 - 2*beta); zero iff p lies on the quadric."""
    if abs(p.alpha - params.alpha) > tol.exact_tol:
        raise AlphaMismatch(f"point alpha {p.alpha} != locus alpha {params.alpha}")
    return p.x * p.x + p.y * p.y - p.z * p.z - (
        0.5 * params.alpha * params.alpha - 2.0 * params.beta
    )


def principal_axis_point(s: float) -> Mat2:
    """Skew-symmetric matrix [[0, s], [-s, 0]], the Bell z-axis (x = y = 0)."""
    s = float(s)
    return Mat2(0.0, s, -s, 0.0)


def on_asymptotic_cone(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff m lies on the asymptotic cone of S(0, -1) from its centre.

    In Bell coordinates the cone is x^2 + y^2 - z^2 = 0, which pulls back to
    trace = 0 and x1^2 + x2*x3 = 0, i.e. det = 0: the nilpotent matrices.
    """
    if abs(m.trace()) > tol.abs_tol:
        return False
    return abs(m.a * m.a + m.b * m.c) <= tol.abs_tol


def generator_directions(
    a: Mat2, x_seed: Mat2, tol: Tolerance = DEFAULT_TOL
) -> GeneratorPair:
    """Ruling directions through a point a of S(0, -1) from a seed matrix.

    Returns U = (a+I)X(a-I) and V = (a-I)X(a+I), each scaled to unit
    max-norm.  Raises DegenerateSeed when the seed nearly annihilates either
    product: when its max-norm is at most sqrt(eps) * |a+I| |X| |a-I|, below
    which the direction is mostly rounding error.  Any generic seed works.
    """
    if not in_locus(a, LocusParams(0.0, -1.0), tol):
        raise NotAnInvolution(f"{a} is not on S(0, -1)")
    eye = Mat2.identity()
    plus, minus = a + eye, a - eye
    u = plus @ x_seed @ minus
    v = minus @ x_seed @ plus
    u_norm, v_norm = u.max_norm(), v.max_norm()
    if min(u_norm, v_norm) <= _SQRT_EPS * plus.max_norm() * x_seed.max_norm() * minus.max_norm():
        raise DegenerateSeed("seed produced a near-zero direction; retry with another seed")
    return GeneratorPair((1.0 / u_norm) * u, (1.0 / v_norm) * v)


def generator_point(a: Mat2, direction: Mat2, t: float) -> Mat2:
    """Point a + t*direction on the ruling; stays on S(0, -1) for valid
    directions."""
    return a + float(t) * direction


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """``np.linspace(lo, hi, n).tolist()`` with NumPy's arithmetic, bit for bit."""
    div = n - 1
    delta = hi - lo
    if div <= 0:
        return [0.0 * delta + lo for _ in range(n)]
    step = delta / div
    if step == 0:  # lo == hi, or delta / div underflowed
        out = [(i / div) * delta + lo for i in range(n)]
    else:
        out = [i * step + lo for i in range(n)]
    out[-1] = float(hi)
    return out


def sample_surface(
    params: LocusParams,
    n_u: int,
    n_v: int,
    span: float = 2.0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[SurfacePoint]:
    """Deterministic n_u x n_v grid of points covering S(alpha, beta).

    n_u counts azimuth steps; n_v counts steps of the second coordinate
    (hyperbolic angle for the hyperboloids, signed radius for the cone),
    which spans [-span, span].  The cone vertex is appended, tagged
    "vertex", since the scalar apex is excluded from the locus proper.

    cos/sin are taken once per azimuth and cosh/sinh once per ring, and a
    point is (ring factor) * (azimuth factor): the same products, bit for
    bit, as r * cosh(v) * cos(u) evaluated left to right.
    """
    if n_u < 1 or n_v < 1:
        raise InvalidCount(f"need n_u, n_v >= 1, got {n_u}, {n_v}")
    surface = classify_quadric(params, tol)
    radius_sq = surface.radius_sq
    azimuths = [2.0 * math.pi * j / n_u for j in range(n_u)]
    trig = [(math.cos(u), math.sin(u)) for u in azimuths]
    alpha = params.alpha
    points: list[SurfacePoint] = []

    def ring(radial: float, z: float):
        for cos_u, sin_u in trig:
            bell = BellPoint(radial * cos_u, radial * sin_u, z, alpha)
            points.append(SurfacePoint(bell, from_bell(bell)))

    if surface.tag is SurfaceTag.ONE_SHEET_HYPERBOLOID:
        r = math.sqrt(radius_sq)
        for v in _linspace(-span, span, n_v):
            ring(r * math.cosh(v), r * math.sinh(v))
    elif surface.tag is SurfaceTag.TWO_SHEET_HYPERBOLOID:
        m = math.sqrt(-radius_sq)
        n_top = (n_v + 1) // 2
        rows = [(1.0, v) for v in _linspace(0.0, span, n_top)]
        rows += [(-1.0, v) for v in _linspace(0.0, span, n_v - n_top)]
        for sheet, v in rows:
            ring(m * math.sinh(v), sheet * m * math.cosh(v))
    else:
        # rho ~ 0 rows collapse onto the apex; the tagged vertex covers them
        for rho in _linspace(-span, span, n_v):
            if abs(rho) <= tol.exact_tol:
                continue
            ring(rho, rho)
        vertex = BellPoint(0.0, 0.0, 0.0, alpha)
        points.append(SurfacePoint(vertex, from_bell(vertex), "vertex"))
    return points

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
for almost every seed matrix X.  generator_directions forms both products
and their max-norms in plain floats, in the order the Mat2 expressions
would, and builds only the two normalized direction matrices.  ruling_rows
gives points of both lines as plain rows, from floats in the same way.
"""

from __future__ import annotations

import enum
import math
import sys

from .errors import (
    AlphaMismatch,
    DegenerateSeed,
    InvalidCount,
    NonFiniteEntry,
    NotAnInvolution,
    NotInHyperplane,
)
from .mat2 import (
    DEFAULT_TOL,
    Mat2,
    Tolerance,
    _finite,
    _plain_finite,
    _pow2_scaled,
    _product_entries,
    _setattr,
    _Value,
)

_SQRT2 = math.sqrt(2.0)
_SQRT_EPS = math.sqrt(sys.float_info.epsilon)

#: The Bell frame axes as vectors in R^4 = (x1, x2, x3, x4).
BELL_BASIS = (
    (1.0 / _SQRT2, 0.0, 0.0, -1.0 / _SQRT2),
    (0.0, 1.0 / _SQRT2, 1.0 / _SQRT2, 0.0),
    (0.0, -1.0 / _SQRT2, 1.0 / _SQRT2, 0.0),
)


class LocusParams(_Value):
    """Target trace and determinant of the matrix locus."""

    __slots__ = ("alpha", "beta")

    def __init__(self, alpha: float, beta: float):
        if not _plain_finite(alpha, beta, 0.0, 0.0):
            alpha, beta = _finite(alpha, "alpha"), _finite(beta, "beta")
        _setattr(self, "alpha", alpha)
        _setattr(self, "beta", beta)


class BellPoint(_Value):
    """(x, y, z) coordinates in the Bell frame of the hyperplane trace=alpha."""

    __slots__ = ("x", "y", "z", "alpha")

    def __init__(self, x: float, y: float, z: float, alpha: float = 0.0):
        if not _plain_finite(x, y, z, alpha):
            x, y, z, alpha = (_finite(x, "x"), _finite(y, "y"),
                              _finite(z, "z"), _finite(alpha, "alpha"))
        _setattr(self, "x", x)
        _setattr(self, "y", y)
        _setattr(self, "z", z)
        _setattr(self, "alpha", alpha)

    def to_json_dict(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "alpha": self.alpha}


class SurfaceTag(enum.Enum):
    ONE_SHEET_HYPERBOLOID = "one_sheet"
    RIGHT_CIRCULAR_CONE = "cone"
    TWO_SHEET_HYPERBOLOID = "two_sheet"


class SurfaceClass(_Value):
    __slots__ = ("tag", "radius_sq")

    def __init__(self, tag: SurfaceTag, radius_sq: float):
        _setattr(self, "tag", tag)
        _setattr(self, "radius_sq", radius_sq)

    def to_json_dict(self) -> dict:
        return {"class": self.tag.value, "radius_sq": self.radius_sq}


class GeneratorPair(_Value):
    """Direction matrices of the two rulings through a point of S(0, -1).

    U satisfies AU = U, UA = -U, U^2 = 0; V satisfies AV = -V, VA = V,
    V^2 = 0.  Both are normalized to unit max-norm (the construction only
    determines them up to scale).
    """

    __slots__ = ("u", "v")

    def __init__(self, u: Mat2, v: Mat2):
        _setattr(self, "u", u)
        _setattr(self, "v", v)


class SurfacePoint(_Value):
    """One sampled point: Bell coordinates, the matrix, and a tag.

    tag is "surface" for locus members and "vertex" for the cone apex,
    which is the scalar matrix excluded from S(alpha, beta) itself.
    """

    __slots__ = ("bell", "matrix", "tag")

    def __init__(self, bell: BellPoint, matrix: Mat2, tag: str = "surface"):
        _setattr(self, "bell", bell)
        _setattr(self, "matrix", matrix)
        _setattr(self, "tag", tag)


def in_locus(m: Mat2, params: LocusParams, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Trace and det match and m is not scalar, each relative to |m| (|m|^2 for det)."""
    a, b, c, d = m.a, m.b, m.c, m.d
    size = max(abs(a), abs(b), abs(c), abs(d))
    if tol.negligible(m.scalar_distance(), size, exact=True):
        return False
    _, a, b, c, d, alpha, size, beta = _pow2_scaled(
        (a, b, c, d, params.alpha, size), (params.beta,), size * size)
    return (tol.negligible(a + d - alpha, size)
            and tol.negligible(a * d - b * c - beta, size * size))


def classify_quadric(params: LocusParams, tol: Tolerance = DEFAULT_TOL) -> SurfaceClass:
    """Surface type of S(alpha, beta) by the sign of alpha^2 - 4*beta.

    It is a cone when alpha^2 - 4 beta is negligible (exact_tol) next to
    alpha^2 + 4|beta|, a test that does not change when alpha and beta are
    scaled as alpha*s and beta*s^2.  Where the squares would overflow or
    lose precision it runs on alpha * 2**-e and beta * 4**-e, which is exact.
    """
    alpha, beta = params.alpha, params.beta
    radius_sq = 0.5 * alpha * alpha - 2.0 * beta
    _, alpha, beta = _pow2_scaled((alpha,), (beta,), alpha * alpha + 4.0 * abs(beta))
    disc = alpha * alpha - 4.0 * beta
    if tol.negligible(disc, alpha * alpha + 4.0 * abs(beta), exact=True):
        return SurfaceClass(SurfaceTag.RIGHT_CIRCULAR_CONE, radius_sq)
    if disc > 0:
        return SurfaceClass(SurfaceTag.ONE_SHEET_HYPERBOLOID, radius_sq)
    return SurfaceClass(SurfaceTag.TWO_SHEET_HYPERBOLOID, radius_sq)


def to_bell(m: Mat2, alpha: float, tol: Tolerance = DEFAULT_TOL) -> BellPoint:
    """Bell coordinates of a matrix lying in the hyperplane trace = alpha.

    Inverts x1 = alpha/2 + x/sqrt2, x2 = (y-z)/sqrt2, x3 = (y+z)/sqrt2,
    x4 = alpha/2 - x/sqrt2.  The trace must match alpha relative to |m|.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    if not tol.negligible(a + d - alpha, max(abs(a), abs(b), abs(c), abs(d))):
        raise NotInHyperplane(f"trace {a + d} != alpha {alpha}")
    x = _SQRT2 * (a - 0.5 * alpha)
    try:
        return BellPoint(x, (b + c) / _SQRT2, (c - b) / _SQRT2, alpha)
    except NonFiniteEntry:
        # b +- c may have left the float range where its quotient fits; both
        # entries are then far above the subnormals, so halving them first is
        # exact and rounds as the sum would
        b, c = 0.5 * b, 0.5 * c
        return BellPoint(x, 2.0 * ((b + c) / _SQRT2), 2.0 * ((c - b) / _SQRT2), alpha)


def from_bell(p: BellPoint) -> Mat2:
    """Matrix with the given Bell coordinates in the hyperplane trace = alpha."""
    half = 0.5 * p.alpha
    try:
        return Mat2(half + p.x / _SQRT2, (p.y - p.z) / _SQRT2, (p.y + p.z) / _SQRT2,
                    half - p.x / _SQRT2)
    except NonFiniteEntry:  # y -+ z may have left the float range: halve first, as to_bell does
        y, z = 0.5 * p.y, 0.5 * p.z
        return Mat2(half + p.x / _SQRT2, 2.0 * ((y - z) / _SQRT2), 2.0 * ((y + z) / _SQRT2),
                    half - p.x / _SQRT2)


def quadric_residual(p: BellPoint, params: LocusParams, tol: Tolerance = DEFAULT_TOL) -> float:
    """x^2 + y^2 - z^2 - (alpha^2/2 - 2*beta); zero iff p lies on the quadric."""
    size = max(abs(p.x), abs(p.y), abs(p.z), abs(p.alpha), abs(params.alpha))
    if not tol.negligible(p.alpha - params.alpha, size, exact=True):
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
    size = m.max_norm()
    _, a, b, c, d, size = _pow2_scaled((*m.entries(), size), (), size * size)
    return tol.negligible(a + d, size) and tol.negligible(a * a + b * c, size * size)


_INVOLUTION_LOCUS = LocusParams(0.0, -1.0)


def generator_directions(
    a: Mat2, x_seed: Mat2, tol: Tolerance = DEFAULT_TOL
) -> GeneratorPair:
    """Ruling directions through a point a of S(0, -1) from a seed matrix.

    Returns U = (a+I)X(a-I) and V = (a-I)X(a+I), each scaled to unit
    max-norm.  Raises DegenerateSeed when the seed nearly annihilates either
    product: when its max-norm is at most sqrt(eps) * |a+I| |X| |a-I|, below
    which the direction is mostly rounding error.  Any generic seed works.

    Past the membership test the work is plain floats.  Each product is
    formed left to right as Mat2's ``@`` forms it, raising NonFiniteEntry
    for the first entry of the first product that is not finite, so the
    results and errors are those of the Mat2 expressions above, bit for bit.
    """
    if not in_locus(a, _INVOLUTION_LOCUS, tol):
        raise NotAnInvolution(f"{a} is not on S(0, -1)")
    m_a, m_b, m_c, m_d = a.a, a.b, a.c, a.d
    x_a, x_b, x_c, x_d = x_seed.a, x_seed.b, x_seed.c, x_seed.d
    # plus = a + I and minus = a - I; b + 0.0 turns -0.0 into 0.0, b - 0.0 is b
    p_a, p_b, p_c, p_d = m_a + 1.0, m_b + 0.0, m_c + 0.0, m_d + 1.0
    n_a, n_d = m_a - 1.0, m_d - 1.0
    u_a, u_b, u_c, u_d = _product_entries(
        *_product_entries(p_a, p_b, p_c, p_d, x_a, x_b, x_c, x_d), n_a, m_b, m_c, n_d)
    v_a, v_b, v_c, v_d = _product_entries(
        *_product_entries(n_a, m_b, m_c, n_d, x_a, x_b, x_c, x_d), p_a, p_b, p_c, p_d)
    u_norm = max(abs(u_a), abs(u_b), abs(u_c), abs(u_d))
    v_norm = max(abs(v_a), abs(v_b), abs(v_c), abs(v_d))
    scale = (_SQRT_EPS * max(abs(p_a), abs(p_b), abs(p_c), abs(p_d))
             * max(abs(x_a), abs(x_b), abs(x_c), abs(x_d))
             * max(abs(n_a), abs(m_b), abs(m_c), abs(n_d)))
    if min(u_norm, v_norm) <= scale:
        raise DegenerateSeed("seed produced a near-zero direction; retry with another seed")
    su = 1.0 / u_norm
    u = Mat2(su * u_a, su * u_b, su * u_c, su * u_d)
    sv = 1.0 / v_norm
    return GeneratorPair(u, Mat2(sv * v_a, sv * v_b, sv * v_c, sv * v_d))


def generator_point(a: Mat2, direction: Mat2, t: float) -> Mat2:
    """Point a + t*direction on the ruling; stays on S(0, -1) for valid
    directions."""
    return a + float(t) * direction


def ruling_rows(
    point: Mat2, pair: GeneratorPair, ts: list[float], tol: Tolerance = DEFAULT_TOL
) -> list[tuple]:
    """The points point + t*U, then point + t*V, for each float t of ts, as
    plain rows (x, y, z, a, b, c, d, "generator").

    (a, b, c, d) are the entries of generator_point(point, direction, t) and
    (x, y, z) those of to_bell(m, 0.0, tol), each worked out from the floats
    by the same expressions, with to_bell's trace test.  A point whose
    values are not all finite, or that fails the test, is built through
    generator_point and to_bell instead: they raise the first error, or,
    where only b + c overflows, give to_bell's halved sums.  The rows and
    errors are therefore those of the validated objects, bit for bit and in
    order.
    """
    p_a, p_b, p_c, p_d = point.a, point.b, point.c, point.d
    negligible = tol.negligible
    rows: list[tuple] = []
    append = rows.append
    for direction in (pair.u, pair.v):
        u_a, u_b, u_c, u_d = direction.a, direction.b, direction.c, direction.d
        for t in ts:
            a, b, c, d = p_a + t * u_a, p_b + t * u_b, p_c + t * u_c, p_d + t * u_d
            # to_bell's expressions and trace test at alpha = 0.0, where
            # a - 0.5 * alpha is a and a + d - alpha is a + d
            x, y, z = _SQRT2 * a, (b + c) / _SQRT2, (c - b) / _SQRT2
            # x, y and z are finite only where a, b and c are
            if (x - x + (y - y) + (z - z) + (d - d) == 0.0
                    and negligible(a + d, max(abs(a), abs(b), abs(c), abs(d)))):
                append((x, y, z, a, b, c, d, "generator"))
            else:
                m = generator_point(point, direction, t)
                bell = to_bell(m, 0.0, tol)
                append((bell.x, bell.y, bell.z, m.a, m.b, m.c, m.d, "generator"))
    return rows


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


#: |alpha/2| + |radial| + |z| below this bounds every coordinate and entry of
#: a ring's points, and every sum that forms them, below the largest float.
_RING_BOUND = 1e308


def surface_rows(
    params: LocusParams,
    n_u: int,
    n_v: int,
    span: float = 2.0,
    tol: Tolerance = DEFAULT_TOL,
) -> list[tuple]:
    """The grid of sample_surface as plain rows (x, y, z, a, b, c, d, tag).

    (x, y, z) are the Bell coordinates in the hyperplane trace = alpha,
    (a, b, c, d) the matrix entries by from_bell's expressions, and tag is
    "surface", or "vertex" for the cone apex.  Every value is a finite float.

    The rows are built ring by ring, a ring being one value of the second
    coordinate.  A ring whose |alpha/2| + |radial| + |z| is below
    _RING_BOUND cannot yield a non-finite value, so its rows are written
    straight from the floats.  Any other ring is built point by point
    through BellPoint and from_bell, which raise NonFiniteEntry for the first
    value that is not finite; a ring factor beyond the float range raises
    OverflowError before its ring is built.  Errors therefore arise in the
    same order as when every point is a validated object.
    """
    if n_u < 1 or n_v < 1:
        raise InvalidCount(f"need n_u, n_v >= 1, got {n_u}, {n_v}")
    surface = classify_quadric(params, tol)
    alpha, beta = params.alpha, params.beta
    e, alpha_s, beta_s = _pow2_scaled((alpha,), (beta,), alpha * alpha + 4.0 * abs(beta))
    radius_sq = 0.5 * alpha_s * alpha_s - 2.0 * beta_s  # r^2 * 4**-e
    azimuths = [2.0 * math.pi * j / n_u for j in range(n_u)]
    trig = [(math.cos(u), math.sin(u)) for u in azimuths]
    half = 0.5 * alpha
    rows: list[tuple] = []
    append = rows.append

    def checked_row(x: float, y: float, z: float, tag: str) -> tuple:
        bell = BellPoint(x, y, z, alpha)
        m = from_bell(bell)
        return (bell.x, bell.y, bell.z, m.a, m.b, m.c, m.d, tag)

    def ring(radial: float, z: float):
        if abs(half) + abs(radial) + abs(z) < _RING_BOUND:
            for cos_u, sin_u in trig:
                x = radial * cos_u
                y = radial * sin_u
                # from_bell's expressions, bit for bit
                append((x, y, z, half + x / _SQRT2, (y - z) / _SQRT2,
                        (y + z) / _SQRT2, half - x / _SQRT2, "surface"))
        else:
            for cos_u, sin_u in trig:
                append(checked_row(radial * cos_u, radial * sin_u, z, "surface"))

    if surface.tag is SurfaceTag.ONE_SHEET_HYPERBOLOID:
        r = math.ldexp(math.sqrt(radius_sq), e)
        for v in _linspace(-span, span, n_v):
            ring(r * math.cosh(v), r * math.sinh(v))
    elif surface.tag is SurfaceTag.TWO_SHEET_HYPERBOLOID:
        m = math.ldexp(math.sqrt(-radius_sq), e)
        n_top = (n_v + 1) // 2
        sheets = [(1.0, v) for v in _linspace(0.0, span, n_top)]
        sheets += [(-1.0, v) for v in _linspace(0.0, span, n_v - n_top)]
        for sheet, v in sheets:
            ring(m * math.sinh(v), sheet * m * math.cosh(v))
    else:
        # rho ~ 0 rows collapse onto the apex; the tagged vertex covers them
        for rho in _linspace(-span, span, n_v):
            if tol.negligible(rho, abs(span), exact=True):
                continue
            ring(rho, rho)
        append(checked_row(0.0, 0.0, 0.0, "vertex"))
    return rows


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

    The points are those of surface_rows, in its order, as validated
    objects; it raises what surface_rows raises.  cos/sin are taken once per
    azimuth and cosh/sinh once per ring, and a point is (ring factor) *
    (azimuth factor): the same products, bit for bit, as r * cosh(v) *
    cos(u) evaluated left to right.  The radius comes from alpha and beta
    scaled as in classify_quadric, so it neither underflows to 0 nor
    overflows where alpha^2 or beta is out of range.
    """
    alpha = params.alpha
    return [SurfacePoint(BellPoint(x, y, z, alpha), Mat2(a, b, c, d), tag)
            for x, y, z, a, b, c, d, tag in surface_rows(params, n_u, n_v, span, tol)]

"""Square roots of I2 as transformations of the cartesian plane.

Each triangular root family factors into two named elementary maps, e.g.

    [[1, b], [0, -1]] = [[1, 0], [0, -1]] [[1, b], [0, 1]]

(reflection in the x-axis after a shear parallel to it).  The general root
with a = rho*cos(phi), b = rho*sin(phi) is an affine-looking sum

    R = R3 R2 R1 + R4,

R1 a clockwise rotation by phi, R2 the x-axis reflection, R3 magnification
by rho, and R4 = [[0, 0], [kappa, 0]] an additive shear with
kappa = (1 - rho^2)/(rho*sin(phi)).

Note the maps the triangular factors perform, (x, y) -> (x + b*y, y) and
(x, y) -> (x, c*x + y), displace each point by an amount proportional to
its other coordinate: shears, not rigid translations, which is what keeps
every factor linear.

decompose classifies a root once, and a general root's factors are then
built from its entries without a second involution test; the public
decompose_general keeps its own checks.
"""

from __future__ import annotations

import enum
import math

from .errors import DegenerateAngle, InvalidCount, NotAnInvolution, WrongDecomposer
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, Vec2, _setattr, _Value
from .roots import (
    _GENERAL,
    _IDENTITY,
    _LOWER_C_MINUS_PLUS,
    _LOWER_C_PLUS_MINUS,
    _NEG_IDENTITY,
    _UPPER_B_MINUS_PLUS,
    _UPPER_B_PLUS_MINUS,
    RootFamily,
    _b_negligible,
    classify_involution,
    is_involution,
)


class TransformKind(enum.Enum):
    REFLECT_X = "reflect_x"                  # (x, y) -> (x, -y)
    REFLECT_Y = "reflect_y"                  # (x, y) -> (-x, y)
    POINT_REFLECT_ORIGIN = "point_reflect_origin"
    SHEAR_X = "shear_x"                      # (x, y) -> (x + b*y, y)
    SHEAR_Y = "shear_y"                      # (x, y) -> (x, c*x + y)
    ROTATE_CLOCKWISE = "rotate_clockwise"
    MAGNIFY = "magnify"
    SHEAR_Y_ADD = "shear_y_add"              # additive term [[0, 0], [kappa, 0]]


# The kinds the per-call constructors tag, as module globals, for the
# reason roots keeps its tags as globals.
_KIND_SHEAR_X = TransformKind.SHEAR_X
_KIND_SHEAR_Y = TransformKind.SHEAR_Y
_KIND_ROTATE_CLOCKWISE = TransformKind.ROTATE_CLOCKWISE
_KIND_MAGNIFY = TransformKind.MAGNIFY
_KIND_SHEAR_Y_ADD = TransformKind.SHEAR_Y_ADD


class ElementaryTransform(_Value):
    __slots__ = ("kind", "matrix", "param", "additive")

    def __init__(self, kind: TransformKind, matrix: Mat2, param: float | None = None,
                 additive: bool = False):
        _setattr(self, "kind", kind)
        _setattr(self, "matrix", matrix)
        _setattr(self, "param", param)
        _setattr(self, "additive", additive)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind.value, "matrix": self.matrix.to_json_dict(),
                     "additive": self.additive}
        if self.param is not None:
            out["param"] = self.param
        return out


#: The parameterless maps are immutable values, built once and shared.
_REFLECT_X = ElementaryTransform(TransformKind.REFLECT_X, Mat2(1.0, 0.0, 0.0, -1.0))
_REFLECT_Y = ElementaryTransform(TransformKind.REFLECT_Y, Mat2(-1.0, 0.0, 0.0, 1.0))
_POINT_REFLECT_ORIGIN = ElementaryTransform(TransformKind.POINT_REFLECT_ORIGIN,
                                            -Mat2.identity())


def reflect_x() -> ElementaryTransform:
    return _REFLECT_X


def reflect_y() -> ElementaryTransform:
    return _REFLECT_Y


def point_reflect_origin() -> ElementaryTransform:
    return _POINT_REFLECT_ORIGIN


def shear_x(b: float) -> ElementaryTransform:
    b = float(b)
    return ElementaryTransform(_KIND_SHEAR_X, Mat2(1.0, b, 0.0, 1.0), b)


def shear_y(c: float) -> ElementaryTransform:
    c = float(c)
    return ElementaryTransform(_KIND_SHEAR_Y, Mat2(1.0, 0.0, c, 1.0), c)


def rotate_clockwise(phi: float) -> ElementaryTransform:
    phi = float(phi)
    cos_phi, sin_phi = math.cos(phi), math.sin(phi)
    return ElementaryTransform(
        _KIND_ROTATE_CLOCKWISE, Mat2(cos_phi, sin_phi, -sin_phi, cos_phi), phi
    )


def magnify(rho: float) -> ElementaryTransform:
    rho = float(rho)
    return ElementaryTransform(_KIND_MAGNIFY, Mat2(rho, 0.0, 0.0, rho), rho)


def shear_y_add(kappa: float) -> ElementaryTransform:
    kappa = float(kappa)
    return ElementaryTransform(
        _KIND_SHEAR_Y_ADD, Mat2(0.0, 0.0, kappa, 0.0), kappa, additive=True
    )


class Decomposition(_Value):
    """Ordered multiplicative factors plus an optional additive term.

    Factors apply right to left, so recompose() multiplies them in the
    listed order, matching matrix products written left to right.
    """

    __slots__ = ("factors", "additive_part")

    def __init__(self, factors: tuple[ElementaryTransform, ...],
                 additive_part: ElementaryTransform | None = None):
        _setattr(self, "factors", factors)
        _setattr(self, "additive_part", additive_part)

    def recompose(self) -> Mat2:
        product = Mat2.identity()
        for factor in self.factors:
            product = product @ factor.matrix
        if self.additive_part is not None:
            product = product + self.additive_part.matrix
        return product

    def apply(self, p: Vec2) -> Vec2:
        return self.recompose().apply(p)

    def to_json_dict(self) -> dict:
        out: dict = {"factors": [f.to_json_dict() for f in self.factors]}
        if self.additive_part is not None:
            out["additive_part"] = self.additive_part.to_json_dict()
        return out


def decompose_case(family: RootFamily) -> Decomposition:
    """Factor a scalar or triangular root into its named elementary maps."""
    tag = family.tag
    if tag is _IDENTITY:
        return Decomposition((magnify(1.0),))
    if tag is _NEG_IDENTITY:
        return Decomposition((point_reflect_origin(),))
    if tag is _UPPER_B_PLUS_MINUS:
        return Decomposition((reflect_x(), shear_x(family.b)))
    if tag is _UPPER_B_MINUS_PLUS:
        return Decomposition((shear_x(family.b), reflect_y()))
    if tag is _LOWER_C_PLUS_MINUS:
        return Decomposition((shear_y(family.c), reflect_x()))
    if tag is _LOWER_C_MINUS_PLUS:
        return Decomposition((reflect_y(), shear_y(family.c)))
    raise WrongDecomposer("general roots decompose via decompose_general")


def _general_factors(a: float, b: float, c: float) -> Decomposition:
    """decompose_general's factors of [[a, b], [c, -a]], with no checks."""
    rho = math.hypot(a, b)
    phi = math.atan2(b, a)
    kappa = c - rho * math.sin(phi)
    return Decomposition((magnify(rho), _REFLECT_X, rotate_clockwise(phi)), shear_y_add(kappa))


def decompose_general(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    """Magnified rotation-reflection plus additive shear for a general root.

    Requires an involution with b not negligible (sin(phi) away from zero);
    b ~ 0 roots are triangular and belong to decompose_case.  The additive
    coefficient (1 - rho^2)/(rho*sin(phi)) is evaluated as the residual
    c - rho*sin(phi), which is the same number without the cancellation.
    """
    if not is_involution(m, tol):
        raise NotAnInvolution(f"{m} does not square to I2")
    if _b_negligible(m.a, m.b, tol):
        raise DegenerateAngle("sin(phi) ~ 0: decompose as a triangular case")
    return _general_factors(m.a, m.b, m.c)


def decompose(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    """Decompose any square root of I2 per its family classification.

    The involution test is classify_involution's alone: a general family
    already has R^2 = I2 and b not negligible, so its factors are built
    without decompose_general's second check.
    """
    family = classify_involution(m, tol)
    if family.tag is _GENERAL:
        return _general_factors(m.a, m.b, m.c)
    return decompose_case(family)


def orbit(transform: Mat2, p: Vec2, steps: int) -> list[Vec2]:
    """[p, Tp, T^2 p, ...] with steps applications of the map."""
    if steps < 1:
        raise InvalidCount(f"need steps >= 1, got {steps}")
    points = [p]
    for _ in range(steps):
        points.append(transform.apply(points[-1]))
    return points

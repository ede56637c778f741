"""Core 2x2 real matrix and 2-vector arithmetic.

A matrix [[a, b], [c, d]] is identified with the point (a, b, c, d) in R^4;
everything else in the package (root families, the hyperboloid loci, the
split-quaternion isomorphism) is built on top of this identification.

All values are immutable and all operations are pure functions, so they are
safe to share across threads.  Value types are frozen dataclasses with
``__slots__``: a point cloud holds tens of thousands of them, and slots take
the per-instance dict off each one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import InvalidTolerance, NonFiniteEntry, NotInvertible

if TYPE_CHECKING:
    import numpy as np


#: A sum of squares above this is accurate far below any tolerance even when
#: some of its terms underflowed; below it, scale the terms up first.
_SAFE_MIN = 1e-290


def _finite(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteEntry(f"{name} must be finite, got {value!r}")
    return value


def _plain_finite(a, b, c, d) -> bool:
    """True iff all four are exact ``float`` and finite, in one test."""
    # x - x is 0.0 only for finite x, and the sum cannot overflow
    return (type(a) is type(b) is type(c) is type(d) is float
            and a - a + (b - b) + (c - c) + (d - d) == 0.0)


@dataclass(frozen=True, slots=True)
class Tolerance:
    """Comparison tolerances: ``abs_tol`` for residual checks, ``exact_tol``
    for round-trips and degeneracy cutoffs (b ~ 0, scalar-matrix distance)."""

    abs_tol: float = 1e-9
    exact_tol: float = 1e-12

    def __post_init__(self):
        if not (0 < self.exact_tol <= self.abs_tol):
            raise InvalidTolerance(
                f"need 0 < exact_tol <= abs_tol, got {self.exact_tol}, {self.abs_tol}"
            )


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True, slots=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self):
        object.__setattr__(self, "x", _finite(self.x, "x"))
        object.__setattr__(self, "y", _finite(self.y, "y"))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Vec2") -> float:
        return max(abs(self.x - other.x), abs(self.y - other.y))


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major 2x2 real matrix [[a, b], [c, d]].

    Constructors reject non-finite entries so every downstream invariant
    check can assume finiteness.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if _plain_finite(self.a, self.b, self.c, self.d):
            return
        for name in ("a", "b", "c", "d"):
            object.__setattr__(self, name, _finite(getattr(self, name), name))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity() -> "Mat2":
        return Mat2(1.0, 0.0, 0.0, 1.0)

    @staticmethod
    def zero() -> "Mat2":
        return Mat2(0.0, 0.0, 0.0, 0.0)

    @staticmethod
    def diag(a: float, d: float) -> "Mat2":
        return Mat2(a, 0.0, 0.0, d)

    @staticmethod
    def scalar(t: float) -> "Mat2":
        return Mat2(t, 0.0, 0.0, t)

    @staticmethod
    def from_array(arr) -> "Mat2":
        import numpy as np

        arr = np.asarray(arr, dtype=float)
        if arr.shape != (2, 2):
            raise ValueError(f"expected shape (2, 2), got {arr.shape}")
        return Mat2(arr[0, 0], arr[0, 1], arr[1, 0], arr[1, 1])

    @staticmethod
    def from_json_dict(obj: dict) -> "Mat2":
        try:
            return Mat2(obj["a"], obj["b"], obj["c"], obj["d"])
        except (KeyError, TypeError) as exc:
            raise ValueError(f"matrix JSON needs keys a, b, c, d: {obj!r}") from exc

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b, self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __rmul__(self, t: float) -> "Mat2":
        t = float(t)
        return Mat2(t * self.a, t * self.b, t * self.c, t * self.d)

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def apply(self, v: Vec2) -> Vec2:
        """The plane map (x, y) -> (ax + by, cx + dy)."""
        return Vec2(self.a * v.x + self.b * v.y, self.c * v.x + self.d * v.y)

    def transpose(self) -> "Mat2":
        return Mat2(self.a, self.c, self.b, self.d)

    def trace(self) -> float:
        return self.a + self.d

    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2":
        det = self.det()
        if abs(det) < 1e-300:
            raise NotInvertible(f"matrix is singular: det = {det}")
        return Mat2(self.d / det, -self.b / det, -self.c / det, self.a / det)

    def max_norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def max_diff(self, other: "Mat2") -> float:
        """Max-norm of self - other; inf where a difference overflows."""
        return max(abs(self.a - other.a), abs(self.b - other.b),
                   abs(self.c - other.c), abs(self.d - other.d))

    def is_symmetric(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return abs(self.b - self.c) <= tol.abs_tol

    def scalar_distance(self) -> float:
        """Max-norm distance to the nearest scalar matrix t*I2."""
        t = 0.5 * (self.a + self.d)
        return max(abs(self.a - t), abs(self.b), abs(self.c), abs(self.d - t))

    # -- interop -----------------------------------------------------------

    def to_array(self) -> np.ndarray:
        import numpy as np

        return np.array([[self.a, self.b], [self.c, self.d]])

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def approx_eq(lhs: Mat2, rhs: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff the entrywise max-norm of (lhs - rhs) is within abs_tol."""
    return lhs.max_diff(rhs) <= tol.abs_tol

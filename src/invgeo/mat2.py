"""Core 2x2 real matrix and 2-vector arithmetic.

A matrix [[a, b], [c, d]] is identified with the point (a, b, c, d) in R^4;
everything else in the package (root families, the hyperboloid loci, the
split-quaternion isomorphism) is built on top of this identification.

All values are immutable and all operations are pure functions, so they are
safe to share across threads.  Value types derive from ``_Value``: frozen,
with ``__slots__`` for fields (a point cloud holds tens of thousands of them,
and slots take the per-instance dict off each one), and with the equality,
hash and repr of a frozen dataclass.  They are written out by hand rather
than generated by ``dataclasses``, whose code generation at import would
dominate the start of a short CLI process.
"""

from __future__ import annotations

import math
from operator import attrgetter

from .errors import InvalidTolerance, NonFiniteEntry, NotInvertible


def _pow2_scaled(values: tuple, squares: tuple, norm_sq: float) -> tuple:
    """(e, *values * 2**-e, *squares * 4**-e), exact, with e even and the size
    max(|values|, sqrt|squares|) scaled into [1/4, 1); e = 0 with no work where
    norm_sq, the caller's square of the size, is in (2**-800, 2**800)."""
    if 2.0**-800 < norm_sq < 2.0**800:
        return (0,) + values + squares
    size = max(map(abs, values))
    if squares:
        size = max(size, math.sqrt(max(map(abs, squares))))
    e = 2 * ((math.frexp(size)[1] + 1) >> 1)
    return (e, *(math.ldexp(v, -e) for v in values), *(math.ldexp(v, -2 * e) for v in squares))


def _finite(value, name: str) -> float:
    value = float(value)
    if not math.isfinite(value):
        raise NonFiniteEntry(f"{name} must be finite, got {value!r}")
    return value


def _json_numbers(obj: dict, keys: str | tuple, what: str) -> tuple:
    """The numbers under keys of a JSON object, such as a matrix's "a" to
    "d".  A missing key, a str, a bool, a null, or an int beyond the float
    range raises ValueError naming the key."""
    try:
        values = tuple([obj[key] for key in keys])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{what} JSON needs keys {', '.join(keys)}: {obj!r}") from exc
    if all(type(value) is float for value in values):
        return values
    numbers = []
    for key, value in zip(keys, values):
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"JSON key {key!r} must be a number, got {value!r}")
        try:
            numbers.append(float(value))
        except OverflowError:
            raise ValueError(f"JSON key {key!r} is an integer beyond the float range") from None
    return tuple(numbers)


def _plain_finite(a, b, c, d) -> bool:
    """True iff all four are exact ``float`` and finite, in one test."""
    # x - x is 0.0 only for finite x, and the sum cannot overflow
    return (type(a) is type(b) is type(c) is type(d) is float
            and a - a + (b - b) + (c - c) + (d - d) == 0.0)


def _product_entries(a, b, c, d, e, f, g, h) -> tuple[float, float, float, float]:
    """The entries of Mat2(a, b, c, d) @ Mat2(e, f, g, h) without building
    either: the same expressions, and the same NonFiniteEntry for the first
    entry that is not finite."""
    pa, pb, pc, pd = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    if pa - pa + (pb - pb) + (pc - pc) + (pd - pd) != 0.0:
        Mat2(pa, pb, pc, pd)  # raises for the first entry that is not finite
    return pa, pb, pc, pd


def _square_residual(a, b, c, d, sa, sb, sc, sd) -> float:
    """||R^2 - S||, max-norm, for R = Mat2(a, b, c, d) and S = Mat2(sa, sb,
    sc, sd), without building either: the entries of R @ R, and the same
    NonFiniteEntry for the first of them that is not finite."""
    # _product_entries(a, b, c, d, a, b, c, d) written out: every
    # is_involution and is_skew_involution runs this, and the extra call
    # took is_involution from 0.70 to 0.86 us (median of 15 alternating
    # same-process rounds, Python 3.11)
    pa, pb, pc, pd = a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d
    if pa - pa + (pb - pb) + (pc - pc) + (pd - pd) != 0.0:
        Mat2(pa, pb, pc, pd)  # raises for the first entry that is not finite
    return max(abs(pa - sa), abs(pb - sb), abs(pc - sc), abs(pd - sd))


def _is_square_root(a, b, c, d, sa, sb, sc, sd, s_norm: float, tol: Tolerance) -> bool:
    """R^2 = S within abs_tol * max(||R||^2, ||S||), max-norms, for R and S
    given by their entries as in _square_residual, and s_norm = ||S||: 1.0
    for +-I2, and taken once per matrix by a caller that tests several roots
    of it.  The test against ||S|| comes first, so a true root never needs
    ||R||^2."""
    residual = _square_residual(a, b, c, d, sa, sb, sc, sd)
    return (tol.negligible(residual, s_norm)
            or tol.negligible(residual, max(a * a, b * b, c * c, d * d)))


_setattr = object.__setattr__


def _restore(cls, values):
    """Unpickle a value: its fields as they were, without re-validation."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        _setattr(obj, name, value)
    return obj


class _Value:
    """Frozen value type whose fields are its ``__slots__`` (two or more).

    Equality, hash and repr are those of ``@dataclass(frozen=True)``: field
    by field, equal only to an instance of the same class, and ``repr``
    reading ``Cls(field=value, ...)``.  Assignment and deletion raise
    ``dataclasses.FrozenInstanceError``.  A subclass's ``__init__`` sets
    each field once with ``object.__setattr__``.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        # one C call reads every field as a tuple, for __eq__ and __hash__
        cls._astuple = attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __eq__(self, other):
        cls = self.__class__
        if other.__class__ is cls:
            astuple = cls._astuple
            return astuple(self) == astuple(other)
        return NotImplemented

    def __hash__(self):
        return hash(self.__class__._astuple(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self.__slots__, self._astuple(self)))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError

        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return _restore, (type(self), self._astuple(self))


class Tolerance(_Value):
    """Two thresholds relative to the size of the inputs, read by ``negligible``:
    ``abs_tol`` for residuals (R^2 = A, a trace, a det, an equality), and
    ``exact_tol`` for degeneracy (b ~ 0, the cone, lightlike, a scalar matrix)."""

    __slots__ = ("abs_tol", "exact_tol")

    def __init__(self, abs_tol: float = 1e-9, exact_tol: float = 1e-12):
        _setattr(self, "abs_tol", abs_tol)
        _setattr(self, "exact_tol", exact_tol)
        if not (0 < exact_tol <= abs_tol):
            raise InvalidTolerance(
                f"need 0 < exact_tol <= abs_tol, got {exact_tol}, {abs_tol}"
            )
        if abs_tol == math.inf:  # every residual check would pass
            raise InvalidTolerance(f"abs_tol must be finite, got {abs_tol}")

    def negligible(self, x: float, scale: float, exact: bool = False) -> bool:
        """|x| <= tol * scale: exact_tol where ``exact`` is set, else abs_tol."""
        return abs(x) <= (self.exact_tol if exact else self.abs_tol) * scale


DEFAULT_TOL = Tolerance()


class Vec2(_Value):
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        _setattr(self, "x", _finite(x, "x"))
        _setattr(self, "y", _finite(y, "y"))

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def norm(self) -> float:
        return math.hypot(self.x, self.y)

    def dist(self, other: "Vec2") -> float:
        return max(abs(self.x - other.x), abs(self.y - other.y))


class Mat2(_Value):
    """Row-major 2x2 real matrix [[a, b], [c, d]].

    Constructors reject non-finite entries so every downstream invariant
    check can assume finiteness.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        if not _plain_finite(a, b, c, d):
            a, b, c, d = (_finite(a, "a"), _finite(b, "b"),
                          _finite(c, "c"), _finite(d, "d"))
        _setattr(self, "a", a)
        _setattr(self, "b", b)
        _setattr(self, "c", c)
        _setattr(self, "d", d)

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
        """The matrix of a 2x2 NumPy array or nested lists or tuples, read by
        indexing.  Each entry is checked as by the constructor."""
        shape = getattr(arr, "shape", None)
        if shape is None and isinstance(arr, (list, tuple)):
            rows = {len(row) if isinstance(row, (list, tuple)) else None for row in arr}
            shape = (len(arr), *rows) if None not in rows and len(rows) < 2 else None
        if shape != (2, 2):
            got = type(arr).__name__ if shape is None else shape
            raise ValueError(f"expected shape (2, 2), got {got}")
        return Mat2(arr[0][0], arr[0][1], arr[1][0], arr[1][1])

    @staticmethod
    def from_json_dict(obj: dict) -> "Mat2":
        return Mat2(*_json_numbers(obj, "abcd", "matrix"))

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
        """The inverse, worked out from the entries scaled by a power of two,
        so that neither an overflowing nor an underflowing det decides.
        NotInvertible where the scaled det is 0 or an entry of the inverse
        is beyond the float range."""
        size = self.max_norm()
        e, a, b, c, d = _pow2_scaled(self.entries(), (), size * size)
        det = a * d - b * c
        try:
            inverse = Mat2(d / det, -b / det, -c / det, a / det)
            return inverse if e == 0 else Mat2(*(math.ldexp(v, -e) for v in inverse.entries()))
        except (ZeroDivisionError, OverflowError, NonFiniteEntry):
            raise NotInvertible(f"matrix is singular: det = {self.det()}") from None

    def max_norm(self) -> float:
        return max(abs(self.a), abs(self.b), abs(self.c), abs(self.d))

    def max_diff(self, other: "Mat2") -> float:
        """Max-norm of self - other; inf where a difference overflows."""
        return max(abs(self.a - other.a), abs(self.b - other.b),
                   abs(self.c - other.c), abs(self.d - other.d))

    def is_symmetric(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        return tol.negligible(self.b - self.c, self.max_norm())

    def scalar_distance(self) -> float:
        """Max-norm distance to the nearest scalar matrix t*I2."""
        t = 0.5 * (self.a + self.d)
        return max(abs(self.a - t), abs(self.b), abs(self.c), abs(self.d - t))

    # -- interop -----------------------------------------------------------

    def to_array(self):
        """The matrix as a 2x2 NumPy array; needs NumPy, which invgeo does not."""
        import numpy as np

        return np.array([[self.a, self.b], [self.c, self.d]])

    def to_json_dict(self) -> dict:
        return {"a": self.a, "b": self.b, "c": self.c, "d": self.d}

    def entries(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)


def approx_eq(lhs: Mat2, rhs: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff |lhs - rhs| is negligible next to max(|lhs|, |rhs|), max-norms."""
    a, b, c, d = lhs.a, lhs.b, lhs.c, lhs.d
    p, q, r, s = rhs.a, rhs.b, rhs.c, rhs.d
    return tol.negligible(max(abs(a - p), abs(b - q), abs(c - r), abs(d - s)),
                          max(abs(a), abs(b), abs(c), abs(d), abs(p), abs(q), abs(r), abs(s)))

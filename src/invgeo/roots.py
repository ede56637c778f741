"""Real square roots of I2 and -I2.

Writing R = [[a, b], [c, d]] and expanding R^2 = I2 gives

    a^2 + bc = 1,   (a+d) b = 0,   (a+d) c = 0,   d^2 + bc = 1.

The trace splits the solutions into the scalar pair +-I2 (a + d != 0), the
four one-parameter triangular families [[+-1, b], [0, -+1]] and
[[+-1, 0], [c, -+1]], and the two-parameter general family

    [[a, b], [(1 - a^2)/b, -a]]        (b != 0),

which subsumes the triangular ones as a -> +-1.  Replacing the right-hand
side by -I2 yields the skew-involutory family [[a, b], [-(1 + a^2)/b, -a]].

Every test of R^2 = +-I2 is mat2._is_square_root with S = +-I2, the test
of R^2 = S that matfun's square roots make too.  It forms the four entries
of R^2 as plain floats and compares them with S without building the
product matrix; it raises NonFiniteEntry, as the product would, where an
entry overflows.  classify_involution makes that one test and then reads
the family and its parameters off the same floats.

Both two-parameter families are the roots [[a, b], [c, -a]] of s * I2 with
c = (s - a^2)/b, s = 1 or -1.  _root_entries builds them, with the checks
the constructors make: make_general_root and make_skew_root build their
Mat2 from it, and the samplers' kernel, _sample, returns its rows
(a, b, c, d) as plain tuples.  _sample draws its (a, b) pairs in batches from one sized
_pcg64 uniform call, 2 * (rows still wanted) draws at a time; each pair
gives at most one row, so it never draws past the pair that completes the
last row and consumes the stream a draw-by-draw loop would.  _sample
imports _pcg64 itself, so a caller that only builds or classifies roots
never loads the generator.  ``roots --sample`` writes those rows out
directly; sample_involutions and sample_skew_involutions wrap each in a
Mat2.
"""

from __future__ import annotations

import enum

from .errors import (
    DegenerateParameter,
    InvalidCount,
    NotAnInvolution,
    WrongConstructor,
)
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, _is_square_root, _json_numbers, _setattr, _Value


class RootTag(enum.Enum):
    """Which solution family of R^2 = I2 a root belongs to."""

    IDENTITY = "identity"
    NEG_IDENTITY = "neg_identity"
    UPPER_B_PLUS_MINUS = "upper_b_plus_minus"    # [[ 1, b], [0, -1]]
    UPPER_B_MINUS_PLUS = "upper_b_minus_plus"    # [[-1, b], [0,  1]]
    LOWER_C_PLUS_MINUS = "lower_c_plus_minus"    # [[ 1, 0], [c, -1]]
    LOWER_C_MINUS_PLUS = "lower_c_minus_plus"    # [[-1, 0], [c,  1]]
    GENERAL = "general"                          # [[a, b], [(1-a^2)/b, -a]]


# The tags as module globals for the per-call paths (classify_involution,
# make_case_root, xform's decompose): on Python 3.11 a member lookup on the
# enum class takes about ten times as long as reading a global.
_IDENTITY = RootTag.IDENTITY
_NEG_IDENTITY = RootTag.NEG_IDENTITY
_UPPER_B_PLUS_MINUS = RootTag.UPPER_B_PLUS_MINUS
_UPPER_B_MINUS_PLUS = RootTag.UPPER_B_MINUS_PLUS
_LOWER_C_PLUS_MINUS = RootTag.LOWER_C_PLUS_MINUS
_LOWER_C_MINUS_PLUS = RootTag.LOWER_C_MINUS_PLUS
_GENERAL = RootTag.GENERAL

_PARAM_SLOTS = {
    _IDENTITY: (),
    _NEG_IDENTITY: (),
    _UPPER_B_PLUS_MINUS: ("b",),
    _UPPER_B_MINUS_PLUS: ("b",),
    _LOWER_C_PLUS_MINUS: ("c",),
    _LOWER_C_MINUS_PLUS: ("c",),
    _GENERAL: ("a", "b"),
}


class RootFamily(_Value):
    """Family tag plus the parameter slots that tag uses (others are None)."""

    __slots__ = ("tag", "a", "b", "c")

    def __init__(self, tag: RootTag, a: float | None = None, b: float | None = None,
                 c: float | None = None):
        _setattr(self, "tag", tag)
        used = _PARAM_SLOTS[tag]
        for slot, value in (("a", a), ("b", b), ("c", c)):
            if slot in used:
                if value is None:
                    raise DegenerateParameter(f"{tag.value} requires parameter {slot}")
                value = float(value)
            elif value is not None:
                raise DegenerateParameter(f"{tag.value} does not take parameter {slot}")
            _setattr(self, slot, value)
        if tag is _GENERAL and self.b == 0.0:
            raise DegenerateParameter("general family requires b != 0")

    def params(self) -> dict:
        return {slot: getattr(self, slot) for slot in _PARAM_SLOTS[self.tag]}

    def to_json_dict(self) -> dict:
        return {"tag": self.tag.value, "params": self.params()}

    @staticmethod
    def from_json_dict(obj: dict) -> "RootFamily":
        tag = RootTag(obj["tag"])
        params = obj.get("params", {})
        keys = tuple(params)
        return RootFamily(tag, **dict(zip(keys, _json_numbers(params, keys, "root family"))))


def _family(tag: RootTag, a: float | None = None, b: float | None = None,
            c: float | None = None) -> RootFamily:
    """RootFamily(tag, a, b, c) from floats that already fill exactly the
    tag's slots, without checking them again."""
    family = object.__new__(RootFamily)
    _setattr(family, "tag", tag)
    _setattr(family, "a", a)
    _setattr(family, "b", b)
    _setattr(family, "c", c)
    return family


def _b_negligible(a: float, b: float, tol: Tolerance) -> bool:
    """b ~ 0 in a root [[a, b], [c, -a]] of +-I2: negligible next to max(1, |a|)."""
    return tol.negligible(b, max(1.0, abs(a)), exact=True)


_B_NEGLIGIBLE = {
    1.0: "b ~ 0: use make_case_root with a triangular or scalar family",
    -1.0: "skew-involutory family requires b != 0",
}


def _root_entries(square: float, a: float, b: float, tol: Tolerance) -> tuple:
    """(a, b, c, -a) with c = (square - a^2)/b, the root [[a, b], [c, -a]] of
    square * I2 for square 1.0 or -1.0 and floats a, b.

    It makes the constructors' checks in their order: DegenerateParameter
    where b ~ 0, then the NonFiniteEntry Mat2 raises for the first entry
    that is not finite.  (-1 - a^2)/b is -(1 + a^2)/b bit for bit, since
    negation is exact and rounding is symmetric.
    """
    if _b_negligible(a, b, tol):
        raise DegenerateParameter(_B_NEGLIGIBLE[square])
    c = (square - a * a) / b
    if a - a + (b - b) + (c - c) != 0.0:
        Mat2(a, b, c, -a)  # raises for the first entry that is not finite
    return a, b, c, -a


def make_general_root(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """General two-parameter square root of I2: [[a, b], [(1-a^2)/b, -a]]."""
    return Mat2(*_root_entries(1.0, float(a), float(b), tol))


def make_case_root(family: RootFamily) -> Mat2:
    """The scalar and triangular involutions (every tag except GENERAL)."""
    tag = family.tag
    if tag is _IDENTITY:
        return Mat2.identity()
    if tag is _NEG_IDENTITY:
        return -Mat2.identity()
    if tag is _UPPER_B_PLUS_MINUS:
        return Mat2(1.0, family.b, 0.0, -1.0)
    if tag is _UPPER_B_MINUS_PLUS:
        return Mat2(-1.0, family.b, 0.0, 1.0)
    if tag is _LOWER_C_PLUS_MINUS:
        return Mat2(1.0, 0.0, family.c, -1.0)
    if tag is _LOWER_C_MINUS_PLUS:
        return Mat2(-1.0, 0.0, family.c, 1.0)
    raise WrongConstructor("use make_general_root for the general family")


def make_root(family: RootFamily, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Dispatch to the matching constructor for any family tag; tol is the
    general family's b ~ 0 threshold."""
    if family.tag is _GENERAL:
        return make_general_root(family.a, family.b, tol)
    return make_case_root(family)


def make_skew_root(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Square root of -I2: [[a, b], [-(1+a^2)/b, -a]] with b != 0."""
    return Mat2(*_root_entries(-1.0, float(a), float(b), tol))


def is_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff R^2 = I2 within abs_tol relative to max(|R|^2, 1)."""
    return _is_square_root(m.a, m.b, m.c, m.d, 1.0, 0.0, 0.0, 1.0, 1.0, tol)


def is_skew_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff R^2 = -I2 within abs_tol relative to max(|R|^2, 1)."""
    return _is_square_root(m.a, m.b, m.c, m.d, -1.0, 0.0, 0.0, -1.0, 1.0, tol)


def classify_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> RootFamily:
    """Recover the family tag and parameters of a square root of I2.

    Case order mirrors the trace split: the scalar pair first, then the
    triangular families (an off-diagonal entry that _b_negligible cuts),
    then the general family.  Degeneracy uses exact_tol so that a general
    root with a small but genuine b stays classified as general.

    The doubly degenerate matrices diag(+-1, -+1) sit on the boundary of an
    upper and a lower family; they come back as the lower one with c = 0.

    As b -> 0, (1 - a^2)/b stops reproducing c; when it misses c beyond
    abs_tol * max(1, |c|) and the lower family rebuilds m more closely
    (its error is max(|b|, |1 - |a||)), the lower family is returned.
    """
    if not is_involution(m, tol):
        raise NotAnInvolution(f"R^2 != I2 within {tol.abs_tol} for {m}")
    a, b, c = m.a, m.b, m.c
    trace = a + m.d
    if trace > 1.0:
        return _family(_IDENTITY)
    if trace < -1.0:
        return _family(_NEG_IDENTITY)
    # trace ~ 0: d = -a and a^2 + bc = 1
    lower = _LOWER_C_PLUS_MINUS if a > 0 else _LOWER_C_MINUS_PLUS
    if _b_negligible(a, b, tol):
        return _family(lower, c=c)
    if _b_negligible(a, c, tol):
        if a > 0:
            return _family(_UPPER_B_PLUS_MINUS, b=b)
        return _family(_UPPER_B_MINUS_PLUS, b=b)
    miss = abs((1.0 - a * a) / b - c)
    if max(abs(b), abs(1.0 - abs(a))) < miss and not tol.negligible(miss, max(1.0, abs(c))):
        return _family(lower, c=c)
    return _family(_GENERAL, a=a, b=b)


_MIN_B = 1e-3  # keeps (1 - a^2)/b bounded so sampled roots stay well conditioned
# the least share of draws whose |b| >= _MIN_B that a sampling range may
# have, so that a range just above _MIN_B cannot draw for ever
_MIN_ACCEPTED = 1 / 1024


def _sample(square: float, n: int, seed: int, param_range: float) -> list[tuple]:
    """Rows (a, b, c, d) of n roots [[a, b], [c, -a]] of square * I2, for
    square 1.0 or -1.0, as _root_entries builds them at DEFAULT_TOL, with
    (a, b) uniform on [-param_range, param_range]^2.

    Draws with |b| < 1e-3 are rejected.  A range that holds no other b, or
    whose draws keep fewer than _MIN_ACCEPTED of them, (r - 1e-3)/r for a
    range r, is refused up front with DegenerateParameter instead of
    drawing for ever; that is every r in [0, 1e-3 * 1024/1023).  Each batch
    draws 2 * (n - rows so far) floats and reads them as (a, b) pairs in
    order.
    """
    if n < 1:
        raise InvalidCount(f"need n >= 1, got {n}")
    if 0.0 <= param_range <= _MIN_B:
        raise DegenerateParameter(
            f"sampling range {param_range} leaves no b with |b| >= {_MIN_B}"
        )
    # exact near the cut: r - 1e-3 by Sterbenz's lemma, r * 2**-10 as a scaling
    if 0.0 < param_range - _MIN_B < param_range * _MIN_ACCEPTED:
        raise DegenerateParameter(
            f"sampling range {param_range} keeps fewer than 1 in "
            f"{1 / _MIN_ACCEPTED:.0f} draws with |b| >= {_MIN_B}"
        )
    from . import _pcg64

    rng = _pcg64.Generator(seed)
    rows: list[tuple] = []
    while len(rows) < n:
        draws = rng.uniform(-param_range, param_range, 2 * (n - len(rows)))
        for a, b in zip(draws[::2], draws[1::2]):
            if abs(b) >= _MIN_B:
                rows.append(_root_entries(square, a, b, DEFAULT_TOL))
    return rows


def sample_involutions(
    n: int, seed: int = 0, param_range: float = 10.0
) -> list[Mat2]:
    """Deterministic-for-seed list of n general-family involutions.

    Draws (a, b) uniformly from [-param_range, param_range]^2, rejecting
    |b| < 1e-3.  A param_range in [0, 1e-3] admits no b, and one below
    1e-3 * 1024/1023 keeps fewer than 1 in 1024 draws; both raise
    DegenerateParameter.
    The draws are those of ``np.random.default_rng(seed)``, reproduced
    without NumPy by :mod:`invgeo._pcg64`.
    """
    return [Mat2(*row) for row in _sample(1.0, n, seed, param_range)]


def sample_skew_involutions(
    n: int, seed: int = 0, param_range: float = 10.0
) -> list[Mat2]:
    """Counterpart of sample_involutions for square roots of -I2."""
    return [Mat2(*row) for row in _sample(-1.0, n, seed, param_range)]

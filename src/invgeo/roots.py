"""Real square roots of I2 and -I2.

Writing R = [[a, b], [c, d]] and expanding R^2 = I2 gives

    a^2 + bc = 1,   (a+d) b = 0,   (a+d) c = 0,   d^2 + bc = 1.

The trace splits the solutions into the scalar pair +-I2 (a + d != 0), the
four one-parameter triangular families [[+-1, b], [0, -+1]] and
[[+-1, 0], [c, -+1]], and the two-parameter general family

    [[a, b], [(1 - a^2)/b, -a]]        (b != 0),

which subsumes the triangular ones as a -> +-1.  Replacing the right-hand
side by -I2 yields the skew-involutory family [[a, b], [-(1 + a^2)/b, -a]].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from . import _pcg64
from .errors import (
    DegenerateParameter,
    InvalidCount,
    NotAnInvolution,
    WrongConstructor,
)
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, approx_eq


class RootTag(enum.Enum):
    """Which solution family of R^2 = I2 a root belongs to."""

    IDENTITY = "identity"
    NEG_IDENTITY = "neg_identity"
    UPPER_B_PLUS_MINUS = "upper_b_plus_minus"    # [[ 1, b], [0, -1]]
    UPPER_B_MINUS_PLUS = "upper_b_minus_plus"    # [[-1, b], [0,  1]]
    LOWER_C_PLUS_MINUS = "lower_c_plus_minus"    # [[ 1, 0], [c, -1]]
    LOWER_C_MINUS_PLUS = "lower_c_minus_plus"    # [[-1, 0], [c,  1]]
    GENERAL = "general"                          # [[a, b], [(1-a^2)/b, -a]]


_PARAM_SLOTS = {
    RootTag.IDENTITY: (),
    RootTag.NEG_IDENTITY: (),
    RootTag.UPPER_B_PLUS_MINUS: ("b",),
    RootTag.UPPER_B_MINUS_PLUS: ("b",),
    RootTag.LOWER_C_PLUS_MINUS: ("c",),
    RootTag.LOWER_C_MINUS_PLUS: ("c",),
    RootTag.GENERAL: ("a", "b"),
}


@dataclass(frozen=True)
class RootFamily:
    """Family tag plus the parameter slots that tag uses (others are None)."""

    tag: RootTag
    a: float | None = None
    b: float | None = None
    c: float | None = None

    def __post_init__(self):
        used = _PARAM_SLOTS[self.tag]
        for slot in ("a", "b", "c"):
            value = getattr(self, slot)
            if slot in used:
                if value is None:
                    raise DegenerateParameter(f"{self.tag.value} requires parameter {slot}")
                object.__setattr__(self, slot, float(value))
            elif value is not None:
                raise DegenerateParameter(f"{self.tag.value} does not take parameter {slot}")
        if self.tag is RootTag.GENERAL and abs(self.b) <= DEFAULT_TOL.exact_tol:
            raise DegenerateParameter("general family requires b != 0")

    def params(self) -> dict:
        return {slot: getattr(self, slot) for slot in _PARAM_SLOTS[self.tag]}

    def to_json_dict(self) -> dict:
        return {"tag": self.tag.value, "params": self.params()}

    @staticmethod
    def from_json_dict(obj: dict) -> "RootFamily":
        tag = RootTag(obj["tag"])
        return RootFamily(tag, **obj.get("params", {}))


def make_general_root(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """General two-parameter square root of I2: [[a, b], [(1-a^2)/b, -a]]."""
    a, b = float(a), float(b)
    if abs(b) <= tol.exact_tol:
        raise DegenerateParameter(
            "b ~ 0: use make_case_root with a triangular or scalar family"
        )
    return Mat2(a, b, (1.0 - a * a) / b, -a)


def make_case_root(family: RootFamily) -> Mat2:
    """The scalar and triangular involutions (every tag except GENERAL)."""
    tag = family.tag
    if tag is RootTag.IDENTITY:
        return Mat2.identity()
    if tag is RootTag.NEG_IDENTITY:
        return -Mat2.identity()
    if tag is RootTag.UPPER_B_PLUS_MINUS:
        return Mat2(1.0, family.b, 0.0, -1.0)
    if tag is RootTag.UPPER_B_MINUS_PLUS:
        return Mat2(-1.0, family.b, 0.0, 1.0)
    if tag is RootTag.LOWER_C_PLUS_MINUS:
        return Mat2(1.0, 0.0, family.c, -1.0)
    if tag is RootTag.LOWER_C_MINUS_PLUS:
        return Mat2(-1.0, 0.0, family.c, 1.0)
    raise WrongConstructor("use make_general_root for the general family")


def make_root(family: RootFamily) -> Mat2:
    """Dispatch to the matching constructor for any family tag."""
    if family.tag is RootTag.GENERAL:
        return make_general_root(family.a, family.b)
    return make_case_root(family)


def make_skew_root(a: float, b: float, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Square root of -I2: [[a, b], [-(1+a^2)/b, -a]] with b != 0."""
    a, b = float(a), float(b)
    if abs(b) <= tol.exact_tol:
        raise DegenerateParameter("skew-involutory family requires b != 0")
    return Mat2(a, b, -(1.0 + a * a) / b, -a)


def is_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff R^2 = I2 within abs_tol."""
    return approx_eq(m @ m, Mat2.identity(), tol)


def is_skew_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff R^2 = -I2 within abs_tol."""
    return approx_eq(m @ m, -Mat2.identity(), tol)


def classify_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> RootFamily:
    """Recover the family tag and parameters of a square root of I2.

    Case order mirrors the trace split: the scalar pair first, then the
    triangular families (an off-diagonal entry within exact_tol of zero),
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
    trace = m.trace()
    if trace > 1.0:
        return RootFamily(RootTag.IDENTITY)
    if trace < -1.0:
        return RootFamily(RootTag.NEG_IDENTITY)
    # trace ~ 0: d = -a and a^2 + bc = 1
    lower = RootTag.LOWER_C_PLUS_MINUS if m.a > 0 else RootTag.LOWER_C_MINUS_PLUS
    if abs(m.b) <= tol.exact_tol:
        return RootFamily(lower, c=m.c)
    if abs(m.c) <= tol.exact_tol:
        if m.a > 0:
            return RootFamily(RootTag.UPPER_B_PLUS_MINUS, b=m.b)
        return RootFamily(RootTag.UPPER_B_MINUS_PLUS, b=m.b)
    miss = abs((1.0 - m.a * m.a) / m.b - m.c)
    if miss > tol.abs_tol * max(1.0, abs(m.c)) and max(abs(m.b), abs(1.0 - abs(m.a))) < miss:
        return RootFamily(lower, c=m.c)
    return RootFamily(RootTag.GENERAL, a=m.a, b=m.b)


_MIN_B = 1e-3  # keeps (1 - a^2)/b bounded so sampled roots stay well conditioned


def _sample(make, n: int, seed: int, param_range: float) -> list[Mat2]:
    """n roots make(a, b), (a, b) uniform on [-param_range, param_range]^2.

    Draws with |b| < 1e-3 are rejected; a range that holds no other b is
    refused up front instead of looping forever.
    """
    if n < 1:
        raise InvalidCount(f"need n >= 1, got {n}")
    if 0.0 <= param_range <= _MIN_B:
        raise DegenerateParameter(
            f"sampling range {param_range} leaves no b with |b| >= {_MIN_B}"
        )
    rng = _pcg64.Generator(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(-param_range, param_range)
        b = rng.uniform(-param_range, param_range)
        if abs(b) < _MIN_B:
            continue
        out.append(make(a, b))
    return out


def sample_involutions(
    n: int, seed: int = 0, param_range: float = 10.0
) -> list[Mat2]:
    """Deterministic-for-seed list of n general-family involutions.

    Draws (a, b) uniformly from [-param_range, param_range]^2, rejecting
    |b| < 1e-3; a param_range in [0, 1e-3] admits no b and raises
    DegenerateParameter.
    The draws are those of ``np.random.default_rng(seed)``, reproduced
    without NumPy by :mod:`invgeo._pcg64`.
    """
    return _sample(make_general_root, n, seed, param_range)


def sample_skew_involutions(
    n: int, seed: int = 0, param_range: float = 10.0
) -> list[Mat2]:
    """Counterpart of sample_involutions for square roots of -I2."""
    return _sample(make_skew_root, n, seed, param_range)

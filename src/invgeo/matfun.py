"""Square roots, root counts and matrix functions of 2x2 real matrices.

Square roots are closed-form (Cayley-Hamilton; B. W. Levinger, "The square
root of a 2x2 matrix", Math. Mag. 53 (1980); N. J. Higham, Functions of
Matrices (2008), ch. 1 and 6): every real root of a non-scalar A is
R = (A + sI)/t, s = det R = +-sqrt(det A), t = tr R = +-sqrt(tr A + 2s),
one for each real choice with t^2 > 0.  Counting all real square roots:

    distinct eigenvalues 0 < l1 < l2   -> exactly 4
    diag(l, 0), l > 0                  -> exactly 2
    Jordan block, l > 0                -> exactly 2
    complex spectrum                   -> exactly 2
    nilpotent, negative or mixed-sign  -> none
    scalar  l*I2                       -> infinitely many (any sign of l)

The scalar case is infinite for l < 0 too: S(l*I2) = sqrt(-l) * S(-I2) and
the skew-involutions form a two-parameter family.  A general f needs no
Jordan form: on a real spectrum l1 <= l2, f(A) = f(l1) I + f[l1, l2] (A - l1 I)
with the divided difference f[l, l] = f'(l) (Higham 2008, sec. 1.2).
"""

from __future__ import annotations

import enum
import math
import sys
from collections.abc import Callable

from .errors import (
    ComplexEigenvalues,
    FunctionUndefinedAtEigenvalue,
    NonPositiveScale,
    NotASquareRoot,
    NotInvertible,
    SingularConjugator,
)
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, _is_square_root, _pow2_scaled, _setattr, _Value


class ScalarFunction(_Value):
    """Scalar function plus its divided difference.

    divided_difference(x, y) is f[x, y] = (f(y) - f(x)) / (y - x), and f'(x)
    at x = y; given in a form free of that cancellation, it keeps f(A)
    accurate for nearly equal and equal eigenvalues.
    """

    __slots__ = ("f", "divided_difference", "name")

    def __init__(self, f: Callable[[float], float],
                 divided_difference: Callable[[float, float], float] | None = None,
                 name: str = ""):
        _setattr(self, "f", f)
        _setattr(self, "divided_difference", divided_difference)
        _setattr(self, "name", name)


def _sqrt(x: float) -> float:
    return math.sqrt(x)


def _sqrt_divided_difference(x: float, y: float) -> float:
    return 1.0 / (math.sqrt(x) + math.sqrt(y))


SQRT = ScalarFunction(_sqrt, _sqrt_divided_difference, name="sqrt")
SQUARE = ScalarFunction(lambda x: x * x, lambda x, y: x + y, name="square")

_SQRT_EPS = math.sqrt(sys.float_info.epsilon)


class Cardinality(enum.Enum):
    ZERO = "zero"
    FINITE = "finite"
    INFINITE = "infinite"


class RootCardinality(_Value):
    __slots__ = ("tag", "n")

    def __init__(self, tag: Cardinality, n: int | None = None):
        _setattr(self, "tag", tag)
        _setattr(self, "n", n)

    def to_json_dict(self) -> dict:
        out: dict = {"tag": self.tag.value}
        if self.n is not None:
            out["n"] = self.n
        return out


#: count_real_roots' answers, built once: for a non-scalar matrix by the
#: number of real roots (one trace each), and for a scalar one.
_COUNTS = {0: RootCardinality(Cardinality.ZERO),
           2: RootCardinality(Cardinality.FINITE, 2),
           4: RootCardinality(Cardinality.FINITE, 4)}
_INFINITELY_MANY = RootCardinality(Cardinality.INFINITE)


def eigen2(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Real eigenvalues in ascending order; raises on a complex spectrum.

    The closed form runs on m, rescaled by _pow2_scaled where its squares
    would leave the float range, which is exact.
    The spectrum is complex when the discriminant (a - d)^2 + 4bc is below
    zero and not negligible (exact_tol) next to max|entry|^2, a decision that
    scaling m by a power of two does not change.  A negligible negative one,
    which rounding can leave on a double eigenvalue, is taken as zero.  An
    eigenvalue beyond the float range raises OverflowError.
    """
    size = m.max_norm()
    e, a, b, c, d, size = _pow2_scaled((*m.entries(), size), (), size * size)
    tr, det = a + d, a * d - b * c
    # (a - d)^2 + 4bc equals tr^2 - 4 det without cancelling the squares
    diff = a - d
    disc = diff * diff + 4.0 * b * c
    if disc < 0.0 and not tol.negligible(disc, size * size, exact=True):
        diff = m.a - m.d  # the unscaled discriminant: -inf where its terms overflow
        disc = diff * diff + 4.0 * m.b * m.c
        raise ComplexEigenvalues(f"discriminant {-math.inf if math.isnan(disc) else disc} < 0")
    # larger-magnitude root first; the other from det, free of cancellation
    big = 0.5 * (tr + math.copysign(math.sqrt(max(disc, 0.0)), tr))
    if big == 0.0:
        return (0.0, 0.0)
    other = det / big
    return (math.ldexp(min(other, big), e), math.ldexp(max(other, big), e))


def _is_scalar(m: Mat2) -> bool:
    return m.b == 0.0 and m.c == 0.0 and m.a == m.d


def _evaluate(g: Callable[..., float], what: str, *args: float) -> float:
    """g(*args), or FunctionUndefinedAtEigenvalue where g raises or is not finite."""
    try:
        value = g(*args)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FunctionUndefinedAtEigenvalue(f"{what} undefined: {exc}") from exc
    if not math.isfinite(value):
        raise FunctionUndefinedAtEigenvalue(f"{what} = {value}")
    return value


def matrix_function(m: Mat2, fn: ScalarFunction, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """f(m) = f(l1) I + f[l1, l2] (m - l1 I) for the real eigenvalues l1 <= l2.

    The two-point interpolant of f on the spectrum, which is f(m) for any
    2x2 m, defective or not (Higham 2008, sec. 1.2).  The slope is
    fn.divided_difference(l1, l2); without one it is the secant, refused
    where l2 - l1 <= sqrt(eps) * max(|l1|, |l2|).  A scalar m gives f(l) I;
    a complex spectrum raises ComplexEigenvalues.
    """
    name = fn.name or "f"
    if _is_scalar(m):
        return Mat2.scalar(_evaluate(fn.f, f"{name}({m.a})", m.a))
    lam1, lam2 = eigen2(m, tol)
    f1 = _evaluate(fn.f, f"{name}({lam1})", lam1)
    f2 = _evaluate(fn.f, f"{name}({lam2})", lam2)
    if fn.divided_difference is not None:
        s = _evaluate(fn.divided_difference, f"{name}[{lam1}, {lam2}]", lam1, lam2)
    elif lam2 - lam1 > _SQRT_EPS * max(abs(lam1), abs(lam2)):
        s = (f2 - f1) / (lam2 - lam1)
    else:
        raise FunctionUndefinedAtEigenvalue(
            f"{name}[{lam1}, {lam2}] not supplied for eigenvalues this close")
    return Mat2(f1 + s * (m.a - lam1), s * m.b, s * m.c, f1 + s * (m.d - lam1))


def _root_traces(a: float, b: float, c: float, d: float) -> tuple[float, ...]:
    """Traces t of the real square roots of non-scalar [[a, b], [c, d]].

    t^2 = tr + 2s with s = +-sqrt(det); the two values multiply to disc, so
    the one free of cancellation is formed directly and the other from disc.
    Ordered as the per-eigenvalue signs (+,+), (+,-), (-,+), (-,-).
    """
    tr, det = a + d, a * d - b * c
    if det < 0.0:
        return ()
    diff = a - d
    disc = diff * diff + 4.0 * b * c
    twice_root_det = 2.0 * math.sqrt(det)
    if tr >= 0.0:
        plus = tr + twice_root_det
        minus = disc / plus if plus > 0.0 else 0.0
    else:
        minus = tr - twice_root_det
        plus = disc / minus
    if plus <= 0.0:
        return ()
    tp = math.sqrt(plus)
    if minus <= 0.0 or det == 0.0:  # det = 0: the one choice s = 0
        return (tp, -tp)
    tm = math.sqrt(minus)
    return (tp, -tm, tm, -tp)


#: The sign of det R = +-sqrt(det m) for each trace _root_traces lists, by
#: how many it lists.
_DET_SIGNS = {0: (), 2: (1.0, 1.0), 4: (1.0, -1.0, -1.0, 1.0)}


def _branches(m: Mat2, tol: Tolerance, limit: int = 4) -> list[Mat2]:
    """The first ``limit`` roots that sqrt_branches lists, computing no more."""
    if _is_scalar(m):
        if m.a > 0.0:
            s = math.sqrt(m.a)
            return [Mat2.scalar(s), Mat2.scalar(-s)][:limit]
        return [Mat2.zero()] if m.a == 0.0 else []
    norm = m.max_norm()
    e, a, b, c, d = _pow2_scaled(m.entries(), (), norm * norm)
    k = e >> 1  # a root of m * 4**-k is a root of m times 2**-k
    norm = math.ldexp(norm, -e)  # ||m * 4**-k||, exact: its largest entry stays normal
    half_diff = 0.5 * (a - d)
    traces = _root_traces(a, b, c, d)
    root_det = math.sqrt(a * d - b * c) if traces else 0.0
    roots: list[Mat2] = []
    for t, s in zip(traces[:limit], _DET_SIGNS[len(traces)]):
        p, h = half_diff / t, 0.5 * t
        # + 0.0 turns a -0.0, such as 0.0 / t with t < 0, into 0.0
        ra, rb, rc, rd = h + p, b / t + 0.0, c / t + 0.0, h - p
        # h -+ p cancels in the diagonal entry of the smaller eigenvalue's
        # root.  That entry is taken from det R = s instead where this rounds
        # less; in units of eps, (s + bc) / other errs by about
        # (sqrt(det) + |bc|) / |other|, and h -+ p by |h| + |p|
        if abs(rd) < 0.5 * abs(ra):
            if root_det + abs(rb * rc) < abs(ra) * (abs(h) + abs(p)):
                rd = (s * root_det + rb * rc) / ra + 0.0
        elif abs(ra) < 0.5 * abs(rd):
            if root_det + abs(rb * rc) < abs(rd) * (abs(h) + abs(p)):
                ra = (s * root_det + rb * rc) / rd + 0.0
        if _is_square_root(ra, rb, rc, rd, a, b, c, d, norm, tol):
            roots.append(Mat2(math.ldexp(ra, k), math.ldexp(rb, k),
                              math.ldexp(rc, k), math.ldexp(rd, k)))
    return roots


def sqrt_branches(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> list[Mat2]:
    """All real square roots of a non-scalar m; +-sqrt(lam) I2 for lam I2.

    R = (m + sI)/t is evaluated on m * 4**-k as N/t + (t/2) I, N the
    traceless part, free of the cancellation in m + sI near coincident
    eigenvalues; the primary root comes first.  Where the eigenvalues are
    far apart, the diagonal entry of the smaller one's root is taken from
    det R = s, free of the cancellation in N/t + (t/2) I.  Each root passes
    mat2._is_square_root, ||R^2 - m|| <= abs_tol * max(||m||, ||R||^2);
    one beyond the float range raises OverflowError.  A positive scalar
    matrix gives only its primary roots, zero gives [0], a negative one [].
    """
    return _branches(m, tol)


def principal_sqrt(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """The principal square root: det R = +sqrt(det m) and tr R > 0.

    The root of the first trace sqrt_branches lists, computed alone, in the
    same way and under the same mat2._is_square_root: the one whose
    eigenvalues lie in the open right half-plane.  It exists for positive
    eigenvalues, Jordan blocks and complex pairs (rotations,
    skew-involutions) alike; diag(lam, 0) gives diag(sqrt(lam), 0) and a
    scalar lam I2 with lam >= 0 gives sqrt(lam) I2.  Negative or mixed
    spectra, a nilpotent block and lam I2 with lam < 0 raise
    FunctionUndefinedAtEigenvalue, as matrix_function(m, SQRT) does.
    """
    roots = _branches(m, tol, 1)
    if not roots:
        raise FunctionUndefinedAtEigenvalue(f"{m} has no real principal square root")
    return roots[0]


def count_real_roots(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> RootCardinality:
    """How many real square roots m has: zero, finitely many, or infinitely.

    Scalar matrices always have infinitely many (scaled involutions for
    lam > 0, nilpotents for lam = 0, scaled skew-involutions for lam < 0);
    any other matrix has a pair +-R for each real root trace t.
    """
    if _is_scalar(m):
        return _INFINITELY_MANY
    size = m.max_norm()
    return _COUNTS[len(_root_traces(*_pow2_scaled(m.entries(), (), size * size)[1:]))]


def scaled_roots(m: Mat2, alpha: float, root: Mat2, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Map a root of m to a root of alpha*m: sqrt(alpha)*root (alpha > 0)."""
    alpha = float(alpha)
    if not alpha > 0:  # NaN fails this test too
        raise NonPositiveScale(f"need alpha > 0, got {alpha}")
    if not _is_square_root(*root.entries(), *m.entries(), m.max_norm(), tol):
        raise NotASquareRoot("root^2 != m within tolerance")
    return math.sqrt(alpha) * root


def conjugated_roots(m: Mat2, zc: Mat2, root: Mat2, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Map a root of m to a root of zc^-1 m zc: zc^-1 root zc."""
    try:
        zc_inv = zc.inverse()
    except NotInvertible as exc:
        raise SingularConjugator(str(exc)) from exc
    if not _is_square_root(*root.entries(), *m.entries(), m.max_norm(), tol):
        raise NotASquareRoot("root^2 != m within tolerance")
    return zc_inv @ root @ zc

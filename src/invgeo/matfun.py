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
the skew-involutions form a two-parameter family.  The Jordan form serves
general f only: f(A) = Z f(J) Z^-1 with f entrywise on a diagonal J and
f([[lam, 1], [0, lam]]) = [[f(lam), f'(lam)], [0, f(lam)]].
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Callable

from .errors import (
    ComplexEigenvalues,
    FunctionUndefinedAtEigenvalue,
    NonPositiveScale,
    NotASquareRoot,
    SingularConjugator,
)
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, _setattr, _Value, approx_eq

# Jordan structure is discontinuous; nearly equal eigenvalues are merged at
# this relative scale.
_EIG_COINCIDENCE = 1e-8


class JordanKind(enum.Enum):
    DISTINCT_DIAG = "distinct_diag"
    SCALAR_DIAG = "scalar_diag"
    JORDAN_BLOCK = "jordan_block"


class Jordan2(_Value):
    """Similarity transform z and Jordan form of a real-spectrum matrix."""

    __slots__ = ("z", "kind", "eig1", "eig2")

    def __init__(self, z: Mat2, kind: JordanKind, eig1: float, eig2: float):
        _setattr(self, "z", z)
        _setattr(self, "kind", kind)
        _setattr(self, "eig1", eig1)
        _setattr(self, "eig2", eig2)

    def j_matrix(self) -> Mat2:
        if self.kind is JordanKind.JORDAN_BLOCK:
            return Mat2(self.eig1, 1.0, 0.0, self.eig1)
        return Mat2.diag(self.eig1, self.eig2)

    def reconstruct(self) -> Mat2:
        return self.z @ self.j_matrix() @ self.z.inverse()


class ScalarFunction(_Value):
    """Scalar function plus first derivative (needed only on Jordan blocks)."""

    __slots__ = ("f", "f_prime", "name")

    def __init__(self, f: Callable[[float], float],
                 f_prime: Callable[[float], float] | None = None, name: str = ""):
        _setattr(self, "f", f)
        _setattr(self, "f_prime", f_prime)
        _setattr(self, "name", name)


def _sqrt(x: float) -> float:
    return math.sqrt(x)


def _sqrt_prime(x: float) -> float:
    return 0.5 / math.sqrt(x)


SQRT = ScalarFunction(_sqrt, _sqrt_prime, name="sqrt")
SQUARE = ScalarFunction(lambda x: x * x, lambda x: 2.0 * x, name="square")


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


def _ldexp_sat(x: float, k: int) -> float:
    """x * 2**k, saturating to +-inf where math.ldexp would raise."""
    try:
        return math.ldexp(x, k)
    except OverflowError:
        return math.copysign(math.inf, x)


def _quarter_scaled(m: Mat2) -> tuple[int, float, float, float, float]:
    """(k, m * 4**-k) with the largest entry in [0.25, 1): exact, and no
    product of the scaled entries can overflow."""
    k = (math.frexp(max(abs(m.a), abs(m.b), abs(m.c), abs(m.d)))[1] + 1) >> 1
    return (k, math.ldexp(m.a, -2 * k), math.ldexp(m.b, -2 * k),
            math.ldexp(m.c, -2 * k), math.ldexp(m.d, -2 * k))


def eigen2(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Real eigenvalues in ascending order; raises on a complex spectrum.

    The closed form runs on m scaled as by _quarter_scaled, so it is
    bit-identical to the unscaled formula wherever that one stays in range.
    An eigenvalue beyond the float range raises OverflowError.
    """
    k, a, b, c, d = _quarter_scaled(m)
    e = 2 * k
    tr, det = a + d, a * d - b * c
    # (a - d)^2 + 4bc equals tr^2 - 4 det without cancelling the squares
    diff = a - d
    disc = diff * diff + 4.0 * b * c
    if disc < 0.0 and disc < -_ldexp_sat(tol.exact_tol, -2 * e):
        raise ComplexEigenvalues(f"discriminant {_ldexp_sat(disc, 2 * e)} < 0")
    # larger-magnitude root first; the other from det, free of cancellation
    big = 0.5 * (tr + math.copysign(math.sqrt(max(disc, 0.0)), tr))
    if big == 0.0:
        return (0.0, 0.0)
    other = det / big
    return (math.ldexp(min(other, big), e), math.ldexp(max(other, big), e))


def _kernel_direction(m: Mat2) -> tuple[float, float]:
    # direction orthogonal to both rows; pick the better-conditioned row
    cand1 = (m.b, -m.a)
    cand2 = (m.d, -m.c)
    n1 = math.hypot(*cand1)
    n2 = math.hypot(*cand2)
    if n1 >= n2:
        return (cand1[0] / n1, cand1[1] / n1) if n1 > 0 else (1.0, 0.0)
    return (cand2[0] / n2, cand2[1] / n2)


def jordan2(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> Jordan2:
    """Jordan decomposition m = Z J Z^-1 for a real-spectrum matrix."""
    lam1, lam2 = eigen2(m, tol)
    scale = max(1.0, abs(lam1), abs(lam2))
    if lam2 - lam1 >= _EIG_COINCIDENCE * scale:
        v1 = _kernel_direction(m - Mat2.scalar(lam1))
        v2 = _kernel_direction(m - Mat2.scalar(lam2))
        z = Mat2(v1[0], v2[0], v1[1], v2[1])
        return Jordan2(z, JordanKind.DISTINCT_DIAG, lam1, lam2)
    lam = 0.5 * m.trace()
    nil = m - Mat2.scalar(lam)
    # diagonal deviation is already below the coincidence band, so only the
    # off-diagonals decide between scalar and defective structure
    if max(abs(nil.b), abs(nil.c)) <= tol.abs_tol * scale:
        return Jordan2(Mat2.identity(), JordanKind.SCALAR_DIAG, lam, lam)
    # rank-1 nilpotent part: columns (N e, e) give A[Ne|e] = [Ne|e] J(lam)
    if abs(nil.c) >= abs(nil.b):
        v, e = (nil.a, nil.c), (1.0, 0.0)
    else:
        v, e = (nil.b, nil.d), (0.0, 1.0)
    z = Mat2(v[0], e[0], v[1], e[1])
    return Jordan2(z, JordanKind.JORDAN_BLOCK, lam, lam)


def matrix_function(m: Mat2, fn: ScalarFunction, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """f(m) via the Jordan definition; needs f' only on a Jordan block."""
    dec = jordan2(m, tol)

    def eval_at(g: Callable[[float], float] | None, lam: float, what: str) -> float:
        if g is None:
            raise FunctionUndefinedAtEigenvalue(f"{what} not supplied for eigenvalue {lam}")
        try:
            value = g(lam)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise FunctionUndefinedAtEigenvalue(f"{what}({lam}) undefined: {exc}") from exc
        if not math.isfinite(value):
            raise FunctionUndefinedAtEigenvalue(f"{what}({lam}) = {value}")
        return value

    if dec.kind is JordanKind.JORDAN_BLOCK:
        f_val = eval_at(fn.f, dec.eig1, fn.name or "f")
        fp_val = eval_at(fn.f_prime, dec.eig1, f"{fn.name or 'f'}'")
        core = Mat2(f_val, fp_val, 0.0, f_val)
    else:
        core = Mat2.diag(
            eval_at(fn.f, dec.eig1, fn.name or "f"),
            eval_at(fn.f, dec.eig2, fn.name or "f"),
        )
    return dec.z @ core @ dec.z.inverse()


def _is_scalar(m: Mat2) -> bool:
    return m.b == 0.0 and m.c == 0.0 and m.a == m.d


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


def _branches(m: Mat2, tol: Tolerance, limit: int = 4) -> list[Mat2]:
    """The first ``limit`` roots that sqrt_branches lists, computing no more."""
    if _is_scalar(m):
        if m.a > 0.0:
            s = math.sqrt(m.a)
            return [Mat2.scalar(s), Mat2.scalar(-s)][:limit]
        return [Mat2.zero()] if m.a == 0.0 else []
    k, a, b, c, d = _quarter_scaled(m)
    half_diff = 0.5 * (a - d)
    # max(1, ||m||) in units of the scaled matrix
    floor = max(_ldexp_sat(1.0, -2 * k), abs(a), abs(b), abs(c), abs(d))
    roots: list[Mat2] = []
    for t in _root_traces(a, b, c, d)[:limit]:
        p, h = half_diff / t, 0.5 * t
        # + 0.0 turns the -0.0 of 0.0 / t (t < 0) into 0.0
        ra, rb, rc, rd = h + p, b / t + 0.0, c / t + 0.0, h - p
        bc, tr = rb * rc, ra + rd
        residual = max(abs(ra * ra + bc - a), abs(rb * tr - b), abs(rc * tr - c),
                       abs(rd * rd + bc - d))
        size = max(abs(ra), abs(rb), abs(rc), abs(rd))
        if residual <= tol.abs_tol * max(floor, size * size):
            roots.append(Mat2(math.ldexp(ra, k), math.ldexp(rb, k),
                              math.ldexp(rc, k), math.ldexp(rd, k)))
    return roots


def sqrt_branches(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> list[Mat2]:
    """All real square roots of a non-scalar m; +-sqrt(lam) I2 for lam I2.

    R = (m + sI)/t is evaluated on m * 4**-k as N/t + (t/2) I, N the
    traceless part, free of the cancellation in m + sI near coincident
    eigenvalues; the primary root comes first.  Each root passes
    ||R^2 - m|| <= abs_tol * max(1, ||m||, ||R||^2); one beyond the float
    range raises OverflowError.  A positive scalar matrix gives only its
    primary roots, zero gives [0], a negative one [].
    """
    return _branches(m, tol)


def principal_sqrt(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """The principal square root: det R = +sqrt(det m) and tr R > 0.

    The root of the first trace sqrt_branches lists, computed alone and
    under the same residual check: the one whose eigenvalues lie in the
    open right half-plane.  It exists for positive eigenvalues, Jordan
    blocks and complex pairs (rotations, skew-involutions) alike;
    diag(lam, 0) gives diag(sqrt(lam), 0) and a scalar lam I2 with
    lam >= 0 gives sqrt(lam) I2.  Negative or mixed spectra, a nilpotent
    block and lam I2 with lam < 0 raise FunctionUndefinedAtEigenvalue, as
    matrix_function(m, SQRT) does.
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
        return RootCardinality(Cardinality.INFINITE)
    n = len(_root_traces(*_quarter_scaled(m)[1:]))
    return RootCardinality(Cardinality.FINITE, n) if n else RootCardinality(Cardinality.ZERO)


def scaled_roots(m: Mat2, alpha: float, root: Mat2, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Map a root of m to a root of alpha*m: sqrt(alpha)*root (alpha > 0)."""
    alpha = float(alpha)
    if alpha <= 0:
        raise NonPositiveScale(f"need alpha > 0, got {alpha}")
    if not approx_eq(root @ root, m, tol):
        raise NotASquareRoot("root^2 != m within tolerance")
    return math.sqrt(alpha) * root


def conjugated_roots(m: Mat2, zc: Mat2, root: Mat2, tol: Tolerance = DEFAULT_TOL) -> Mat2:
    """Map a root of m to a root of zc^-1 m zc: zc^-1 root zc."""
    if abs(zc.det()) <= tol.exact_tol:
        raise SingularConjugator(f"det = {zc.det()}")
    if not approx_eq(root @ root, m, tol):
        raise NotASquareRoot("root^2 != m within tolerance")
    zc_inv = zc.inverse()
    return zc_inv @ root @ zc


class RootSearchGrid(_Value):
    """Start-point lattice for the brute-force root search.

    dedup_tol is deliberately coarse: near a zero eigenvalue the residual
    ||X^2 - A|| is quadratically flat, so converged iterates can sit up to
    sqrt(residual_tol) away from the true root.
    """

    __slots__ = ("points_per_axis", "lo", "hi", "residual_tol", "dedup_tol")

    def __init__(self, points_per_axis: int = 4, lo: float = -3.0, hi: float = 3.0,
                 residual_tol: float = 1e-9, dedup_tol: float = 1e-4):
        _setattr(self, "points_per_axis", points_per_axis)
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "residual_tol", residual_tol)
        _setattr(self, "dedup_tol", dedup_tol)


def brute_force_roots(m: Mat2, grid: RootSearchGrid = RootSearchGrid()) -> list[Mat2]:
    """Independent enumeration oracle: multi-start solves of X^2 = m.

    Returns the de-duplicated solutions found from a deterministic lattice
    of starting points.  Exhaustive only in the finite-root cases; for
    matrices with infinitely many roots the count simply grows with the
    lattice density.  Needs SciPy (a test extra, not a runtime
    dependency), which it loads on first call.
    """
    import numpy as np
    from scipy import optimize

    target = m.to_array()

    def residual(v: np.ndarray) -> np.ndarray:
        x = v.reshape(2, 2)
        return (x @ x - target).ravel()

    axis = np.linspace(grid.lo, grid.hi, grid.points_per_axis)
    found: list[Mat2] = []
    for start in itertools.product(axis, repeat=4):
        sol = optimize.root(residual, np.array(start), method="hybr")
        x = sol.x.reshape(2, 2)
        if not np.isfinite(x).all():
            continue
        if np.abs(x @ x - target).max() > grid.residual_tol:
            continue
        candidate = Mat2.from_array(x)
        if all(candidate.max_diff(r) > grid.dedup_tol for r in found):
            found.append(candidate)
    return found

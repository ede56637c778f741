"""Jordan form, matrix functions, and square-root enumeration for 2x2 reals.

For A = Z J Z^-1 with J in Jordan canonical form, f(A) = Z f(J) Z^-1 where
f acts on a diagonal J entrywise and on a Jordan block as

    f([[lam, 1], [0, lam]]) = [[f(lam), f'(lam)], [0, f(lam)]].

Choosing the same square-root branch at every eigenvalue gives the primary
roots; mixed choices give non-primary ones.  Counting all real square roots:

    distinct eigenvalues 0 < l1 < l2   -> exactly 4
    diag(l, 0), l > 0                  -> exactly 2
    Jordan block, l > 0                -> exactly 2
    Jordan block, l = 0 (nilpotent)    -> none
    scalar  l*I2                       -> infinitely many (any sign of l)

The scalar case is infinite for l < 0 too: S(l*I2) = sqrt(-l) * S(-I2) and
the skew-involutions form a two-parameter family.  Negative or mixed-sign
non-scalar spectra admit no real root at all, since the eigenvalues of R^2
are squares of real numbers or an equal conjugate-square pair.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass
from typing import Callable

from .errors import (
    ComplexEigenvalues,
    FunctionUndefinedAtEigenvalue,
    NonPositiveScale,
    NotASquareRoot,
    SingularConjugator,
)
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, approx_eq

# Jordan structure is discontinuous; nearly equal eigenvalues are merged at
# this relative scale.
_EIG_COINCIDENCE = 1e-8


class JordanKind(enum.Enum):
    DISTINCT_DIAG = "distinct_diag"
    SCALAR_DIAG = "scalar_diag"
    JORDAN_BLOCK = "jordan_block"


@dataclass(frozen=True)
class Jordan2:
    """Similarity transform z and Jordan form of a real-spectrum matrix."""

    z: Mat2
    kind: JordanKind
    eig1: float
    eig2: float

    def j_matrix(self) -> Mat2:
        if self.kind is JordanKind.JORDAN_BLOCK:
            return Mat2(self.eig1, 1.0, 0.0, self.eig1)
        return Mat2.diag(self.eig1, self.eig2)

    def reconstruct(self) -> Mat2:
        return self.z @ self.j_matrix() @ self.z.inverse()


@dataclass(frozen=True)
class ScalarFunction:
    """Scalar function plus first derivative (needed only on Jordan blocks)."""

    f: Callable[[float], float]
    f_prime: Callable[[float], float] | None = None
    name: str = ""


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


@dataclass(frozen=True)
class RootCardinality:
    tag: Cardinality
    n: int | None = None

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


def eigen2(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Real eigenvalues in ascending order; raises on a complex spectrum.

    The closed form runs on m scaled by the power of two 2**-e that brings
    its largest entry into [0.5, 1), so squares and products of entries
    cannot overflow anywhere in the finite range.  Scaling by a power of two
    is exact, so the result is bit-identical to the unscaled formula
    wherever that one stays in range.  An eigenvalue beyond the float range
    raises OverflowError.
    """
    a, b, c, d = m.a, m.b, m.c, m.d
    e = math.frexp(max(abs(a), abs(b), abs(c), abs(d)))[1]
    a, b, c, d = math.ldexp(a, -e), math.ldexp(b, -e), math.ldexp(c, -e), math.ldexp(d, -e)
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


def sqrt_branches(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> list[Mat2]:
    """All real square roots reachable by per-eigenvalue branch choices.

    Distinct nonnegative eigenvalues give up to four roots (two primary,
    two non-primary, fewer when an eigenvalue vanishes); a positive Jordan
    block gives its two triangular roots; a positive scalar matrix gives
    the two primary roots +-sqrt(lam) I2 (the infinite non-primary family
    is reported by count_real_roots, not enumerated).  Returns [] when no
    branch choice produces a real root.
    """
    dec = jordan2(m, tol)
    roots: list[Mat2] = []

    residual_cap = tol.abs_tol * max(1.0, m.max_norm())

    def push(candidate: Mat2):
        if any(approx_eq(candidate, r, tol) for r in roots):
            return
        if (candidate @ candidate).max_diff(m) <= residual_cap:
            roots.append(candidate)

    if dec.kind is JordanKind.DISTINCT_DIAG:
        if dec.eig1 < -tol.exact_tol:
            return []
        z_inv = dec.z.inverse()
        s1 = math.sqrt(max(dec.eig1, 0.0))
        s2 = math.sqrt(max(dec.eig2, 0.0))
        for sign1, sign2 in itertools.product((1.0, -1.0), repeat=2):
            push(dec.z @ Mat2.diag(sign1 * s1, sign2 * s2) @ z_inv)
    elif dec.kind is JordanKind.SCALAR_DIAG:
        if dec.eig1 > tol.exact_tol:
            s = math.sqrt(dec.eig1)
            roots = [Mat2.scalar(s), Mat2.scalar(-s)]
        elif abs(dec.eig1) <= tol.exact_tol:
            roots = [Mat2.zero()]
    else:  # Jordan block
        if dec.eig1 > tol.exact_tol:
            s = math.sqrt(dec.eig1)
            core = Mat2(s, 0.5 / s, 0.0, s)
            z_inv = dec.z.inverse()
            roots = [dec.z @ core @ z_inv, dec.z @ (-core) @ z_inv]
    return roots


def count_real_roots(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> RootCardinality:
    """How many real square roots m has: zero, finitely many, or infinitely.

    Scalar matrices always have infinitely many (scaled involutions for
    lam > 0, nilpotents for lam = 0, scaled skew-involutions for lam < 0).
    """
    dec = jordan2(m, tol)
    if dec.kind is JordanKind.SCALAR_DIAG:
        return RootCardinality(Cardinality.INFINITE)
    if dec.kind is JordanKind.JORDAN_BLOCK:
        if dec.eig1 > tol.exact_tol:
            return RootCardinality(Cardinality.FINITE, 2)
        return RootCardinality(Cardinality.ZERO)
    if dec.eig1 < -tol.exact_tol:
        return RootCardinality(Cardinality.ZERO)
    if dec.eig1 <= tol.exact_tol:
        return RootCardinality(Cardinality.FINITE, 2)
    return RootCardinality(Cardinality.FINITE, 4)


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


@dataclass(frozen=True)
class RootSearchGrid:
    """Start-point lattice for the brute-force root search.

    dedup_tol is deliberately coarse: near a zero eigenvalue the residual
    ||X^2 - A|| is quadratically flat, so converged iterates can sit up to
    sqrt(residual_tol) away from the true root.
    """

    points_per_axis: int = 4
    lo: float = -3.0
    hi: float = 3.0
    residual_tol: float = 1e-9
    dedup_tol: float = 1e-4


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

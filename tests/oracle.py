"""Exact rules for every threshold decision, and the SciPy root search.

Every float is a rational, so each decision the library makes has one true
margin: R^2 - S per entry, a trace, a det, a b ~ 0 cut.  Each rule is
written here once, as a ``Cut`` |quantity| <= limit of ``Approx`` values:
the exact value of the quantity as a ``Fraction`` of the input floats, with
a bound on how far the float the library computes for it can be.

The bound is the a-priori rounding bound of the float evaluation (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, ch. 3): each
operation adds u times its result, plus one subnormal for underflow, to
the errors it inherits, and adds nothing where the exact result of exact
operands is itself a float.  For an entry of R^2 that is at most
gamma_2 (|R||R|)_ij; for a sum or a scaled limit, u times its value.  A
result that may leave the float range is tracked as certainly infinite,
certainly inf or nan, or unknown.

``Cut.decided`` reads a rule: it gives the exact decision wherever the
quantity clears its limit by the two bounds, and None inside that band.
Where the float evaluation is exact, the band is empty and ties decide.
A rule combines its cuts in the library's order, and is None where a cut
that can change its outcome is.  Outcomes are a bool, a tag or a count,
or the exception class the library raises.  Where the library's input to a
cut is itself a float it computes (cos t, an eigenvalue, a rebuilt c, a
grid value), the cut takes that float as it is.

``brute_force_roots`` is the independent check on the closed-form square
roots: a multi-start numerical solve of X^2 = A with SciPy, which the
library itself does not use.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from invgeo import matfun, quadric
from invgeo.errors import (
    ComplexEigenvalues,
    DegenerateAngle,
    DegenerateSeed,
    FunctionUndefinedAtEigenvalue,
    NonFiniteEntry,
    NotAnInvolution,
)
from invgeo.mat2 import DEFAULT_TOL, Mat2, Tolerance, _setattr, _Value
from invgeo.quadric import SurfaceTag
from invgeo.roots import RootTag, make_general_root

#: unit roundoff, the smallest subnormal, and the least magnitude that
#: rounds to infinity
U = Fraction(1, 2**53)
ETA = Fraction(1, 2**1074)
OVERFLOW = Fraction(2**1024 - 2**970)

# what is known of a float that may have left the range, in place of a bound
POS_INF, NEG_INF, NONFINITE = "+inf", "-inf", "nonfinite"
_INF = (POS_INF, NEG_INF)


def _representable(x: Fraction) -> bool:
    try:
        return Fraction(float(x)) == x
    except OverflowError:
        return False


class Approx:
    """A value x, exact, and e: a bound on |float - x| for the float that
    the library computes for it, or POS_INF, NEG_INF or NONFINITE where
    that float is certainly +inf, -inf, or inf or nan, or None where it may
    or may not be finite.  eta is the absolute error one operation may add
    by underflow; top is OVERFLOW, or None where the library evaluates on
    entries rescaled by a power of two, so that nothing overflows."""

    __slots__ = ("x", "e", "eta", "top")

    def __init__(self, x, e=Fraction(0), eta=ETA, top=OVERFLOW):
        self.x, self.e, self.eta, self.top = Fraction(x), e, eta, top

    def finite(self) -> bool:
        return isinstance(self.e, Fraction)

    def _lift(self, other) -> "Approx":
        if isinstance(other, Approx):
            return other
        return Approx(other, Fraction(0), self.eta, self.top)

    def _result(self, other: "Approx", x: Fraction, known, error) -> "Approx":
        """The float result of an operation on self and other whose exact
        value is x: known, where an operand is not finite; else error, the
        operands' errors carried into x, and one more rounding."""
        eta = max(self.eta, other.eta)
        top = None if None in (self.top, other.top) else OVERFLOW
        if not (self.finite() and other.finite()):
            return Approx(x, known, eta, top)
        if top is not None:
            if abs(x) - error >= top:
                return Approx(x, POS_INF if x > 0 else NEG_INF, eta, top)
            if abs(x) + error >= top:
                return Approx(x, None, eta, top)
        if error or not _representable(x):
            error += U * (abs(x) + error) + eta
        return Approx(x, error, eta, top)

    def __add__(self, other) -> "Approx":
        q = self._lift(other)
        states = {self.e, q.e}
        if NONFINITE in states or {POS_INF, NEG_INF} <= states:
            known = NONFINITE
        elif states & {POS_INF, NEG_INF}:  # inf plus what may be inf or nan
            known = NONFINITE if None in states else (states & {POS_INF, NEG_INF}).pop()
        else:
            known = None
        error = self.e + q.e if self.finite() and q.finite() else None
        return self._result(q, self.x + q.x, known, error)

    __radd__ = __add__

    def __neg__(self) -> "Approx":
        flip = {POS_INF: NEG_INF, NEG_INF: POS_INF}
        return Approx(-self.x, flip.get(self.e, self.e), self.eta, self.top)

    def __sub__(self, other) -> "Approx":
        return self + -self._lift(other)

    def __rsub__(self, other) -> "Approx":
        return self._lift(other) + -self

    def __mul__(self, other) -> "Approx":
        q = self._lift(other)
        x = self.x * q.x
        known = None
        if NONFINITE in (self.e, q.e):
            known = NONFINITE
        elif self.e in _INF or q.e in _INF:  # inf times what may be 0 is nan
            signs = sign(self), sign(q)
            known = NONFINITE if not all(signs) else POS_INF if signs[0] == signs[1] else NEG_INF
        error = (abs(self.x) * q.e + abs(q.x) * self.e + self.e * q.e
                 if self.finite() and q.finite() else None)
        return self._result(q, x, known, error)

    __rmul__ = __mul__

    def __abs__(self) -> "Approx":
        return Approx(abs(self.x), POS_INF if self.e in _INF else self.e, self.eta, self.top)


def amax(*values: Approx) -> Approx:
    """max(values): a float max errs by at most the largest error.  A value
    that is certainly -inf drops out; one that may be nan leaves it unknown."""
    kept = [v for v in values if v.e != NEG_INF] or list(values)
    x = max(v.x for v in kept)
    first = kept[0]
    if any(v.e in (None, NONFINITE) for v in kept):
        return Approx(x, None, first.eta, first.top)
    if any(v.e in _INF for v in kept):
        return Approx(x, POS_INF if any(v.e == POS_INF for v in kept) else NEG_INF,
                      first.eta, first.top)
    return Approx(x, max(v.e for v in kept), first.eta, first.top)


def amin(*values: Approx) -> Approx:
    return -amax(*(-v for v in values))


def sign(q: Approx) -> int | None:
    """The sign of the float the library computes for q, where it is q's own."""
    if q.e in _INF:
        return 1 if q.e == POS_INF else -1
    if not q.finite():
        return None
    if q.x > q.e:
        return 1
    if q.x < -q.e:
        return -1
    return 0 if q.e == 0 and q.x == 0 else None


def greater(q: Approx, t) -> bool | None:
    """q > t, for a float constant t, where the float comparison agrees."""
    if q.e in _INF:
        return q.e == POS_INF
    if not q.finite():
        return None
    if q.x - t > q.e:
        return True
    if q.x + q.e <= t:
        return False
    return None


class Cut:
    """The decision |quantity| <= limit.  A cut whose limit is a tolerance
    times a scale also has its margin |quantity| / scale, exactly: the
    tolerance at which the decision flips, and name, the Tolerance field
    it reads."""

    __slots__ = ("quantity", "limit", "margin", "name")

    def __init__(self, quantity: Approx, limit: Approx, margin=None, name=None):
        self.quantity, self.limit, self.margin, self.name = quantity, limit, margin, name

    def holds(self) -> bool:
        return abs(self.quantity.x) <= self.limit.x

    def decided(self) -> bool | None:
        """holds(), where the float comparison agrees with it by the bounds."""
        q, limit = self.quantity, self.limit
        if limit.e == POS_INF:  # anything but nan is below it
            return True if (q.finite() or q.e in _INF) and self.holds() else None
        if q.e in _INF:
            return False if limit.finite() and not self.holds() else None
        if not (q.finite() and limit.finite()):
            return None
        gap, band = abs(q.x) - limit.x, q.e + limit.e
        if gap > band:
            return False
        if gap < -band or band == 0:
            return gap <= 0
        return None


def _cuts(terms):
    """A cut function from terms(*inputs), which gives (quantity, scale,
    name) for each of its cuts: called with the inputs and perhaps a
    Tolerance, it gives each cut with the limit tol.<name> * scale, one Cut
    alone.  The terms of the last few inputs are kept, so a rule read at
    several tolerances works them out once."""
    terms = functools.lru_cache(maxsize=16)(terms)

    @functools.wraps(terms)
    def cuts(*args):
        *args, tol = args if isinstance(args[-1], Tolerance) else (*args, DEFAULT_TOL)
        made = tuple(Cut(q, Approx(getattr(tol, name)) * scale,
                         abs(q.x) / scale.x if scale.x else None, name)
                     for q, scale, name in terms(*args))
        return made if len(made) > 1 else made[0]
    return cuts


def _all(*decisions) -> bool | None:
    if False in decisions:
        return False
    return None if None in decisions else True


def _any(*decisions) -> bool | None:
    if True in decisions:
        return True
    return None if None in decisions else False


def _not(decision):
    return None if decision is None else not decision


def refused(outcome, error):
    """An outcome of the R^2 = I2 test other than True, as a caller of it
    reports it: error where the test fails."""
    return error if outcome is False else outcome


def outcome(fn, *args):
    """fn's result, or the class of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


def inputs(*values) -> tuple[Approx, ...]:
    """Float inputs, exactly, for a computation on them as they are."""
    return tuple(Approx(v) for v in values)


def scaled_inputs(values, size) -> tuple[Approx, ...]:
    """Float inputs of a computation that mat2._pow2_scaled may first scale
    by 2**-e, e even and 2**e below 4 * size, so that nothing overflows:
    each operation's underflow, and each input's where the scaling is down,
    is then one subnormal times 4**e.  (An alpha or beta that scaling up
    sends beyond the float range is far outside its limit.)"""
    size = abs(Fraction(size))
    eta = ETA * 16 * max(1, size) ** 2
    e = eta if size >= 2**399 else Fraction(0)
    return tuple(Approx(v, e, eta, None) for v in values)


def norm(values) -> Approx:
    """The max-norm of entries."""
    return amax(*(abs(v) for v in values))


# -- R^2 = S ------------------------------------------------------------------


def square(r) -> tuple[Approx, ...]:
    """The entries of R @ R, for R's entries as floats."""
    a, b, c, d = inputs(*r)
    return (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d)


def square_residual(r, s) -> Approx:
    """||R^2 - S||, max-norm."""
    return amax(*(abs(p - q) for p, q in zip(square(r), inputs(*s))))


def nonfinite(entries) -> bool | None:
    """Whether some entry's float is inf or nan; None where unknown."""
    if any(e.e in _INF + (NONFINITE,) for e in entries):
        return True
    return None if any(e.e is None for e in entries) else False


@_cuts
def square_root_cuts(r: tuple, s: tuple):
    """||R^2 - S|| against abs_tol * ||S|| and against abs_tol * ||R||^2."""
    residual = square_residual(r, s)
    a, b, c, d = inputs(*r)
    return ((residual, norm(inputs(*s)), "abs_tol"),
            (residual, amax(a * a, b * b, c * c, d * d), "abs_tol"))


def square_root(r, s, tol: Tolerance = DEFAULT_TOL):
    """R^2 = S within abs_tol * max(||R||^2, ||S||), max-norms; NonFiniteEntry
    where an entry of R^2 is beyond the float range."""
    overflow = nonfinite(square(r))
    if overflow is not False:
        return overflow and NonFiniteEntry
    return _any(*(cut.decided() for cut in square_root_cuts(r, s, tol)))


def involution(r, sign_: float, tol: Tolerance = DEFAULT_TOL):
    """R^2 = +-I2, by square_root."""
    return square_root(r, (sign_, 0.0, 0.0, sign_), tol)


# -- the roots of I2 ------------------------------------------------------------


@_cuts
def b_cut(a: float, b: float):
    """b ~ 0 in a root [[a, b], [c, -a]]: |b| <= exact_tol * max(1, |a|)."""
    a_, b_ = inputs(a, b)
    return ((b_, amax(Approx(1), abs(a_)), "exact_tol"),)


_LOWER = {True: RootTag.LOWER_C_PLUS_MINUS, False: RootTag.LOWER_C_MINUS_PLUS}
_UPPER = {True: RootTag.UPPER_B_PLUS_MINUS, False: RootTag.UPPER_B_MINUS_PLUS}


#: a tolerance at which make_general_root refuses no b that the b cut passes
_FINEST = Tolerance(1.0, 5e-324)


@_cuts
def miss_cut(m: Mat2):
    """The general family's c rebuilt from (a, b) by make_general_root
    misses c: the miss against abs_tol * max(1, |c|)."""
    try:
        rebuilt = Approx(make_general_root(m.a, m.b, _FINEST).c)
    except NonFiniteEntry:  # (1 - a^2)/b is beyond the float range
        rebuilt = Approx(OVERFLOW, POS_INF)
    return ((abs(rebuilt - Approx(m.c)), amax(Approx(1), abs(Approx(m.c))), "abs_tol"),)


def classify_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL):
    """The family tag classify_involution gives m, or what it raises.

    R^2 = I2 first; then a trace beyond +-1 is +-I2; then an off-diagonal
    entry under the b cut is a triangular family, lower (b cut) before upper
    (c cut), its sign that of a > 0; then a lower family where the rebuilt
    c misses c beyond both the lower family's error and abs_tol * max(1, |c|);
    else the general family.
    """
    inv = involution(m.entries(), 1.0, tol)
    if inv is not True:
        return refused(inv, NotAnInvolution)
    a, d = inputs(m.a, m.d)
    trace = a + d
    above, below = greater(trace, 1), greater(-trace, 1)
    if above:
        return RootTag.IDENTITY
    if below:
        return RootTag.NEG_IDENTITY
    if above is None or below is None:
        return None
    positive = m.a > 0
    b_small = b_cut(m.a, m.b, tol).decided()
    if b_small is not False:
        return b_small and _LOWER[positive]
    c_small = b_cut(m.a, m.c, tol).decided()
    if c_small is not False:
        return c_small and _UPPER[positive]
    # the rebuilt c misses c by more than the lower family's own error
    miss = miss_cut(m, tol)
    closer = greater(miss.quantity - amax(abs(Approx(m.b)), abs(1 - abs(a))), 0)
    rescue = _all(closer, _not(miss.decided()))
    if rescue is None:
        return None
    return _LOWER[positive] if rescue else RootTag.GENERAL


def decompose_general(m: Mat2, tol: Tolerance = DEFAULT_TOL):
    """True where decompose_general factors m, or what it raises:
    NotAnInvolution unless R^2 = I2, then DegenerateAngle under the b cut."""
    inv = involution(m.entries(), 1.0, tol)
    if inv is not True:
        return refused(inv, NotAnInvolution)
    b_small = b_cut(m.a, m.b, tol).decided()
    return None if b_small is None else DegenerateAngle if b_small else True


# -- symmetry and equality ------------------------------------------------------


@_cuts
def symmetric_cut(m: Mat2):
    """|b - c| <= abs_tol * ||m||."""
    a, b, c, d = inputs(*m.entries())
    return ((b - c, norm((a, b, c, d)), "abs_tol"),)


@_cuts
def equal_cut(lhs: Mat2, rhs: Mat2):
    """||lhs - rhs|| <= abs_tol * max(||lhs||, ||rhs||)."""
    left, right = inputs(*lhs.entries()), inputs(*rhs.entries())
    return ((amax(*(abs(x - y) for x, y in zip(left, right))), norm(left + right), "abs_tol"),)


def householder(m: Mat2, tol: Tolerance = DEFAULT_TOL):
    """Whether householder_angle gives m an angle: a symmetric involution
    that is not approx_eq to +-I2; or what it raises."""
    inv = involution(m.entries(), 1.0, tol)
    if inv is not True:
        return refused(inv, False)
    return _all(symmetric_cut(m, tol).decided(),
                _not(equal_cut(m, Mat2.identity(), tol).decided()),
                _not(equal_cut(m, -Mat2.identity(), tol).decided()))


# -- the loci S(alpha, beta) -----------------------------------------------------


@_cuts
def locus_cuts(m: Mat2, alpha: float, beta: float):
    """(trace, det, scalar) cuts of in_locus: a + d - alpha against
    abs_tol * ||m||, ad - bc - beta against abs_tol * ||m||^2, and the
    distance to the nearest scalar matrix against exact_tol * ||m||."""
    size = m.max_norm()
    a, b, c, d, alpha_, beta_, size_ = scaled_inputs((*m.entries(), alpha, beta, size), size)
    # the scalar distance is taken on m as it is
    ua, ub, uc, ud = inputs(*m.entries())
    t = Fraction(1, 2) * (ua + ud)
    return ((a + d - alpha_, size_, "abs_tol"),
            (a * d - b * c - beta_, size_ * size_, "abs_tol"),
            (amax(abs(ua - t), abs(ub), abs(uc), abs(ud - t)), norm((ua, ub, uc, ud)), "exact_tol"))


def in_locus(m: Mat2, alpha: float, beta: float, tol: Tolerance = DEFAULT_TOL):
    trace, det, scalar = locus_cuts(m, alpha, beta, tol)
    return _all(_not(scalar.decided()), trace.decided(), det.decided())


@_cuts
def hyperplane_cut(m: Mat2, alpha: float):
    """to_bell's |a + d - alpha| <= abs_tol * ||m||, on m as it is."""
    a, b, c, d = inputs(*m.entries())
    return ((a + d - alpha, norm((a, b, c, d)), "abs_tol"),)


@_cuts
def cone_cuts(m: Mat2):
    """on_asymptotic_cone: a + d against abs_tol * ||m||, and
    a^2 + bc against abs_tol * ||m||^2."""
    size = m.max_norm()
    a, b, c, d, size_ = scaled_inputs((*m.entries(), size), size)
    return (a + d, size_, "abs_tol"), (a * a + b * c, size_ * size_, "abs_tol")


def on_asymptotic_cone(m: Mat2, tol: Tolerance = DEFAULT_TOL):
    return _all(*(cut.decided() for cut in cone_cuts(m, tol)))


@_cuts
def alpha_cut(x, y, z, alpha, other):
    """quadric_residual's alpha ~ other: exact_tol times max(|x|, |y|, |z|,
    |alpha|, |other|)."""
    values = inputs(x, y, z, alpha, other)
    return ((values[3] - values[4], norm(values), "exact_tol"),)


@_cuts
def lightlike_cut(w, x, y, z):
    """sq_classify's w^2 + x^2 - y^2 - z^2 against exact_tol * (w^2 + x^2 +
    y^2 + z^2)."""
    w_, x_, y_, z_ = scaled_inputs((w, x, y, z), max(map(abs, (w, x, y, z))))
    return ((w_ * w_ + x_ * x_ - y_ * y_ - z_ * z_, w_ * w_ + x_ * x_ + y_ * y_ + z_ * z_,
             "exact_tol"),)


@_cuts
def quadric_cut(alpha: float, beta: float):
    """classify_quadric's cone: alpha^2 - 4 beta against exact_tol *
    (alpha^2 + 4 |beta|), on alpha * 2**-e and beta * 4**-e."""
    alpha_, beta_ = scaled_inputs((alpha, beta), max(abs(alpha), math.sqrt(abs(beta))))
    square = alpha_ * alpha_
    return ((square - 4 * beta_, square + 4 * abs(beta_), "exact_tol"),)


def classify_quadric(alpha: float, beta: float, tol: Tolerance = DEFAULT_TOL):
    """The SurfaceTag of S(alpha, beta): a cone under the cut, else one
    sheet or two by the sign of alpha^2 - 4 beta."""
    cut = quadric_cut(alpha, beta, tol)
    cone = cut.decided()
    if cone is not False:
        return cone and SurfaceTag.RIGHT_CIRCULAR_CONE
    positive = sign(cut.quantity)
    if positive is None:
        return None
    return SurfaceTag.ONE_SHEET_HYPERBOLOID if positive > 0 else SurfaceTag.TWO_SHEET_HYPERBOLOID


@_cuts
def apex_cut(rho: float, span: float):
    """surface_rows drops a cone's ring rho, a value of its grid, where
    |rho| <= exact_tol * |span|."""
    rho_, span_ = inputs(rho, span)
    return ((rho_, abs(span_), "exact_tol"),)


def surface_rows(alpha: float, beta: float, span: float, n_u: int, n_v: int,
                 tol: Tolerance = DEFAULT_TOL):
    """How many rows surface_rows gives: n_u per ring, and for a cone n_u
    per ring off the apex plus the vertex."""
    tag = classify_quadric(alpha, beta, tol)
    if tag is not SurfaceTag.RIGHT_CIRCULAR_CONE:
        return tag and n_u * n_v
    dropped = [apex_cut(rho, span, tol).decided() for rho in quadric._linspace(-span, span, n_v)]
    return None if None in dropped else n_u * dropped.count(False) + 1


@_cuts
def sec_cut(t: float):
    """unit_root_neg's sec t is undefined where |cos t| <= exact_tol, for cos t
    as math.cos gives it."""
    return ((Approx(math.cos(t)), Approx(1), "exact_tol"),)


# -- generator_directions ------------------------------------------------------


def _product(p, q) -> tuple[Approx, ...]:
    """The entries of P @ Q, each an Approx."""
    a, b, c, d = p
    e, f, g, h = q
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


#: sqrt(eps), which is 2**-26 exactly
SQRT_EPS = Fraction(1, 2**26)


def ruling_products(a: Mat2, seed: Mat2):
    """(P X, U, N X, V, (P, X, N)) for P = A + I, N = A - I, U = P X N and
    V = N X P, each product's entries an Approx."""
    ma, mb, mc, md = inputs(*a.entries())
    x = inputs(*seed.entries())
    plus, minus = (ma + 1, mb, mc, md + 1), (ma - 1, mb, mc, md - 1)
    px, nx = _product(plus, x), _product(minus, x)
    return px, _product(px, minus), nx, _product(nx, plus), (plus, x, minus)


def generator_directions(a: Mat2, seed: Mat2, tol: Tolerance = DEFAULT_TOL):
    """True where generator_directions returns directions, or what it
    raises: NotAnInvolution off S(0, -1), NonFiniteEntry where a product is
    beyond the float range, and DegenerateSeed where min(||U||, ||V||) is at
    most sqrt(eps) * ||A + I|| ||X|| ||A - I||."""
    on = in_locus(a, 0.0, -1.0, tol)
    if on is not True:
        return refused(on, NotAnInvolution)
    px, u, nx, v, (plus, x, minus) = ruling_products(a, seed)
    overflow = nonfinite(px + u + nx + v)
    if overflow is not False:
        return overflow and NonFiniteEntry
    seed_cut = Cut(amin(norm(u), norm(v)), SQRT_EPS * norm(plus) * norm(x) * norm(minus))
    degenerate = seed_cut.decided()
    return None if degenerate is None else DegenerateSeed if degenerate else True


# -- eigen2 and matrix_function -------------------------------------------------


@_cuts
def discriminant_cut(m: Mat2):
    """eigen2's (a - d)^2 + 4bc against exact_tol * ||m||^2, on the entries
    scaled as count_real_roots takes them."""
    size = m.max_norm()
    a, b, c, d, size_ = scaled_inputs((*m.entries(), size), size)
    diff = a - d
    return ((diff * diff + 4 * b * c, size_ * size_, "exact_tol"),)


def eigen2(m: Mat2, tol: Tolerance = DEFAULT_TOL):
    """ComplexEigenvalues where eigen2 finds the spectrum complex: the
    discriminant is below zero and not under its cut; else True."""
    cut = discriminant_cut(m, tol)
    negative = sign(cut.quantity)
    complex_ = _all(None if negative is None else negative < 0, _not(cut.decided()))
    return None if complex_ is None else ComplexEigenvalues if complex_ else True


def secant_cut(lam1: float, lam2: float) -> Cut:
    """matrix_function's secant is refused where l2 - l1 <= sqrt(eps) *
    max(|l1|, |l2|), for the eigenvalues l1 <= l2 as eigen2 gives them."""
    l1, l2 = inputs(lam1, lam2)
    return Cut(l2 - l1, SQRT_EPS * amax(abs(l1), abs(l2)))


def matrix_function(m: Mat2, tol: Tolerance = DEFAULT_TOL):
    """What matrix_function gives for an f with no divided difference that
    is finite on the spectrum: True where it returns, what eigen2 raises,
    or FunctionUndefinedAtEigenvalue under the secant cut."""
    if m.b == 0.0 and m.c == 0.0 and m.a == m.d:
        return True
    spectrum = eigen2(m, tol)
    if spectrum is not True:
        return spectrum
    close = secant_cut(*matfun.eigen2(m, tol)).decided()
    return None if close is None else FunctionUndefinedAtEigenvalue if close else True


# -- count_real_roots ------------------------------------------------------------


def count_real_roots(m: Mat2):
    """How many real square roots m has, from the exact signs of det,
    tr^2 - 4 det and tr: "infinite" for a scalar m, else 0, 2 or 4.

    det < 0 has none; tr >= 0 has 2 on det = 0 (none on tr = det = 0, the
    nilpotents), 4 on distinct real eigenvalues and 2 otherwise; tr < 0 has
    2 on a complex spectrum and none otherwise."""
    if m.b == 0.0 and m.c == 0.0 and m.a == m.d:
        return "infinite"
    a, b, c, d = scaled_inputs(m.entries(), m.max_norm())
    det = sign(a * d - b * c)
    if det is None or det < 0:
        return None if det is None else 0
    trace = sign(a + d)
    if trace is None:
        return None
    if trace >= 0 and det == 0:
        return 2 if trace > 0 else 0
    disc = sign((a - d) * (a - d) + 4 * b * c)
    if disc is None:
        return None
    if trace >= 0:
        return 4 if disc > 0 else 2
    return 2 if disc < 0 else 0


# -- the SciPy root search ------------------------------------------------------


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

"""The involution kernels against the exact rules in oracle.py.

Each kernel decides from the four entries as floats.  Wherever every
margin it reads clears its threshold by the rounding bound of its float
evaluation, it must make the exact decision: return the same family, count
or answer, or raise the same exception class.  Inside that band it may make
either, but nothing else.  Its values are checked through identities: a
decomposition recomposes the root, a Householder angle points along (a, b),
and ruling directions have unit max-norm with tr = det = 0 up to how far
the point is off S(0, -1).  The inputs run across the whole finite range:
roots of I2 from every family, nudged by a few ulps, far from order 1 and
next to b = 0, and arbitrary finite matrices, each with a tolerance that is
exactly one of its own margins.
"""

import math
from fractions import Fraction

import oracle
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from invgeo import (
    DEFAULT_TOL,
    LocusParams,
    Mat2,
    RootFamily,
    SplitQuat,
    Tolerance,
    classify_involution,
    count_real_roots,
    decompose,
    decompose_general,
    generator_directions,
    householder_angle,
    is_involution,
    is_skew_involution,
    make_case_root,
    make_general_root,
    make_root,
    scaled_roots,
)
from invgeo.errors import (
    DegenerateAngle,
    DegenerateSeed,
    NonFiniteEntry,
    NotAnInvolution,
    NotASquareRoot,
)
from invgeo import matfun
from invgeo.mat2 import _is_square_root, _square_residual
from invgeo.roots import RootTag

FINITE = st.floats(allow_nan=False, allow_infinity=False)
#: the default, a coarse one, and a fine one
TOLS = [DEFAULT_TOL, Tolerance(1e-6, 1e-9), Tolerance(1e-14, 1e-15)]
SEED = (1.0, 0.0, 0.0, 0.0)
SEEDS = (st.just(SEED) | st.tuples(FINITE, FINITE, FINITE, FINITE)
         | st.tuples(*[st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0])] * 4))


def _general(a, b):
    return (a, b, (1.0 - a * a) / b, -a)


@st.composite
def near_roots(draw):
    """Entries of a root of I2 or -I2, possibly nudged, or of any matrix."""
    kind = draw(st.sampled_from(["any", "general", "small_b", "triangular",
                                 "scalar", "householder", "skew"]))
    if kind == "any":
        entries = draw(st.tuples(FINITE, FINITE, FINITE, FINITE))
    elif kind == "general":
        a = draw(st.floats(-2.0, 2.0) | FINITE)
        entries = _general(a, draw(FINITE.filter(bool)))
    elif kind == "small_b":  # b -> 0, where (1 - a^2)/b stops reproducing c
        a = draw(st.floats(-1.0, 1.0))
        sign = draw(st.sampled_from([1.0, -1.0]))
        entries = _general(a, sign * draw(st.floats(1e-18, 1e-6)))
    elif kind == "triangular":
        s = draw(st.sampled_from([1.0, -1.0]))
        t = draw(FINITE)
        entries = (s, t, 0.0, -s) if draw(st.booleans()) else (s, 0.0, t, -s)
    elif kind == "scalar":
        entries = draw(st.sampled_from([(1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0),
                                        (1.0, 0.0, 0.0, -1.0), (-1.0, 0.0, 0.0, 1.0)]))
    elif kind == "householder":
        phi = draw(st.floats(-7.0, 7.0))
        entries = (math.cos(phi), math.sin(phi), math.sin(phi), -math.cos(phi))
    else:
        a = draw(st.floats(-1e3, 1e3))
        b = draw(FINITE.filter(bool))
        entries = (a, b, -(1.0 + a * a) / b, -a)
    assume(all(map(math.isfinite, entries)))
    # either sign of zero, then a few ulps off the family in one entry
    entries = [-e if e == 0.0 and draw(st.booleans()) else e for e in entries]
    slot = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 3))):
        entries[slot] = math.nextafter(entries[slot], draw(st.sampled_from([-math.inf, math.inf])))
    assume(math.isfinite(entries[slot]))
    return tuple(entries)


def _margins(entries):
    """The quantities the kernels compare with a tolerance, for these entries."""
    m = Mat2(*entries)
    a, b, c, d = entries
    residuals = [oracle.outcome(_square_residual, *entries, s, 0.0, 0.0, s) for s in (1.0, -1.0)]
    quantities = [abs(m.trace()), abs(m.det() + 1.0), m.scalar_distance(),
                  abs(b), abs(c), abs(b - c), abs(a - 1.0), abs(a + 1.0)]
    quantities += [x for x in residuals if isinstance(x, float)]
    return [x for x in quantities if 0.0 < x < math.inf]


@st.composite
def cases(draw):
    """(entries, tol), tol being a fixed one or one whose abs_tol or exact_tol
    is exactly one of the matrix's own margins, where > and >= part."""
    entries = draw(near_roots())
    tols = list(TOLS)
    for x in _margins(entries):
        tols += [Tolerance(x, min(x, 1e-12)), Tolerance(max(x, 1e-9), x)]
    return entries, draw(st.sampled_from(tols))


def _decides(got, expected, possible):
    """got is the exact outcome where that is decided, else one of possible."""
    if expected is None:
        assert got in possible
    else:
        assert got == expected


def _within(got, want, band):
    """Each float of got is within band of the exact value in want."""
    assert all(abs(Fraction(x) - y) <= band for x, y in zip(got, want)), (got, want, band)


#: matrices at the edges of the kernels' decisions
EDGES = [
    (1.0, 1e308, 0.0, -1.0),  # a product of generator_directions overflows
    (5e153, 1e160, -1e160, -5e153),  # R^2 overflows
    (0.5, 1e-13, 7.5e12, -0.5),  # b -> 0, below exact_tol
    (0.6, 1e-9, 0.64 / 1e-9, -0.6),  # b -> 0, above exact_tol
    (1.0, 0.0, 0.0, -1.0),  # diag(1, -1): upper and lower family at once
    (-1.0, 0.0, 0.0, 1.0),
    (1.0, -0.0, 0.0, -1.0),
    (0.0, 1e-13, 1e13, -0.0),  # b ~ 0 with a = 0, which is not > 0
    (0.0, 1e13, 1e-13, -0.0),  # c ~ 0 with a = 0
]


def edge_examples(*extra, seed=None):
    """@example for each edge matrix, at the default tolerance."""
    def apply(test):
        for entries in EDGES:
            case = (entries, DEFAULT_TOL)
            test = (example(case) if seed is None else example(case, seed))(test)
        for args in extra:
            test = example(*args)(test)
        return test
    return apply


#: a fine tolerance at which a factor-of-two band around the b cut misreads
#: the rounding of the cut itself
FINE_CUT = ((1.3083659886229814e-79, 1e-18, 9.999999999999997e17, -1.3083659886229815e-79),
            Tolerance(1.727e-77, 1.727e-77))
#: R^2 = I2 / 4 at abs_tol 0.75 is an involution whose trace is 1.0 exactly
TRACE_ONE = ((0.5, 0.0, 0.0, 0.5), Tolerance(0.75, 1e-12))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
@edge_examples([FINE_CUT], [TRACE_ONE])
def test_involution_tests_match_the_product_form(case):
    """R^2 = +-I2 as the exact R @ R decides it."""
    entries, tol = case
    m = Mat2(*entries)
    for kernel, sign in ((is_involution, 1.0), (is_skew_involution, -1.0)):
        _decides(oracle.outcome(kernel, m, tol), oracle.involution(entries, sign, tol),
                 (True, False, NonFiniteEntry))


_FAMILY_OUTCOMES = (*RootTag, NonFiniteEntry, NotAnInvolution)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
@edge_examples([((0.5, 1e-13, 7.5e12, -0.5), Tolerance(1e-14, 1e-15))], [FINE_CUT], [TRACE_ONE])
def test_classify_involution_decides_as_the_exact_cuts(case):
    entries, tol = case
    m = Mat2(*entries)
    family = oracle.outcome(classify_involution, m, tol)
    _decides(getattr(family, "tag", family), oracle.classify_involution(m, tol),
             _FAMILY_OUTCOMES)
    if isinstance(family, RootFamily):  # its parameters are m's own entries
        assert all(getattr(m, slot) == value for slot, value in family.params().items())


def _general_band(a, b, c) -> Fraction:
    """How far decompose_general's factors may recompose from [[a, b], [c, -a]]:
    hypot, atan2, cos and sin are each within 2 ulps, and each entry is one
    rounded product or sum of them."""
    return 32 * oracle.U * max(math.hypot(a, b), abs(c)) + 4 * oracle.ETA


def _recomposes_the_general_root(parts, m):
    a, b, c = Fraction(m.a), Fraction(m.b), Fraction(m.c)
    _within(parts.recompose().entries(), (a, b, c, -a), _general_band(m.a, m.b, m.c))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
@edge_examples([FINE_CUT], [TRACE_ONE])
def test_decompose_decides_as_the_exact_cuts_and_rebuilds_the_root(case):
    """decompose reads the family classify_involution reads, and its factors
    recompose the general family's [[a, b], [c, -a]] or the case root."""
    entries, tol = case
    m = Mat2(*entries)
    parts = oracle.outcome(decompose, m, tol)
    family = oracle.outcome(classify_involution, m, tol)
    if isinstance(parts, type):
        assert parts is family
    elif family.tag is RootTag.GENERAL:
        _recomposes_the_general_root(parts, m)
    else:
        assert parts.recompose() == make_case_root(family)
    general = oracle.outcome(decompose_general, m, tol)
    _decides(general if isinstance(general, type) else True, oracle.decompose_general(m, tol),
             (True, NonFiniteEntry, NotAnInvolution, DegenerateAngle))
    if not isinstance(general, type):
        _recomposes_the_general_root(general, m)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases())
@edge_examples([((1.0, 1e-10, 1e-10, 1.0), DEFAULT_TOL)],
               [((-1.0, 0.0, 0.0, -1.0 + 1e-10), DEFAULT_TOL)],
               [((1.0, -1e-20, -1e-20, -1.0), DEFAULT_TOL)])  # atan2 % 2 pi rounds to 2 pi
def test_householder_angle_decides_as_the_exact_cuts(case):
    """An angle exactly for a symmetric involution other than +-I2, and
    (cos phi, sin phi) points along (a, b)."""
    entries, tol = case
    m = Mat2(*entries)
    phi = oracle.outcome(householder_angle, m, tol)
    has_angle = phi if isinstance(phi, type) else phi is not None
    _decides(has_angle, oracle.householder(m, tol), (True, False, NonFiniteEntry))
    if has_angle is True and (m.a, m.b) != (0.0, 0.0):
        assert 0.0 <= phi < 2.0 * math.pi
        a, b = Fraction(m.a), Fraction(m.b)
        cos_phi, sin_phi = Fraction(math.cos(phi)), Fraction(math.sin(phi))
        # atan2 within 2 ulps and the shift into [0, 2 pi) within one
        assert abs(cos_phi * b - sin_phi * a) <= 64 * oracle.U * (abs(a) + abs(b))
        assert cos_phi * a + sin_phi * b > 0


def _directions_check(directions, a, seed):
    """Each direction has max-norm 1 and tr = det = 0, within what rounding
    and a's distance from S(0, -1) allow.  Both U and V have
    tr = tr(X (A^2 - I)) = tr A tr(XA) - (det A + 1) tr X and
    det = ((det A + 1)^2 - (tr A)^2) det X, by Cayley-Hamilton."""
    ma, mb, mc, md = (Fraction(v) for v in a.entries())
    xa, xb, xc, xd = (Fraction(v) for v in seed.entries())
    tr, det = ma + md, ma * md - mb * mc
    tr_x = xa + xd
    tr_xa = xa * ma + xb * mc + xc * mb + xd * md
    trace = abs(tr * tr_xa - (det + 1) * tr_x)
    det_u = abs(((det + 1) ** 2 - tr * tr) * (xa * xd - xb * xc))
    _, u, _, v, _ = oracle.ruling_products(a, seed)
    for got, exact in ((directions.u, u), (directions.v, v)):
        size = oracle.norm(exact)
        # each entry of U, and so ||U||, errs by at most the largest bound;
        # normalizing adds two roundings
        delta = 2 * max(x.e for x in exact) / (size.x - size.e) + 4 * oracle.U
        entries = [Fraction(x) for x in got.entries()]
        assert abs(max(map(abs, entries)) - 1) <= delta
        assert abs(entries[0] + entries[3]) <= trace / size.x + 2 * delta
        assert (abs(entries[0] * entries[3] - entries[1] * entries[2])
                <= det_u / size.x ** 2 + 5 * delta)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(cases(), SEEDS)
@edge_examples((((0.0, 1.0, 1.0, 0.0), DEFAULT_TOL), (0.0, 0.0, 0.0, 0.0)),
               (((0.0, 1.0, 1.0, 0.0), DEFAULT_TOL), (5e-324, 0.0, 0.0, 0.0)),
               (((0.0, 1.0, 1.0, 0.0), DEFAULT_TOL), (1e300, 1e300, -1e300, 1e300)),
               seed=SEED)
def test_generator_directions_matches_the_matrix_chain(case, seed):
    """Refusals as the exact locus and seed cuts and the exact products
    (A + I) X (A - I) and (A - I) X (A + I) decide them; directions checked
    by their identities."""
    entries, tol = case
    a, x = Mat2(*entries), Mat2(*seed)
    got = oracle.outcome(generator_directions, a, x, tol)
    _decides(got if isinstance(got, type) else True, oracle.generator_directions(a, x, tol),
             (True, NotAnInvolution, NonFiniteEntry, DegenerateSeed))
    if not isinstance(got, type):
        _directions_check(got, a, x)


def _count(cardinality):
    if isinstance(cardinality, type):
        return cardinality
    return {"zero": 0, "infinite": "infinite"}.get(cardinality.tag.value, cardinality.n)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(near_roots())
@example((1.0, 1.0, 0.0, 1.0))  # a Jordan block: det = 1, tr^2 - 4 det = 0
@example((0.0, 1.0, 0.0, 0.0))  # nilpotent
@example((-1.0, 0.0, 0.0, 0.0))  # det = 0 with tr < 0
def test_count_real_roots_matches_fresh_values(entries):
    """The count the exact signs of det, tr^2 - 4 det and tr give."""
    _decides(_count(oracle.outcome(count_real_roots, Mat2(*entries))),
             oracle.count_real_roots(Mat2(*entries)), (0, 2, 4, "infinite"))


FIELD_VALUES = FINITE | st.sampled_from([math.inf, -math.inf, math.nan, 0, -3, True, "2.5"])


def _stored(cls, args):
    value = cls(*args)
    return tuple(getattr(value, name) for name in cls.__slots__)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(values=st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES, FIELD_VALUES))
@example(values=(1.0, math.nan, math.inf, 0.0))
@example(values=(-3, True, "2.5", -0.0))
def test_value_types_store_what_checking_each_field_stores(values):
    """Each field holds float(value), or NonFiniteEntry names the first
    field whose value is not finite."""
    for cls, args in ((LocusParams, values[:2]), (SplitQuat, values)):
        floats = [float(v) for v in args]
        bad = [name for name, v in zip(cls.__slots__, floats) if not math.isfinite(v)]
        if bad:
            with pytest.raises(NonFiniteEntry, match=f"^{bad[0]} must be finite"):
                cls(*args)
        else:
            stored = _stored(cls, args)
            assert all(type(v) is float for v in stored)
            assert list(map(repr, stored)) == list(map(repr, floats))


I2_ENTRIES, NEG_I2_ENTRIES = (1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0)


@st.composite
def square_cases(draw):
    """(R, S) as eight entries: R a near-root of +-I2, any matrix, or a
    candidate root (S + sI)/t of an S with entries in [-1, 1]; S +-I2, R @ R
    a few ulps off in one entry, or any matrix."""
    kind = draw(st.sampled_from(["identity", "neg_identity", "square", "any", "branch"]))
    if kind == "branch":  # on the scaled entries, as sqrt_branches works
        s = a, b, c, d = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
        t = draw(st.sampled_from(matfun._root_traces(a, b, c, d) or [reject()]))
        p, h = 0.5 * (a - d) / t, 0.5 * t
        return (h + p, b / t + 0.0, c / t + 0.0, h - p, *s)
    r = draw(near_roots())
    if kind == "square":
        try:
            s = list((Mat2(*r) @ Mat2(*r)).entries())
        except NonFiniteEntry:
            s = list(I2_ENTRIES)
        slot = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(0, 3))):
            s[slot] = math.nextafter(s[slot], draw(st.sampled_from([-math.inf, math.inf])))
        assume(math.isfinite(s[slot]))
    else:
        s = {"identity": I2_ENTRIES, "neg_identity": NEG_I2_ENTRIES}.get(kind) or draw(
            st.tuples(FINITE, FINITE, FINITE, FINITE))
    return (*r, *s)


@st.composite
def square_root_cases(draw):
    """(R, S, tol): a square case, tol a fixed one or one whose abs_tol is the
    float or the exact residual over ||S|| or over ||R||^2, where <= and >
    part."""
    v = draw(square_cases())
    r, s, tols = v[:4], tuple(v[4:]), list(TOLS)
    exact = oracle.square_residual(r, s).x
    for residual in (oracle.outcome(_square_residual, *v),
                     float(exact) if abs(exact) < oracle.OVERFLOW else None):
        for scale in (max(map(abs, s)), max(x * x for x in r)):
            x = residual / scale if isinstance(residual, float) and scale else 0.0
            if 0.0 < x < math.inf:
                tols.append(Tolerance(x, min(x, 1e-12)))
    return r, s, draw(st.sampled_from(tols))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(square_root_cases())
@example(((5e153, 1e160, -1e160, -5e153), I2_ENTRIES, DEFAULT_TOL))  # R^2 overflows
@example(((0.0, 1e5, -1e-5, 0.0), I2_ENTRIES, DEFAULT_TOL))  # R^2 = -I2, ||R||^2 large
@example(((1.0, 1e308, 0.0, -1.0), NEG_I2_ENTRIES, DEFAULT_TOL))  # ||R||^2 overflows
@example(((0.5, 0.0, 0.0, 1.0), (0.25, 0.0, 0.0, 1.0), DEFAULT_TOL))
@example(((0.5, 0.0, 0.0, 0.5), I2_ENTRIES, Tolerance(0.75, 1e-12)))  # ||S|| decides
def test_square_root_test_decides_as_the_exact_margin(case):
    """mat2._is_square_root, which every root test in the package makes,
    against ||R^2 - S|| <= abs_tol * max(||R||^2, ||S||) on the exact R @ R."""
    r, s, tol = case
    got = oracle.outcome(_is_square_root, *r, *s, max(map(abs, s)), tol)
    _decides(got, oracle.square_root(r, s, tol), (True, False, NonFiniteEntry))
    if s in (I2_ENTRIES, NEG_I2_ENTRIES):
        kernel = is_involution if s == I2_ENTRIES else is_skew_involution
        assert oracle.outcome(kernel, Mat2(*r), tol) == got


# -- faults the exact rules show: the R^2 test is normwise, and the family is
# -- read from one small entry, not from a^2 = 1


@pytest.mark.xfail(strict=True, reason="||R||^2 = 1e10 hides R^2 = -I2 under the normwise test")
def test_a_root_of_minus_i2_with_a_large_norm_is_not_an_involution():
    assert not is_involution(Mat2(0.0, 1e5, -1e-5, 0.0))


@pytest.mark.xfail(strict=True, reason="||R||^2 = 1e300 hides R^2 = I2 under the normwise test")
def test_a_root_of_i2_with_a_large_norm_is_not_a_skew_involution():
    assert not is_skew_involution(Mat2(1.0, 1e150, 0.0, -1.0))


@pytest.mark.xfail(strict=True, reason="||R||^2 hides a square of 0 under the normwise test")
def test_a_nilpotent_is_not_a_square_root_of_i2():
    with pytest.raises(NotASquareRoot):
        scaled_roots(Mat2.identity(), 1.0, Mat2(0.0, 1.5e154, 0.0, 0.0))


@pytest.mark.xfail(strict=True, reason="a tiny c reads as a triangular family with a = -1")
def test_a_general_root_with_a_tiny_c_is_rebuilt_componentwise():
    m = make_general_root(-0.2126554442050419, -4864162529098.205)
    for rebuilt in (make_root(classify_involution(m)), decompose(m).recompose()):
        for x, y in zip(rebuilt.entries(), m.entries()):
            assert abs(x - y) <= 1e-9 * max(1.0, abs(y))

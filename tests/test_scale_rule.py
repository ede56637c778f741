"""Every threshold decision in the package, in one table of exact rules.

Each decision compares a quantity with tol times the size of the inputs
that produced it (``Tolerance.negligible``, and b ~ 0 through
``roots._b_negligible``), or with sqrt(eps) times it (generator_directions'
seed and matrix_function's secant).  RULES has one row per decision: the
function whose answer or refusal is the decision, its rule in oracle.py and
the cut whose margin that rule reads, the inputs it is drawn on, and each
input's degree.  One property checks every row, so two things hold for each:

* exact decisions: the tolerance is put on the draw's own exact margin
  |quantity| / scale, nudged by up to 3 ulps either way, and the answer is
  the one ``Cut.decided`` gives wherever it gives one;
* power-of-two invariance: scaling an input of degree n by 2**(n k) is
  exact, so for k in [-500, 500], wherever every scaled input stays normal,
  the decision on the scaled inputs is the decision on the inputs.  The
  roots of +-I2 (b ~ 0 and the rebuilt-c miss) and sec t fix the scale, so
  their degrees are None.

The examples at the top are inputs that an absolute cut misread.  The
properties at the end check values: the inverse under scaling, the roots of
+-I2 from 1e-6 to 1e8 read back, and the secant coefficients.  Two of them
also read the R^2 = S test at the default tolerance, where the table reads
it on each draw's margin: the root check of scaled_roots and
conjugated_roots, and is_involution on nudged general roots.
"""

import itertools
import math
import random
import sys
from fractions import Fraction
from typing import Callable, NamedTuple

import oracle
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st
from test_involution_path import EDGES, I2_ENTRIES, NEG_I2_ENTRIES, near_roots, square_cases

from invgeo import (
    DEFAULT_TOL,
    BellPoint,
    LocusParams,
    Mat2,
    RootTag,
    ScalarFunction,
    SplitQuat,
    Tolerance,
    classify_involution,
    conjugated_roots,
    decompose,
    decompose_general,
    decompose_root,
    in_locus,
    is_involution,
    is_skew_involution,
    make_general_root,
    make_skew_root,
    on_asymptotic_cone,
    quadric_residual,
    scaled_roots,
    surface_rows,
    to_bell,
    unit_root_neg,
    errors,
    mat2,
    matfun,
    quadric,
    roots,
    splitquat,
    xform,
)
from invgeo.errors import (
    AlphaMismatch,
    DegenerateParameter,
    NotInHyperplane,
    NotInvertible,
    SingularParameter,
)

I2 = Mat2.identity()
K = st.integers(-500, 500)
#: multiples of 2**-52 in [-2, 2]
GRID = st.integers(-2**53, 2**53).map(lambda n: math.ldexp(n, -52))
MATS = st.tuples(GRID, GRID, GRID, GRID)
#: a relative nudge of 2**-j for j from 0 (none left) to 70 (below rounding)
NUDGE = st.integers(0, 70).map(lambda j: 0.0 if j == 0 else math.ldexp(1.0, -j))


# -- what an absolute cut misread ------------------------------------------------

def test_a_nonzero_diagonal_is_not_on_the_asymptotic_cone():
    assert not on_asymptotic_cone(Mat2.diag(1e-5, -1e-5))
    assert on_asymptotic_cone(Mat2(1e-5, 1e-5, -1e-5, -1e-5))


def test_a_det_off_by_a_factor_of_five_is_not_in_the_locus():
    assert not in_locus(Mat2.diag(1e-6, -1e-6), LocusParams(0.0, -5e-12))
    assert in_locus(Mat2.diag(1e-6, -1e-6), LocusParams(0.0, -1e-12))


def test_a_trace_one_ulp_off_is_in_the_hyperplane():
    m = Mat2(1e8, 0.0, 0.0, 1e8 + 3e-8)
    assert to_bell(m, 2e8).alpha == 2e8
    with pytest.raises(NotInHyperplane):
        to_bell(m, 2e8 + 1.0)


def test_an_alpha_two_ulps_off_is_the_same_alpha():
    assert quadric_residual(BellPoint(0.0, 0.0, 0.0, 1e8 + 3e-8), LocusParams(1e8, 0.0)) == -5e15
    with pytest.raises(AlphaMismatch):
        quadric_residual(BellPoint(0.0, 0.0, 0.0, 1e8 + 1.0), LocusParams(1e8, 0.0))


def test_a_small_genuine_b_stays_general_under_a_fine_tolerance():
    m = Mat2(0.5, 1e-13, 7.5e12, -0.5)
    family = classify_involution(m, Tolerance(1e-14, 1e-15))
    assert (family.tag, family.a, family.b) == (RootTag.GENERAL, 0.5, 1e-13)
    assert classify_involution(m).tag is RootTag.LOWER_C_PLUS_MINUS  # b ~ 0 at 1e-12


def test_a_small_cone_keeps_its_rings():
    rows = surface_rows(LocusParams(2e-7, 1e-14), 2, 5, span=1e-12)
    assert [row[7] for row in rows] == ["surface"] * 8 + ["vertex"]


def test_a_small_skew_matrix_is_not_symmetric():
    assert not Mat2(1e-12, 1e-10, -1e-10, 1e-12).is_symmetric()
    assert Mat2(1e-12, 1e-10, 1e-10, 1e-12).is_symmetric()


def test_a_small_scalar_conjugator_is_not_singular():
    assert conjugated_roots(I2, 1e-7 * I2, I2).max_diff(I2) <= 4 * sys.float_info.epsilon


@pytest.mark.parametrize("bound", [1e4, 1e5])
def test_general_roots_far_from_order_one_are_involutions(bound):
    rng = random.Random(7)
    for _ in range(1000):
        m = make_general_root(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
        assert is_involution(m)
        assert classify_involution(m).tag is RootTag.GENERAL


# -- the inputs each rule is drawn on ----------------------------------------------

def _at_scale(mantissa_exponent_sign):
    mantissa, exponent, sign = mantissa_exponent_sign
    return sign * math.ldexp(mantissa, exponent)


SIGN = st.sampled_from([1.0, -1.0])
SCALED = st.tuples(st.floats(0.5, 1.0), st.integers(-20, 27), SIGN)
#: b from 1e-21 to 1e8, next to b = 0
B_AT_SCALE = st.tuples(st.floats(0.5, 1.0), st.integers(-70, 27), SIGN).map(_at_scale)


def _nudged(entries, slot, nudge, offset=0.0):
    """entries with the one in slot times 1 + nudge, plus nudge * offset."""
    out = list(entries)
    out[slot] = out[slot] * (1.0 + nudge) + nudge * offset
    return tuple(out)


#: t I2 plus a relative 2**-j of t in each entry
NEAR_SCALARS = st.builds(lambda t, s, n: tuple(t * (e + s * n) for e in (1.0, 0.0, 0.0, 1.0)),
                         GRID, SIGN, NUDGE)
#: (a, b, c, d, alpha, beta): alpha and beta the trace and det, perhaps nudged
LOCI = st.builds(lambda m, n1, n2, off: (*m, (m[0] + m[3]) * (1.0 + n1) + off,
                                         (m[0] * m[3] - m[1] * m[2]) * (1.0 + n2)),
                 MATS | NEAR_SCALARS, NUDGE, NUDGE, st.sampled_from([0.0, 2.0**-40]))
NILPOTENTS = st.builds(lambda a, b, n1, n2: (a, b, -(a * a) / b * (1.0 + n1), -a * (1.0 + n2)),
                       GRID, GRID.filter(bool), NUDGE, NUDGE)


@st.composite
def general_roots_at_scale(draw):
    """(R, I2): a general root of I2 with entries from 1e-6 to 1e8, nudged."""
    try:
        m = roots.make_general_root(draw(SCALED.map(_at_scale)), abs(draw(B_AT_SCALE)))
    except errors.DegenerateParameter:
        reject()
    return (*_nudged(m.entries(), draw(st.integers(0, 3)), draw(NUDGE)), *I2_ENTRIES)


#: (R, S): the above, or R on the grid with S = R @ R nudged in one entry
ROOTS = square_cases() | general_roots_at_scale() | st.builds(
    lambda r, slot, n: (*r, *_nudged((Mat2(*r) @ Mat2(*r)).entries(), slot, n, 2.0**-50)),
    MATS, st.integers(0, 3), NUDGE)
#: (w, x, y, z) with z about sqrt|w^2 + x^2 - y^2|, on the grid and nudged; or
#: w = +-y and x = +-z +- 1, integers times 2**-26 whose squares sum exactly
LIGHT = st.builds(lambda q, n: (*q[:3], math.sqrt(abs(q[0] * q[0] + q[1] * q[1] - q[2] * q[2]))
                                * (1.0 + n)), MATS, NUDGE) | st.builds(
    lambda y, z, s1, s2, s3: tuple(math.ldexp(v, -26) for v in (s1 * y, s2 * z + s3, y, z)),
    st.integers(2**20, 2**26), st.integers(0, 26).flatmap(lambda j: st.integers(0, 2**j)),
    SIGN, SIGN, SIGN)


@st.composite
def cones(draw):
    """(alpha, alpha^2 / 4, span, n_v): a cone's grid, or one with an odd n_v
    and a span for which rounding leaves the middle ring just off the apex."""
    alpha = draw(GRID)
    span, n_v = draw(st.floats(1e-3, 4.0) | GRID.map(abs).filter(bool)), draw(st.integers(1, 40))
    if draw(st.booleans()):
        n_v = 2 * n_v + 1
        for _ in range(64):
            if quadric._linspace(-span, span, n_v)[n_v // 2]:
                break
            span = math.nextafter(span, math.inf)
    return alpha, alpha * alpha / 4.0, span, n_v


@st.composite
def seeded_points(draw):
    """(A, X): A a root of I2, on S(0, -1), and X = (A - I) Y + 2**-j Z,
    whose (A + I) X (A - I) shrinks with 2**-j."""
    a = roots.make_general_root(draw(st.floats(-4.0, 4.0)), draw(st.floats(0.25, 4.0)) * draw(SIGN))
    y, z = Mat2(*draw(MATS)), Mat2(*draw(MATS))
    x = (a - I2) @ y + math.ldexp(1.0, -draw(st.integers(0, 60))) * z
    return (*a.entries(), *x.entries())


#: [[a, b], [c, d]] with d = a (1 +- sqrt(eps)) a few ulps either way
NEAR_DOUBLE = st.builds(lambda a, b, c, s, n: (a, b, c, a * (1.0 + s * 2.0**-26) + n * math.ulp(a)),
                        GRID.filter(bool), GRID, st.just(0.0) | GRID, SIGN, st.integers(-3, 3))
#: roots of I2 with a = +-(1 - 2**-j) and a small b, c the exact (1 - a^2)/b
#: rounded, which the c rebuilt from (a, b) misses
MISSES = st.builds(lambda a, b: (a, b, float((1 - Fraction(a) ** 2) / Fraction(b)), -a),
                   st.builds(lambda s, j: s - s * 2.0**-j, SIGN, st.integers(1, 52)), B_AT_SCALE)


# -- the table -------------------------------------------------------------------

class Rule(NamedTuple):
    call: Callable  # (inputs, tol) -> the library's decision
    cut: Callable | None  # (inputs, tol) -> the cut whose margin the tolerance is put on
    draws: st.SearchStrategy
    degrees: tuple | None
    examples: int
    rule: Callable | None = None  # (inputs, tol) -> the exact decision, if not cut's
    edges: tuple = ()  # (inputs, k) checked before the draws, 1 ulp off the margin each way


def _kind(fn, *args):
    """The class of what fn raises, or True where it answers."""
    got = oracle.outcome(fn, *args)
    return got if isinstance(got, type) else True


def _square_root(v, tol):
    """_is_square_root's answer; is_involution and is_skew_involution give it
    for S = +-I2, and scaled_roots and conjugated_roots refuse where it is False."""
    r, s = Mat2(*v[:4]), v[4:]
    got = oracle.outcome(mat2._is_square_root, *v, max(map(abs, s)), tol)
    if s in (I2_ENTRIES, NEG_I2_ENTRIES):
        kernel = roots.is_involution if s == I2_ENTRIES else roots.is_skew_involution
        assert oracle.outcome(kernel, r, tol) == got
    for refusal in (oracle.outcome(matfun.scaled_roots, Mat2(*s), 4.0, r, tol),
                    oracle.outcome(matfun.conjugated_roots, Mat2(*s), I2, r, tol)):
        assert (refusal is errors.NotASquareRoot) == (got is False)
    return got


def _surface_rows(v, tol):
    rows = oracle.outcome(quadric.surface_rows, LocusParams(*v[:2]), 3, v[3], v[2], tol)
    return rows if isinstance(rows, type) else len(rows)


def _miss_cut(v, tol):
    """The rebuilt-c miss, where classify_involution reaches it."""
    if oracle.b_cut(*v[:2], tol).decided() is False:
        return oracle.miss_cut(Mat2(*v), tol)


def _m(v):
    return Mat2(*v[:4])


def _locus_row(which):
    return Rule(lambda v, tol: quadric.in_locus(_m(v), LocusParams(*v[4:]), tol),
                lambda v, tol: oracle.locus_cuts(_m(v), *v[4:], tol)[which], LOCI, (1,) * 5 + (2,),
                300, lambda v, tol: oracle.in_locus(_m(v), *v[4:], tol),
                (((0.5, 0.0, 0.0, -0.5, 0.0, -0.25), -500),))


def _cone_row(which):
    return Rule(lambda v, tol: quadric.on_asymptotic_cone(_m(v), tol),
                lambda v, tol: oracle.cone_cuts(_m(v), tol)[which], NILPOTENTS | MATS, (1,) * 4,
                300, lambda v, tol: oracle.on_asymptotic_cone(_m(v), tol),
                (((1e-5, 0.0, 0.0, -1e-5), 0),))


def _family(v, tol):
    family = oracle.outcome(roots.classify_involution, _m(v), tol)
    return getattr(family, "tag", family)


def _family_row(cut, draws=near_roots(), edges=()):
    return Rule(_family, cut, draws, None, 100,
                lambda v, tol: oracle.classify_involution(_m(v), tol),
                tuple((e, 0) for e in [*EDGES, *edges]))


def _square_row(which, examples):
    edges = [(0.0, 1e5, -1e-5, 0.0, *I2_ENTRIES), (1.0, 1e308, 0.0, -1.0, *NEG_I2_ENTRIES),
             (0.5, 0.0, 0.0, 1.0, 0.25, 0.0, 0.0, 1.0), (0.5, 0.0, 0.0, 0.5, *I2_ENTRIES)]
    return Rule(_square_root, lambda v, tol: oracle.square_root_cuts(v[:4], v[4:], tol)[which],
                ROOTS, (1,) * 4 + (2,) * 4, examples,
                lambda v, tol: oracle.square_root(v[:4], v[4:], tol),
                tuple((v, 0) for v in edges + [(*e, *I2_ENTRIES) for e in EDGES]))


RULES = {
    "square_root_s": _square_row(0, 200),
    "square_root_r": _square_row(1, 200),
    "is_symmetric": Rule(
        lambda v, tol: _m(v).is_symmetric(tol), lambda v, tol: oracle.symmetric_cut(_m(v), tol),
        st.builds(lambda m, n: (m[0], m[1], m[1] * (1.0 + n), m[3]), MATS, NUDGE), (1,) * 4, 300),
    "approx_eq": Rule(
        lambda v, tol: mat2.approx_eq(_m(v), Mat2(*v[4:]), tol),
        lambda v, tol: oracle.equal_cut(_m(v), Mat2(*v[4:]), tol),
        st.builds(lambda m, slot, n: m + _nudged(m, slot, n, 2.0**-60),
                  MATS, st.integers(0, 3), NUDGE),
        (1,) * 8, 300),
    "eigen2": Rule(
        lambda v, tol: _kind(matfun.eigen2, _m(v), tol),
        lambda v, tol: oracle.discriminant_cut(_m(v), tol),
        MATS | NILPOTENTS, (1,) * 4, 500, lambda v, tol: oracle.eigen2(_m(v), tol),
        (((0.0, -2.0**-52, 2.0**-52, 0.0), -500), ((1.0, 2.0**-52, -2.0**-52, 1.0), 500))),
    "matrix_function_secant": Rule(
        lambda v, tol: _kind(matfun.matrix_function, _m(v), ScalarFunction(abs), tol), None,
        NEAR_DOUBLE | MATS, (1,) * 4, 100, lambda v, tol: oracle.matrix_function(_m(v), tol)),
    "in_locus_trace": _locus_row(0),
    "in_locus_det": _locus_row(1),
    "in_locus_scalar": _locus_row(2),
    "classify_quadric": Rule(
        lambda v, tol: quadric.classify_quadric(LocusParams(*v), tol).tag,
        lambda v, tol: oracle.quadric_cut(*v, tol),
        st.tuples(GRID, GRID)
        | st.builds(lambda a, s, n: (a, a * a / 4.0 * (1.0 + s * n)), GRID, SIGN, NUDGE),
        (1, 2), 200, lambda v, tol: oracle.classify_quadric(*v, tol)),
    "to_bell": Rule(
        lambda v, tol: _kind(quadric.to_bell, _m(v), v[4], tol) is not errors.NotInHyperplane,
        lambda v, tol: oracle.hyperplane_cut(_m(v), v[4], tol), LOCI.map(lambda v: v[:5]),
        (1,) * 5, 300),
    "quadric_residual": Rule(
        lambda v, tol: _kind(quadric.quadric_residual, BellPoint(*v[:4]), LocusParams(*v[4:]), tol)
        is not errors.AlphaMismatch, lambda v, tol: oracle.alpha_cut(*v[:5], tol),
        st.builds(lambda p, n, s: (*p, p[3] * (1.0 + s * n), 0.25), MATS, NUDGE, SIGN),
        (1,) * 5 + (2,), 300),
    "cone_trace": _cone_row(0),
    "cone_det": _cone_row(1),
    "surface_rows_apex": Rule(
        _surface_rows, lambda v, tol: oracle.apex_cut(
            min(quadric._linspace(-v[2], v[2], v[3]), key=abs), v[2], tol),
        cones(), (1, 2, 1, 0), 100, lambda v, tol: oracle.surface_rows(*v[:3], 3, v[3], tol)),
    "generator_directions_seed": Rule(
        lambda v, tol: _kind(quadric.generator_directions, _m(v), Mat2(*v[4:]), tol), None,
        seeded_points(), (0,) * 4 + (1,) * 4, 100,
        lambda v, tol: oracle.generator_directions(_m(v), Mat2(*v[4:]), tol)),
    "root_constructors_b": Rule(
        lambda v, tol: oracle.outcome(roots.make_general_root if v[2] > 0 else roots.make_skew_root,
                                      *v[:2], tol) is errors.DegenerateParameter,
        lambda v, tol: oracle.b_cut(*v[:2], tol),
        st.tuples(SCALED.map(_at_scale), B_AT_SCALE, SIGN), None, 100),
    "classify_involution_b": _family_row(lambda v, tol: oracle.b_cut(v[0], v[1], tol)),
    "classify_involution_c": _family_row(lambda v, tol: oracle.b_cut(v[0], v[2], tol)),
    "classify_involution_miss": _family_row(  # a = 1 - 2**-32: the rebuilt c misses c
        _miss_cut, near_roots() | MISSES,
        [(0.9999999997671694, 1.6298145055770873e-10, 2.857142856810242, -0.9999999997671694)]),
    "decompose_general_b": Rule(
        lambda v, tol: _kind(xform.decompose_general, _m(v), tol),
        lambda v, tol: oracle.b_cut(*v[:2], tol), near_roots(), None, 100,
        lambda v, tol: oracle.decompose_general(_m(v), tol), tuple((e, 0) for e in EDGES)),
    "sq_classify": Rule(
        lambda v, tol: splitquat.sq_classify(SplitQuat(*v), tol) is splitquat.CausalClass.LIGHTLIKE,
        lambda v, tol: oracle.lightlike_cut(*v, tol), LIGHT, (1,) * 4, 300),
    "unit_root_neg_sec": Rule(
        lambda v, tol: oracle.outcome(splitquat.unit_root_neg, *v, tol) is errors.SingularParameter,
        lambda v, tol: oracle.sec_cut(v[0], tol), st.tuples(st.floats(-10.0, 10.0) | st.builds(
            lambda n, k: (n + 0.5) * math.pi + k * math.ulp((n + 0.5) * math.pi),  # next to a pole
            st.integers(-4, 3), st.integers(0, 2**20)), st.floats(-7.0, 7.0)), None, 100),
}


def _on_margin(cut, ulps):
    """A tolerance whose threshold for the cut is its exact margin, ulps ulps
    up or down; the default where there is none, or it is no positive float."""
    try:
        x = float(cut.margin) if cut and cut.margin else 0.0
    except OverflowError:
        x = 0.0
    for _ in range(abs(ulps) if x else 0):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    if not 0.0 < x < math.inf:
        return DEFAULT_TOL
    return Tolerance(max(x, 1e-9), x) if cut.name == "exact_tol" else Tolerance(x, min(x, 1e-12))


def _scaled(values, degrees, k):
    """values * 2**(degree * k), or None where a nonzero value or its image
    is not a normal float, or one of degree 1 has a square beyond the float
    range (see the xfail below)."""
    out = []
    for v, degree in zip(values, degrees):
        if degree and v:
            try:
                s = math.ldexp(v, degree * k)
            except OverflowError:
                return None
            big = max(abs(v), abs(s))
            if min(abs(v), abs(s)) < sys.float_info.min or degree == 1 and big * big == math.inf:
                return None
            v = s
        out.append(v)
    return tuple(out)


@pytest.mark.parametrize("name", RULES)
def test_every_threshold_rule_decides_as_its_exact_cut(name):
    row = RULES[name]

    def check(inputs, ulps, k):
        tol = _on_margin(row.cut and row.cut(inputs, DEFAULT_TOL), ulps)
        got = row.call(inputs, tol)
        expected = row.rule(inputs, tol) if row.rule else row.cut(inputs, tol).decided()
        assert expected is None or got == expected, (inputs, tol, got, expected)
        scaled = row.degrees and _scaled(inputs, row.degrees, k)
        if scaled:  # where neither overflows on the way
            again = row.call(scaled, tol)
            assert again == got or {again, got} & {errors.NonFiniteEntry, OverflowError}, k

    for (inputs, k), ulps in itertools.product(row.edges, (-1, 0, 1)):
        check(inputs, ulps, k)
    settings(max_examples=row.examples, deadline=None, derandomize=True)(
        given(row.draws, st.integers(-3, 3), K)(check))()


@pytest.mark.xfail(strict=True, reason="||R||^2 overflows to inf where R^2 does not")
def test_the_root_test_is_invariant_where_the_norm_of_r_squared_overflows():
    r, s = (0.0, 2.0**-160, -(2.0**160), 0.0), (-(1.0 + 2.0**-52), 0.0, 0.0, -1.0)
    tol = Tolerance(2.0**-373, 2.0**-373)
    assert not mat2._is_square_root(*r, *s, max(map(abs, s)), tol)
    big = _scaled(s, (2,) * 4, 400)
    assert not mat2._is_square_root(*_scaled(r, (1,) * 4, 400), *big, max(map(abs, big)), tol)


# -- values ------------------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(MATS, K)
@example((1.0, 2.0, 2.0, 4.0), 500)
def test_inverse_is_invariant_under_power_of_two_scaling(entries, k):
    scaled = _scaled(entries, (1,) * 4, k)
    assume(scaled is not None)
    inverse = oracle.outcome(Mat2.inverse, Mat2(*entries))
    if inverse is NotInvertible:
        assert oracle.outcome(Mat2.inverse, Mat2(*scaled)) is NotInvertible
    else:
        want = _scaled(inverse.entries(), (-1,) * 4, k)
        assume(want is not None)
        assert Mat2(*scaled).inverse().entries() == want


@settings(max_examples=300, deadline=None)
@given(MATS, NUDGE, st.integers(0, 3), K)
def test_root_check_is_invariant_and_agrees_with_the_exact_margin(root, nudge, slot, k):
    """scaled_roots and conjugated_roots refuse R as a root of R @ R nudged in
    one entry, at the default tolerance, as the exact rule decides, and
    alike at 2**k R and 4**k S where those stay normal."""
    square = _nudged((Mat2(*root) @ Mat2(*root)).entries(), slot, nudge, 2.0**-50)
    refused = oracle.outcome(scaled_roots, Mat2(*square), 4.0, Mat2(*root)) is errors.NotASquareRoot
    r_k, s_k = _scaled(root, (1,) * 4, k), _scaled(square, (2,) * 4, k)
    if r_k and s_k:
        for fn, args in ((scaled_roots, (4.0,)), (conjugated_roots, (I2,))):
            assert (oracle.outcome(fn, Mat2(*s_k), *args, Mat2(*r_k))
                    is errors.NotASquareRoot) == refused
    exact = oracle.square_root(root, square)
    if exact is not None:
        assert refused == (not exact)


@settings(max_examples=400, deadline=None)
@given(SCALED.map(_at_scale), st.floats(0.5, 1.0), st.integers(-70, 27),
       st.sampled_from([1.0, -1.0]))
@example(0.5, 0.8, -43, 1.0)  # b = 1e-13-ish next to a = 0.5
@example(6715.3, 0.65654296875, 11, -1.0)  # b = -1344.7
def test_general_roots_at_every_scale_read_back_as_built(a, mantissa, exponent, sign):
    b = sign * math.ldexp(mantissa, exponent)
    try:
        m = make_general_root(a, b)
    except DegenerateParameter:
        assert oracle.b_cut(a, b).decided() is not False
        return
    assert is_involution(m)
    family = classify_involution(m)
    if family.tag is RootTag.GENERAL:
        assert (family.a, family.b) == (a, b)
        assert decompose_general(m).recompose().max_diff(m) <= 1e-9 * m.max_norm() ** 2
    else:  # c = (1 - a^2)/b negligible next to max(1, |a|)
        assert family.tag in (RootTag.UPPER_B_PLUS_MINUS, RootTag.UPPER_B_MINUS_PLUS)
        assert oracle.b_cut(a, m.c).decided() is not False
    assert decompose(m).recompose().max_diff(m) <= 1e-9 * max(m.max_norm() ** 2, 1.0)


@settings(max_examples=300, deadline=None)
@given(SCALED.map(_at_scale), st.floats(0.5, 1.0), st.integers(-70, 27),
       st.sampled_from([1.0, -1.0]))
def test_skew_roots_at_every_scale_are_skew_involutions(a, mantissa, exponent, sign):
    b = sign * math.ldexp(mantissa, exponent)
    try:
        m = make_skew_root(a, b)
    except DegenerateParameter:
        assert oracle.b_cut(a, b).decided() is not False
        return
    assert is_skew_involution(m)


@settings(max_examples=300, deadline=None)
@given(SCALED.map(_at_scale), st.floats(0.5, 1.0), st.integers(-70, 27), NUDGE,
       st.integers(0, 3))
def test_involution_test_agrees_with_the_exact_margin(a, mantissa, exponent, nudge, slot):
    """is_involution at the default tolerance on a general root from 1e-6 to
    1e8, nudged in one entry, as the exact rule decides."""
    try:
        m = make_general_root(a, math.ldexp(mantissa, exponent))
    except DegenerateParameter:
        return
    entries = _nudged(m.entries(), slot, nudge)
    exact = oracle.involution(entries, 1.0)
    if exact is not None:
        assert is_involution(Mat2(*entries)) == exact


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-7.0, 7.0))
@example(math.pi / 2, 0.0)
def test_the_secant_cut_is_one_cut(t, phi):
    root = oracle.outcome(unit_root_neg, t, phi)
    parts = oracle.outcome(decompose_root, t, phi, "neg")
    if root is SingularParameter:
        assert parts is SingularParameter
        assert oracle.sec_cut(t).decided() is not False
    else:
        coef_h, _, coef_j, _ = parts
        assert (coef_h, coef_j) == (math.sin(t) / math.cos(t), 1.0 / math.cos(t))

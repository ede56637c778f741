"""One scale-relative threshold rule: ``Tolerance.negligible(x, scale)``.

Every threshold decision compares a quantity with the size of the inputs
that produced it, so two properties hold for each:

* power-of-two invariance: scaling by 2**k is exact, so for k in
  [-500, 500] the decision on 2**k * A (alpha * 2**k and beta * 4**k for a
  locus) is the decision on A;
* exact signs: every float is a rational, so the true size of the quantity
  is known with ``fractions.Fraction``, and the decision agrees with the
  exact rule in oracle.py wherever the exact margin is more than twice the
  threshold (or less than half of it), which is ``oracle.clear``.

The tests of R^2 = +-I2 fix the scale, so they are checked instead on roots
whose entries run from 1e-6 to 1e8, next to b = 0.  The examples at the top
are inputs that an absolute cut misread.
"""

import math
import random
import sys

import oracle
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from invgeo import (
    DEFAULT_TOL,
    BellPoint,
    LocusParams,
    Mat2,
    RootTag,
    SplitQuat,
    Tolerance,
    approx_eq,
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
    sq_classify,
    surface_rows,
    to_bell,
    unit_root_neg,
)
from invgeo.errors import (
    AlphaMismatch,
    DegenerateParameter,
    NotASquareRoot,
    NotInHyperplane,
    NotInvertible,
    SingularParameter,
)

I2 = Mat2.identity()
K = st.integers(-500, 500)
#: multiples of 2**-52 in [-2, 2], as in the eigen2 invariance test
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


# -- helpers ---------------------------------------------------------------------

def _scaled(values, degrees, k):
    """values * 2**(degree * k), assuming each stays exact and normal."""
    out = []
    for v, degree in zip(values, degrees):
        try:
            s = math.ldexp(v, degree * k)
        except OverflowError:
            reject()
        assume(math.ldexp(s, -degree * k) == v and (v == 0.0 or abs(s) >= sys.float_info.min))
        out.append(s)
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc)


@st.composite
def loci(draw):
    """(m, alpha, beta): m on the grid, alpha and beta its trace and det,
    each perhaps nudged by a relative 2**-j."""
    m = draw(MATS)
    a, b, c, d = m
    alpha = (a + d) * (1.0 + draw(NUDGE)) + draw(st.sampled_from([0.0, 2.0**-40]))
    beta = (a * d - b * c) * (1.0 + draw(NUDGE))
    return Mat2(*m), alpha, beta


# -- in_locus, on_asymptotic_cone, to_bell, quadric_residual ---------------------

@settings(max_examples=300, deadline=None)
@given(loci(), K)
@example((Mat2.diag(0.5, -0.5), 0.0, -0.25), -500)
def test_in_locus_is_invariant_under_power_of_two_scaling(locus, k):
    m, alpha, beta = locus
    *entries, alpha_k = _scaled((*m.entries(), alpha), (1, 1, 1, 1, 1), k)
    (beta_k,) = _scaled((beta,), (2,), k)
    assert (in_locus(Mat2(*entries), LocusParams(alpha_k, beta_k))
            == in_locus(m, LocusParams(alpha, beta)))


@settings(max_examples=300, deadline=None)
@given(loci())
def test_in_locus_agrees_with_the_exact_margins(locus):
    m, alpha, beta = locus
    expected = oracle.in_locus(m, alpha, beta, read=oracle.clear)
    assume(expected is not None)
    assert in_locus(m, LocusParams(alpha, beta)) == expected


@st.composite
def near_nilpotents(draw):
    a, b = draw(GRID), draw(GRID.filter(bool))
    c = -(a * a) / b * (1.0 + draw(NUDGE))
    d = -a * (1.0 + draw(NUDGE))
    assume(math.isfinite(c))
    return Mat2(a, b, c, d)


@settings(max_examples=300, deadline=None)
@given(near_nilpotents() | MATS.map(lambda e: Mat2(*e)), K)
@example(Mat2.diag(1e-5, -1e-5), 0)
def test_asymptotic_cone_is_invariant_under_power_of_two_scaling(m, k):
    scaled = Mat2(*_scaled(m.entries(), (1, 1, 1, 1), k))
    assert on_asymptotic_cone(scaled) == on_asymptotic_cone(m)


@settings(max_examples=300, deadline=None)
@given(near_nilpotents())
def test_asymptotic_cone_agrees_with_the_exact_margins(m):
    expected = oracle.on_asymptotic_cone(m, read=oracle.clear)
    assume(expected is not None)
    assert on_asymptotic_cone(m) == expected


@settings(max_examples=300, deadline=None)
@given(loci(), K)
def test_hyperplane_decisions_are_invariant_and_agree_with_the_exact_margin(locus, k):
    m, alpha, _ = locus
    *entries, alpha_k = _scaled((*m.entries(), alpha), (1, 1, 1, 1, 1), k)
    refused = _outcome(to_bell, m, alpha) is NotInHyperplane
    assert (_outcome(to_bell, Mat2(*entries), alpha_k) is NotInHyperplane) == refused
    inside = oracle.clear(oracle.hyperplane_cut(m, alpha))
    if inside is not None:
        assert refused == (not inside)


@settings(max_examples=300, deadline=None)
@given(st.tuples(GRID, GRID, GRID, GRID), NUDGE, st.sampled_from([1.0, -1.0]), K)
def test_alpha_mismatch_is_invariant_and_agrees_with_the_exact_margin(point, nudge, sign, k):
    x, y, z, alpha = point
    other = alpha * (1.0 + sign * nudge)
    locus = LocusParams(other, 0.25)
    mismatch = _outcome(quadric_residual, BellPoint(x, y, z, alpha), locus) is AlphaMismatch
    x_k, y_k, z_k, alpha_k, other_k = _scaled((x, y, z, alpha, other), (1,) * 5, k)
    (beta_k,) = _scaled((0.25,), (2,), k)
    scaled = _outcome(quadric_residual, BellPoint(x_k, y_k, z_k, alpha_k),
                      LocusParams(other_k, beta_k))
    assert (scaled is AlphaMismatch) == mismatch
    same = oracle.clear(oracle.alpha_cut(x, y, z, alpha, other))
    if same is not None:
        assert mismatch == (not same)


@settings(max_examples=100, deadline=None)
@given(GRID, st.floats(1e-3, 4.0), st.integers(1, 9), K)
def test_cone_rings_are_invariant_under_power_of_two_scaling(alpha, span, n_v, k):
    alpha_k, span_k = _scaled((alpha, span), (1, 1), k)
    (beta_k,) = _scaled((alpha * alpha / 4.0,), (2,), k)
    rows = surface_rows(LocusParams(alpha, alpha * alpha / 4.0), 3, n_v, span=span)
    assert rows[-1][7] == "vertex"  # a cone
    assert len(surface_rows(LocusParams(alpha_k, beta_k), 3, n_v, span=span_k)) == len(rows)


# -- sq_classify -----------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(MATS, NUDGE, K)
def test_lightlike_decision_is_invariant_and_agrees_with_the_exact_margin(q, nudge, k):
    w, x, y, _ = q
    z = math.sqrt(abs(w * w + x * x - y * y)) * (1.0 + nudge)  # near the light cone
    quat = SplitQuat(w, x, y, z)
    cls = sq_classify(quat)
    assert sq_classify(SplitQuat(*_scaled((w, x, y, z), (1, 1, 1, 1), k))) is cls
    lightlike = oracle.clear(oracle.lightlike_cut(w, x, y, z))
    if lightlike is not None:
        assert (cls.value == "lightlike") == lightlike


# -- is_symmetric, approx_eq, inverse ---------------------------------------------

@settings(max_examples=300, deadline=None)
@given(MATS, NUDGE, K)
def test_symmetry_is_invariant_and_agrees_with_the_exact_margin(entries, nudge, k):
    a, b, _, d = entries
    m = Mat2(a, b, b * (1.0 + nudge), d)
    scaled = Mat2(*_scaled(m.entries(), (1, 1, 1, 1), k))
    assert scaled.is_symmetric() == m.is_symmetric()
    symmetric = oracle.clear(oracle.symmetric_cut(m))
    if symmetric is not None:
        assert m.is_symmetric() == symmetric


@settings(max_examples=300, deadline=None)
@given(MATS, NUDGE, st.integers(0, 3), K)
def test_approx_eq_is_invariant_and_agrees_with_the_exact_margin(entries, nudge, slot, k):
    other = list(entries)
    other[slot] = other[slot] * (1.0 + nudge) + nudge * 2.0**-60
    lhs, rhs = Mat2(*entries), Mat2(*other)
    same = approx_eq(lhs, rhs)
    assert approx_eq(Mat2(*_scaled(entries, (1,) * 4, k)), Mat2(*_scaled(other, (1,) * 4, k))) == same
    equal = oracle.clear(oracle.equal_cut(lhs, rhs))
    if equal is not None:
        assert same == equal


@settings(max_examples=300, deadline=None)
@given(MATS, K)
@example((1.0, 2.0, 2.0, 4.0), 500)
def test_inverse_is_invariant_under_power_of_two_scaling(entries, k):
    scaled = Mat2(*_scaled(entries, (1,) * 4, k))
    inverse = _outcome(Mat2.inverse, Mat2(*entries))
    if inverse is NotInvertible:
        assert _outcome(Mat2.inverse, scaled) is NotInvertible
    else:
        assert scaled.inverse().entries() == tuple(_scaled(inverse.entries(), (-1,) * 4, k))


# -- square roots of a matrix ----------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(MATS, NUDGE, st.integers(0, 3), K)
def test_root_check_is_invariant_and_agrees_with_the_exact_margin(root, nudge, slot, k):
    r = Mat2(*root)
    square = list((r @ r).entries())
    square[slot] = square[slot] * (1.0 + nudge) + nudge * 2.0**-50
    m = Mat2(*square)
    refused = _outcome(scaled_roots, m, 4.0, r) is NotASquareRoot
    r_k = Mat2(*_scaled(root, (1,) * 4, k))
    m_k = Mat2(*_scaled(square, (2,) * 4, k))
    assert (_outcome(scaled_roots, m_k, 4.0, r_k) is NotASquareRoot) == refused
    assert (_outcome(conjugated_roots, m_k, I2, r_k) is NotASquareRoot) == refused
    root = oracle.square_root(r.entries(), m.entries(), read=oracle.clear)
    if root is not None:
        assert refused == (not root)


# -- roots of +-I2, from 1e-6 to 1e8 and next to b = 0 -----------------------------

SCALED = st.tuples(st.floats(0.5, 1.0), st.integers(-20, 27), st.sampled_from([1.0, -1.0]))


def _at_scale(mantissa_exponent_sign):
    mantissa, exponent, sign = mantissa_exponent_sign
    return sign * math.ldexp(mantissa, exponent)


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
    try:
        m = make_general_root(a, math.ldexp(mantissa, exponent))
    except DegenerateParameter:
        return
    entries = list(m.entries())
    entries[slot] *= 1.0 + nudge
    m = Mat2(*entries)
    involution = oracle.involution(m.entries(), 1.0, read=oracle.clear)
    if involution is not None:
        assert is_involution(m) == involution


@settings(max_examples=200, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-7.0, 7.0))
@example(math.pi / 2, 0.0)
def test_the_secant_cut_is_one_cut(t, phi):
    root, parts = _outcome(unit_root_neg, t, phi), _outcome(decompose_root, t, phi, "neg")
    if root is SingularParameter:
        assert parts is SingularParameter
        assert abs(math.cos(t)) <= DEFAULT_TOL.exact_tol
    else:
        coef_h, _, coef_j, _ = parts
        assert (coef_h, coef_j) == (math.sin(t) / math.cos(t), 1.0 / math.cos(t))

"""The involution kernels against their Mat2-chain forms in oracle.py.

Each kernel works on the four entries as plain floats; here every one must
return a value with the same ``repr`` as its reference form, or raise the
same exception class with the same message, across the whole finite range:
roots of I2 from every family, nudged by a few ulps, far from order 1 and
next to b = 0, and arbitrary finite matrices.
"""

import math

import oracle
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invgeo import (
    DEFAULT_TOL,
    LocusParams,
    Mat2,
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
)
from invgeo import matfun
from invgeo.errors import NonFiniteEntry
from invgeo.mat2 import _is_square_root, _square_residual

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
    try:
        residuals = [oracle.root_residual(m, 1.0), oracle.root_residual(m, -1.0)]
    except NonFiniteEntry:
        residuals = []
    quantities = residuals + [abs(m.trace()), abs(m.det() + 1.0), m.scalar_distance(),
                              abs(b), abs(c), abs(b - c), abs(a - 1.0), abs(a + 1.0)]
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


def _outcome(fn, *args):
    """repr of fn's result, or the class and message of what it raised."""
    try:
        return repr(fn(*args))
    except Exception as exc:
        return type(exc), str(exc)


def _same(kernel, reference, *args):
    assert _outcome(kernel, *args) == _outcome(reference, *args)


def edge_examples(*extra, seed=None):
    """@example for each edge matrix, at the default tolerance."""
    edges = [
        (1.0, 1e308, 0.0, -1.0),  # a product of generator_directions overflows
        (5e153, 1e160, -1e160, -5e153),  # R^2 overflows
        (0.5, 1e-13, 7.5e12, -0.5),  # b -> 0, below exact_tol
        (0.6, 1e-9, 0.64 / 1e-9, -0.6),  # b -> 0, above exact_tol
        (1.0, 0.0, 0.0, -1.0),  # diag(1, -1): upper and lower family at once
        (-1.0, 0.0, 0.0, 1.0),
        (1.0, -0.0, 0.0, -1.0),
    ]

    def apply(test):
        for entries in edges:
            case = (entries, DEFAULT_TOL)
            test = (example(case) if seed is None else example(case, seed))(test)
        for args in extra:
            test = example(*args)(test)
        return test
    return apply


@settings(max_examples=400, deadline=None)
@given(cases())
@edge_examples()
def test_involution_tests_match_the_product_form(case):
    entries, tol = case
    m = Mat2(*entries)
    _same(is_involution, oracle.is_involution, m, tol)
    _same(is_skew_involution, oracle.is_skew_involution, m, tol)


@settings(max_examples=400, deadline=None)
@given(cases())
@edge_examples([((0.5, 1e-13, 7.5e12, -0.5), Tolerance(1e-14, 1e-15))])
def test_classify_involution_matches_the_matrix_chain(case):
    entries, tol = case
    _same(classify_involution, oracle.classify_involution, Mat2(*entries), tol)


@settings(max_examples=400, deadline=None)
@given(cases())
@edge_examples()
def test_decompose_matches_the_matrix_chain(case):
    entries, tol = case
    m = Mat2(*entries)
    _same(decompose, oracle.decompose, m, tol)
    _same(decompose_general, oracle.decompose_general, m, tol)


@settings(max_examples=400, deadline=None)
@given(cases())
@edge_examples([((1.0, 1e-10, 1e-10, 1.0), DEFAULT_TOL)],
               [((-1.0, 0.0, 0.0, -1.0 + 1e-10), DEFAULT_TOL)])
def test_householder_angle_matches_the_matrix_chain(case):
    entries, tol = case
    _same(householder_angle, oracle.householder_angle, Mat2(*entries), tol)


@settings(max_examples=400, deadline=None)
@given(cases(), SEEDS)
@edge_examples((((0.0, 1.0, 1.0, 0.0), DEFAULT_TOL), (0.0, 0.0, 0.0, 0.0)),
               (((0.0, 1.0, 1.0, 0.0), DEFAULT_TOL), (5e-324, 0.0, 0.0, 0.0)),
               (((0.0, 1.0, 1.0, 0.0), DEFAULT_TOL), (1e300, 1e300, -1e300, 1e300)),
               seed=SEED)
def test_generator_directions_matches_the_matrix_chain(case, seed):
    entries, tol = case
    _same(generator_directions, oracle.generator_directions, Mat2(*entries), Mat2(*seed), tol)


@settings(max_examples=300, deadline=None)
@given(near_roots())
def test_count_real_roots_matches_fresh_values(entries):
    _same(count_real_roots, oracle.count_real_roots, Mat2(*entries))


FIELD_VALUES = FINITE | st.sampled_from([math.inf, -math.inf, math.nan, 0, -3, True, "2.5"])


def _stored(cls, args):
    value = cls(*args)
    return tuple(getattr(value, name) for name in cls.__slots__)


@settings(max_examples=300, deadline=None)
@given(values=st.tuples(FIELD_VALUES, FIELD_VALUES, FIELD_VALUES, FIELD_VALUES))
@example(values=(1.0, math.nan, math.inf, 0.0))
@example(values=(-3, True, "2.5", -0.0))
def test_value_types_store_what_checking_each_field_stores(values):
    for cls, args in ((LocusParams, values[:2]), (SplitQuat, values)):
        assert (_outcome(_stored, cls, args)
                == _outcome(oracle.checked_fields, cls.__slots__, args))


I2_ENTRIES, NEG_I2_ENTRIES = (1.0, 0.0, 0.0, 1.0), (-1.0, 0.0, 0.0, -1.0)


@st.composite
def square_cases(draw):
    """(R, S, tol): R a near-root of +-I2, any matrix, or a candidate root
    (S + sI)/t of an S with entries in [-1, 1]; S +-I2, R @ R a few ulps off
    in one entry, or any matrix; tol a fixed one or one whose abs_tol is the residual over ||S||
    or over ||R||^2, where <= and > part."""
    kind = draw(st.sampled_from(["identity", "neg_identity", "square", "any", "branch"]))
    if kind == "branch":  # on the scaled entries, as sqrt_branches works
        s = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 4))
        a, b, c, d = s
        traces = matfun._root_traces(a, b, c, d)
        assume(traces)
        t = draw(st.sampled_from(traces))
        p, h = 0.5 * (a - d) / t, 0.5 * t
        r = (h + p, b / t + 0.0, c / t + 0.0, h - p)
    else:
        r = draw(near_roots())
        s = {"identity": I2_ENTRIES, "neg_identity": NEG_I2_ENTRIES}.get(kind)
    if kind == "any":
        s = draw(st.tuples(FINITE, FINITE, FINITE, FINITE))
    elif kind == "square":
        try:
            s = list((Mat2(*r) @ Mat2(*r)).entries())
        except NonFiniteEntry:
            s = list(I2_ENTRIES)
        slot = draw(st.integers(0, 3))
        for _ in range(draw(st.integers(0, 3))):
            s[slot] = math.nextafter(s[slot], draw(st.sampled_from([-math.inf, math.inf])))
        assume(math.isfinite(s[slot]))
        s = tuple(s)
    tols = list(TOLS)
    a, b, c, d = r
    scales = (max(map(abs, s)), max(a * a, b * b, c * c, d * d))
    for residual in (_outcome(_square_residual, *r, *s),
                     _outcome(oracle.branch_residual, *r, *s)):
        for scale in scales:
            x = float(residual) / scale if isinstance(residual, str) and scale else 0.0
            if 0.0 < x < math.inf:
                tols.append(Tolerance(x, min(x, 1e-12)))
    return r, s, draw(st.sampled_from(tols))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(square_cases())
@example(((5e153, 1e160, -1e160, -5e153), I2_ENTRIES, DEFAULT_TOL))  # R^2 overflows
@example(((0.0, 1e5, -1e-5, 0.0), I2_ENTRIES, DEFAULT_TOL))  # R^2 = -I2, ||R||^2 large
@example(((1.0, 1e308, 0.0, -1.0), NEG_I2_ENTRIES, DEFAULT_TOL))  # ||R||^2 overflows
@example(((0.5, 0.0, 0.0, 1.0), (0.25, 0.0, 0.0, 1.0), DEFAULT_TOL))
def test_one_square_root_test_decides_as_every_earlier_form(case):
    r, s, tol = case
    got = _outcome(_is_square_root, *r, *s, tol)
    assert got == _outcome(oracle.is_square_root, Mat2(*r), Mat2(*s), tol)
    if s == I2_ENTRIES:
        assert got == _outcome(oracle.is_involution, Mat2(*r), tol)
    if s == NEG_I2_ENTRIES:
        assert got == _outcome(oracle.is_skew_involution, Mat2(*r), tol)
    # sqrt_branches formed R^2's off-diagonal entries as b * tr R, which can
    # round differently from a * b + b * d; where the two residuals are one
    # float, the decision must be the same
    if _outcome(oracle.branch_residual, *r, *s) == _outcome(_square_residual, *r, *s):
        assert got == _outcome(oracle.branch_is_square_root, *r, *s, tol)

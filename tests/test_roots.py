import math

import numpy as np
import oracle
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from invgeo import (
    Mat2,
    RootFamily,
    RootTag,
    classify_involution,
    is_involution,
    is_skew_involution,
    make_case_root,
    make_general_root,
    make_root,
    make_skew_root,
    sample_involutions,
    sample_skew_involutions,
)
from invgeo.mat2 import Tolerance, _square_residual
from invgeo import _pcg64, roots
from invgeo.errors import (
    DegenerateParameter,
    InvalidCount,
    InvGeoError,
    NonFiniteEntry,
    NotAnInvolution,
    WrongConstructor,
)

I2 = Mat2.identity()

params = st.floats(min_value=-10, max_value=10, allow_nan=False)
params_b = params.filter(lambda b: abs(b) >= 1e-3)


def test_general_root_examples():
    assert make_general_root(0, 1) == Mat2(0, 1, 1, 0)
    assert make_general_root(3, 2) == Mat2(3, 2, -4, -3)
    phi = 0.9
    h = make_general_root(math.cos(phi), math.sin(phi))
    assert h.max_diff(Mat2(math.cos(phi), math.sin(phi), math.sin(phi), -math.cos(phi))) <= 1e-15


def test_general_root_rejects_degenerate_b():
    with pytest.raises(DegenerateParameter):
        make_general_root(1.0, 0.0)
    with pytest.raises(DegenerateParameter):
        make_general_root(1.0, 1e-13)


@given(a=params, b=params_b)
@settings(max_examples=300, deadline=None)
def test_general_root_squares_to_identity(a, b):
    r = make_general_root(a, b)
    assert (r @ r).max_diff(I2) <= 1e-9


@given(a=params, b=params_b)
@settings(max_examples=300, deadline=None)
def test_skew_root_squares_to_neg_identity(a, b):
    r = make_skew_root(a, b)
    assert (r @ r).max_diff(-I2) <= 1e-9


def test_skew_root_examples():
    assert make_skew_root(0, 1) == Mat2(0, 1, -1, 0)
    assert make_skew_root(1, 2) == Mat2(1, 2, -1, -1)
    assert make_skew_root(0, -1) == Mat2(0, -1, 1, 0)


def _constructor_reference(square, a, b, degenerate):
    """make_general_root (square 1) and make_skew_root (square -1) as each
    wrote its own c, -(1 + a^2)/b for the skew family, where b ~ 0 is
    degenerate."""
    if degenerate:
        raise DegenerateParameter("b ~ 0: use make_case_root with a triangular or scalar family"
                                  if square > 0 else "skew-involutory family requires b != 0")
    return Mat2(a, b, (1.0 - a * a) / b if square > 0 else -(1.0 + a * a) / b, -a)


def _outcome(fn, *args):
    """The entries of fn's matrix as hex, or the type and text of its error."""
    try:
        return tuple(map(float.hex, fn(*args).entries()))
    except (DegenerateParameter, NonFiniteEntry, ZeroDivisionError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(a=st.floats(), b=st.floats(), square=st.sampled_from([1.0, -1.0]))
@example(a=1e200, b=1.0, square=-1.0)  # c overflows
@example(a=math.nan, b=1.0, square=1.0)  # a is named before c
@example(a=0.5, b=math.inf, square=-1.0)  # c = -0.0, and b is named
@example(a=1e-30, b=-5e-324, square=-1.0)  # b ~ 0
def test_both_constructors_build_the_root_the_reference_builds(a, b, square):
    """One formula, (square - a^2)/b, gives each family's c bit for bit, and
    the constructors raise the same error first, non-finite input included."""
    make = make_general_root if square > 0 else make_skew_root
    # the exact b cut, where it decides; a non-finite a or b has none
    cut = oracle.b_cut(a, b).decided() if math.isfinite(a) and math.isfinite(b) else None
    assert _outcome(make, a, b) in {_outcome(_constructor_reference, square, a, b, degenerate)
                                    for degenerate in ((True, False) if cut is None else (cut,))}


CASE_MATRICES = [
    (RootFamily(RootTag.IDENTITY), I2),
    (RootFamily(RootTag.NEG_IDENTITY), -I2),
    (RootFamily(RootTag.UPPER_B_PLUS_MINUS, b=5.0), Mat2(1, 5, 0, -1)),
    (RootFamily(RootTag.UPPER_B_MINUS_PLUS, b=2.5), Mat2(-1, 2.5, 0, 1)),
    (RootFamily(RootTag.LOWER_C_PLUS_MINUS, c=4.0), Mat2(1, 0, 4, -1)),
    (RootFamily(RootTag.LOWER_C_MINUS_PLUS, c=-2.0), Mat2(-1, 0, -2, 1)),
]


@pytest.mark.parametrize("family, expected", CASE_MATRICES)
def test_make_case_root(family, expected):
    m = make_case_root(family)
    assert m == expected
    assert is_involution(m)


def test_make_case_root_rejects_general():
    with pytest.raises(WrongConstructor):
        make_case_root(RootFamily(RootTag.GENERAL, a=0.0, b=1.0))


def test_root_family_validates_params():
    with pytest.raises(DegenerateParameter):
        RootFamily(RootTag.GENERAL, a=1.0, b=0.0)
    with pytest.raises(DegenerateParameter):
        RootFamily(RootTag.UPPER_B_PLUS_MINUS)  # missing b
    with pytest.raises(DegenerateParameter):
        RootFamily(RootTag.IDENTITY, b=1.0)  # extraneous slot


def test_root_family_json_round_trip():
    fam = RootFamily(RootTag.GENERAL, a=0.5, b=-2.0)
    assert RootFamily.from_json_dict(fam.to_json_dict()) == fam
    # a parameter that is not a JSON number in the float range names its key
    for params, message in [({"a": "0.5", "b": 2.0}, "^JSON key 'a' must be a number"),
                            ({"a": 0.5, "b": True}, "^JSON key 'b' must be a number"),
                            ({"a": 0.5, "b": 10**400}, "^JSON key 'b' is an integer beyond")]:
        with pytest.raises(ValueError, match=message):
            RootFamily.from_json_dict({"tag": "general", "params": params})


def test_classify_examples():
    assert classify_involution(I2).tag is RootTag.IDENTITY
    assert classify_involution(-I2).tag is RootTag.NEG_IDENTITY
    fam = classify_involution(Mat2(0, 1, 1, 0))
    assert fam.tag is RootTag.GENERAL and (fam.a, fam.b) == (0.0, 1.0)
    fam = classify_involution(Mat2(1, 3, 0, -1))
    assert fam.tag is RootTag.UPPER_B_PLUS_MINUS and fam.b == 3.0


def test_classify_rejects_non_involution():
    with pytest.raises(NotAnInvolution):
        classify_involution(Mat2(0, 1, 0, 0))
    with pytest.raises(NotAnInvolution):
        classify_involution(Mat2.scalar(2.0))


@pytest.mark.parametrize("family, _", CASE_MATRICES)
def test_classify_round_trips_case_constructors(family, _):
    recovered = classify_involution(make_case_root(family))
    assert recovered == family


@given(a=params, b=params_b)
@settings(max_examples=200, deadline=None)
def test_classify_round_trips_general(a, b):
    m = make_general_root(a, b)
    fam = classify_involution(m)
    # at a = +-1 the construction lands exactly on a triangular case; the
    # family changes name there but must still rebuild the same matrix
    if fam.tag is RootTag.GENERAL:
        assert abs(fam.a - a) <= 1e-9 and abs(fam.b - b) <= 1e-9
    else:
        assert abs(abs(a) - 1.0) <= 1e-12
    assert make_root(fam).max_diff(m) <= 1e-9


def test_classify_boundary_small_b_stays_general():
    # a general root with a tiny but genuine b parameter is still general
    r = make_general_root(0.5, 1e-9)
    fam = classify_involution(r)
    assert fam.tag is RootTag.GENERAL
    assert fam.b == 1e-9


def test_classify_b_to_0_falls_back_to_the_lower_family():
    # (1 - a^2)/b rebuilds c as 2.000000165 here; the lower family keeps c
    b, c = 1e-10, 2.0
    a = math.sqrt(1.0 - b * c)
    m = Mat2(a, b, c, -a)
    fam = classify_involution(m)
    assert fam.tag is RootTag.LOWER_C_PLUS_MINUS and fam.c == c
    assert make_root(fam).max_diff(m) <= 2 * b
    flipped = classify_involution(-m)
    assert flipped.tag is RootTag.LOWER_C_MINUS_PLUS and flipped.c == -c


def test_classify_case_2i_boundary_from_general():
    # the a -> 1 limit of the general family is the upper triangular case
    r = make_general_root(1.0, 4.0)
    assert r.c == 0.0
    fam = classify_involution(r)
    assert fam.tag is RootTag.UPPER_B_PLUS_MINUS and fam.b == 4.0


def test_make_root_dispatches_all_tags():
    for family, expected in CASE_MATRICES:
        assert make_root(family) == expected
    assert make_root(RootFamily(RootTag.GENERAL, a=2.0, b=4.0)) == make_general_root(2.0, 4.0)


def test_make_root_passes_its_tolerance_to_the_general_constructor():
    family = RootFamily(RootTag.GENERAL, a=0.5, b=1e-13)
    with pytest.raises(DegenerateParameter):
        make_root(family)
    fine = Tolerance(abs_tol=1e-14, exact_tol=1e-14)
    assert make_root(family, fine) == make_general_root(0.5, 1e-13, fine)


def test_is_involution_examples():
    assert is_involution(-I2)
    assert is_skew_involution(Mat2(0, 1, -1, 0))
    assert not is_involution(Mat2(0, 1, 0, 0))
    assert not is_skew_involution(I2)


def test_sampler_residuals_and_determinism():
    first = sample_involutions(50, seed=0)
    again = sample_involutions(50, seed=0)
    other = sample_involutions(50, seed=1)
    assert first == again
    assert first != other
    for m in first:
        assert (m @ m).max_diff(I2) <= 1e-9


def test_sampler_rejects_bad_count():
    with pytest.raises(InvalidCount):
        sample_involutions(0)
    with pytest.raises(InvalidCount):
        sample_skew_involutions(-3)


def test_skew_sampler_residuals():
    for m in sample_skew_involutions(50, seed=4):
        assert (m @ m).max_diff(-I2) <= 1e-9


def test_sampler_single_draw():
    (m,) = sample_involutions(1, seed=0)
    assert (m @ m).max_diff(I2) <= 1e-9


@pytest.mark.parametrize("sampler", [sample_involutions, sample_skew_involutions])
@pytest.mark.parametrize("param_range", [0.0, -0.0, 1e-4, 1e-3, 1.0009e-3])
def test_sampler_refuses_a_range_without_admissible_b(sampler, param_range):
    with pytest.raises(DegenerateParameter):
        sampler(2, seed=0, param_range=param_range)


def test_sampler_range_just_above_the_b_cutoff_still_draws():
    # 1.001e-3 keeps 1 in 1001 draws, just above the 1 in 1024 refused
    for param_range in (0.0011, 1.001e-3):
        for m in sample_involutions(2, seed=0, param_range=param_range):
            assert abs(m.b) >= 1e-3
            assert (m @ m).max_diff(I2) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**160),
    bounds=st.lists(
        st.tuples(st.floats(-1e300, 1e300), st.floats(0, 1e300),
                  st.none() | st.integers(min_value=0, max_value=40)),
        min_size=1, max_size=8
    ),
)
@example(seed=0, bounds=[(-10.0, 20.0, 0), (-10.0, 20.0, None), (-10.0, 20.0, 17)])
# the entropy-length boundaries, the ends of one and of four 32-bit words,
# and a long seed of 126 words
@example(seed=2**32 - 1, bounds=[(-10.0, 20.0, 17)])
@example(seed=2**32, bounds=[(-10.0, 20.0, 17)])
@example(seed=2**128 - 1, bounds=[(-10.0, 20.0, 17)])
@example(seed=2**128, bounds=[(-10.0, 20.0, 17)])
@example(seed=2**4000 + 12345, bounds=[(-10.0, 20.0, 17)])
def test_pcg64_uniform_matches_numpy_bit_for_bit(seed, bounds):
    """Without a size, one float, NumPy's; with one, a list of size floats,
    NumPy's array hex for hex (size 0 draws nothing), and what as many
    scalar calls draw."""
    ours, theirs = _pcg64.Generator(seed), np.random.default_rng(seed)
    scalar = _pcg64.Generator(seed)
    for low, width, size in bounds:
        high = low + width
        if not math.isfinite(high):
            continue
        x, y = ours.uniform(low, high, size), theirs.uniform(low, high, size)
        one_by_one = [scalar.uniform(low, high) for _ in range(1 if size is None else size)]
        if size is None:
            assert type(x) is type(y) is float
            x, y = [x], [y]
        assert type(x) is list and all(type(v) is float for v in x + one_by_one)
        assert [v.hex() for v in x] == [float(v).hex() for v in y]
        assert [v.hex() for v in one_by_one] == [v.hex() for v in x]


@pytest.mark.parametrize("seed, low, high", [(-1, 0.0, 1.0), (0, -1e308, 1e308),
                                             (0, 0.0, math.nan), (0, 1.0, -1.0)])
def test_pcg64_rejects_what_numpy_rejects(seed, low, high):
    for size in (None, 0, 5):
        with pytest.raises((ValueError, OverflowError)) as theirs:
            np.random.default_rng(seed).uniform(low, high, size)
        with pytest.raises(theirs.type, match=str(theirs.value)):
            _pcg64.Generator(seed).uniform(low, high, size)


def test_pcg64_rejects_a_negative_size_as_numpy_does():
    with pytest.raises(ValueError) as theirs:
        np.random.default_rng(0).uniform(0.0, 1.0, -1)
    with pytest.raises(ValueError, match=str(theirs.value)):
        _pcg64.Generator(0).uniform(0.0, 1.0, -1)


def _scalar_draw_sample(make, n, seed, param_range):
    """The samplers as they were, on NumPy's own generator: one (a, b) pair
    of scalar draws at a time, rejecting |b| < 1e-3, each root built by make.
    The reference the row kernel must reproduce, row for row and error for
    error."""
    if n < 1:
        raise InvalidCount(f"need n >= 1, got {n}")
    if 0.0 <= param_range <= 1e-3:
        raise DegenerateParameter(
            f"sampling range {param_range} leaves no b with |b| >= 0.001")
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < n:
        a = rng.uniform(-param_range, param_range)
        b = rng.uniform(-param_range, param_range)
        if abs(b) < 1e-3:
            continue
        out.append(make(a, b))
    return out


def _rows_or_error(sample, *args):
    """Each row's entries as hex, or the type and text of the first error."""
    try:
        return [tuple(map(float.hex, row)) for row in sample(*args)]
    except (ValueError, OverflowError, InvGeoError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", [0, 1, 7, 12, 2**64 + 5])
@pytest.mark.parametrize("param_range", [10.0, 3.0, 0.0011, 1e150, 1e200,
                                         1e-4, -1.0, 1e308, math.nan])
@pytest.mark.parametrize("square, make", [(1.0, make_general_root), (-1.0, make_skew_root)])
def test_row_kernel_reproduces_the_scalar_draw_loop(seed, param_range, square, make):
    def reference(*args):
        return [m.entries() for m in _scalar_draw_sample(make, *args)]
    for n in (0, 1, 2, 97):
        got = _rows_or_error(roots._sample, square, n, seed, param_range)
        assert got == _rows_or_error(reference, n, seed, param_range)
    if param_range == 1e200:
        assert got[0] is NonFiniteEntry and got[1].startswith("c must be finite, got ")


_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(entries=st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT),
       target=st.sampled_from([1.0, -1.0])
       | st.tuples(_ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT, _ANY_FLOAT))
@example(entries=(5e153, 1e160, -1e160, -5e153), target=1.0)
@example(entries=(0.0, -0.0, -0.0, 0.0), target=-1.0)
def test_square_residual_matches_the_product_matrix(entries, target):
    """target is the sign of +-I2 or the entries of a general S."""
    m = Mat2(*entries)
    s = target * I2 if isinstance(target, float) else Mat2(*target)
    try:
        expected = repr((m @ m).max_diff(s))
    except NonFiniteEntry as exc:
        expected = str(exc)
    try:
        got = repr(_square_residual(*m.entries(), *s.entries()))
    except NonFiniteEntry as exc:
        got = str(exc)
    assert got == expected

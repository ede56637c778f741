import math

import numpy as np
import pytest
from hypothesis import given, settings
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
from invgeo import _pcg64
from invgeo.errors import DegenerateParameter, InvalidCount, NotAnInvolution, WrongConstructor

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
@pytest.mark.parametrize("param_range", [0.0, -0.0, 1e-4, 1e-3])
def test_sampler_refuses_a_range_without_admissible_b(sampler, param_range):
    with pytest.raises(DegenerateParameter):
        sampler(2, seed=0, param_range=param_range)


def test_sampler_range_just_above_the_b_cutoff_still_draws():
    for m in sample_involutions(2, seed=0, param_range=0.0011):
        assert abs(m.b) >= 1e-3
        assert (m @ m).max_diff(I2) <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**160),
    bounds=st.lists(
        st.tuples(st.floats(-1e300, 1e300), st.floats(0, 1e300)), min_size=1, max_size=8
    ),
)
def test_pcg64_uniform_matches_numpy_bit_for_bit(seed, bounds):
    ours, theirs = _pcg64.Generator(seed), np.random.default_rng(seed)
    for low, width in bounds:
        high = low + width
        if not math.isfinite(high):
            continue
        x, y = ours.uniform(low, high), theirs.uniform(low, high)
        assert type(x) is type(y) is float
        assert x.hex() == y.hex()


@pytest.mark.parametrize("seed, low, high", [(-1, 0.0, 1.0), (0, -1e308, 1e308),
                                             (0, 0.0, math.nan), (0, 1.0, -1.0)])
def test_pcg64_rejects_what_numpy_rejects(seed, low, high):
    with pytest.raises((ValueError, OverflowError)) as theirs:
        np.random.default_rng(seed).uniform(low, high)
    with pytest.raises(theirs.type, match=str(theirs.value)):
        _pcg64.Generator(seed).uniform(low, high)

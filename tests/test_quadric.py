import math
import re

import numpy as np
import oracle
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from invgeo import (
    BELL_BASIS,
    DEFAULT_TOL,
    BellPoint,
    GeneratorPair,
    LocusParams,
    Mat2,
    SurfaceTag,
    classify_quadric,
    from_bell,
    generator_directions,
    generator_point,
    householder_from_angle,
    in_locus,
    make_general_root,
    make_skew_root,
    on_asymptotic_cone,
    principal_axis_point,
    quadric_residual,
    sample_surface,
    surface_rows,
    to_bell,
)
from invgeo.errors import (
    AlphaMismatch,
    DegenerateSeed,
    InvalidCount,
    NonFiniteEntry,
    NotAnInvolution,
    NotInHyperplane,
)
from invgeo.quadric import _linspace, ruling_rows

I2 = Mat2.identity()
SQRT2 = math.sqrt(2.0)


def test_in_locus_examples():
    assert in_locus(Mat2(0, 1, 1, 0), LocusParams(0, -1))
    assert not in_locus(I2, LocusParams(2, 1))  # scalar matrices are excluded
    assert in_locus(Mat2(1, 0, 0, 0), LocusParams(1, 0))  # idempotent
    assert not in_locus(Mat2(0, 1, 1, 0), LocusParams(0, 1))


def test_classify_quadric_examples():
    one_sheet = classify_quadric(LocusParams(0, -1))
    assert one_sheet.tag is SurfaceTag.ONE_SHEET_HYPERBOLOID
    assert one_sheet.radius_sq == 2.0
    assert classify_quadric(LocusParams(1, 0)).tag is SurfaceTag.ONE_SHEET_HYPERBOLOID
    assert classify_quadric(LocusParams(0, 0)).tag is SurfaceTag.RIGHT_CIRCULAR_CONE
    assert classify_quadric(LocusParams(0, 1)).tag is SurfaceTag.TWO_SHEET_HYPERBOLOID


def test_classify_quadric_sign_rule_grid():
    for alpha in np.linspace(-5, 5, 21):
        for beta in np.linspace(-5, 5, 21):
            disc = alpha * alpha - 4 * beta
            tag = classify_quadric(LocusParams(alpha, beta)).tag
            if disc > 1e-12:
                assert tag is SurfaceTag.ONE_SHEET_HYPERBOLOID
            elif disc < -1e-12:
                assert tag is SurfaceTag.TWO_SHEET_HYPERBOLOID
            else:
                assert tag is SurfaceTag.RIGHT_CIRCULAR_CONE


def test_bell_frame_orthonormal():
    basis = np.array(BELL_BASIS)
    gram = basis @ basis.T
    assert np.abs(gram - np.eye(3)).max() <= 1e-15


def test_to_bell_special_points():
    p = to_bell(Mat2(1, 0, 0, -1), 0.0)
    assert (p.x, p.y, p.z) == (SQRT2, 0.0, 0.0)
    q = to_bell(Mat2(-1, 0, 0, 1), 0.0)
    assert (q.x, q.y, q.z) == (-SQRT2, 0.0, 0.0)
    origin = to_bell(Mat2.zero(), 0.0)
    assert (origin.x, origin.y, origin.z) == (0.0, 0.0, 0.0)


def test_to_bell_requires_hyperplane_membership():
    with pytest.raises(NotInHyperplane):
        to_bell(I2, 0.0)


def test_from_bell_examples():
    assert from_bell(BellPoint(0, 0, 0, 0)) == Mat2.zero()
    assert from_bell(BellPoint(SQRT2, 0, 0, 0)).max_diff(Mat2(1, 0, 0, -1)) <= 1e-15
    assert from_bell(BellPoint(0, SQRT2, 0, 0)).max_diff(Mat2(0, 1, 1, 0)) <= 1e-15


def test_bell_round_trip_random():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        alpha = rng.uniform(-4, 4)
        m = Mat2.from_array(rng.uniform(-5, 5, (2, 2)))
        m = Mat2(m.a, m.b, m.c, alpha - m.a)  # force trace alpha
        back = from_bell(to_bell(m, alpha))
        assert back.max_diff(m) <= 1e-12


@pytest.mark.parametrize("entries", [(0.0, 1e308, 1e308, 0.0), (1e307, -1.2e308, -1e308, -1e307),
                                     (0.0, 1.7976931348623157e308, 0.0, 0.0)])
def test_bell_coordinates_where_a_sum_leaves_the_float_range(entries):
    # b + c (or, back, y - z) overflows where its quotient by sqrt2 fits; the
    # result is the one at half the scale, doubled, bit for bit
    m = Mat2(*entries)
    half = Mat2(*(0.5 * v for v in entries))
    p, q = to_bell(m, m.a + m.d), to_bell(half, half.a + half.d)
    assert (p.x, p.y, p.z) == (2 * q.x, 2 * q.y, 2 * q.z)
    back, back_half = from_bell(p), from_bell(q)
    assert back.entries() == tuple(2 * v for v in back_half.entries())
    assert back.max_diff(m) <= 4 * 2.0 ** -52 * m.max_norm()


def test_quadric_residual_examples():
    swap = to_bell(Mat2(0, 1, 1, 0), 0.0)
    assert abs(quadric_residual(swap, LocusParams(0, -1))) <= 1e-15
    assert abs(quadric_residual(BellPoint(SQRT2, 0, 0, 0), LocusParams(0, -1))) <= 1e-15
    assert quadric_residual(BellPoint(0, 0, 0, 0), LocusParams(0, 0)) == 0.0
    with pytest.raises(AlphaMismatch):
        quadric_residual(BellPoint(0, 0, 0, alpha=1.0), LocusParams(0, -1))


def test_residual_of_root_families():
    # |b| bounded below so the Bell coordinates stay O(100): the residual is
    # a difference of squares and its float error scales with ||p||^2 * eps
    rng = np.random.default_rng(12)
    for _ in range(300):
        a = rng.uniform(-10, 10)
        b = rng.uniform(0.5, 10) * rng.choice([-1, 1])
        inv = make_general_root(a, b)
        assert abs(quadric_residual(to_bell(inv, 0.0), LocusParams(0, -1))) <= 1e-9
        skew = make_skew_root(a, b)
        assert abs(quadric_residual(to_bell(skew, 0.0), LocusParams(0, 1))) <= 1e-9


def test_principal_section_points():
    assert householder_from_angle(0.0) == Mat2(1, 0, 0, -1)
    assert householder_from_angle(math.pi / 2).max_diff(Mat2(0, 1, 1, 0)) <= 1e-15
    third = householder_from_angle(math.pi / 3)
    assert third.max_diff(Mat2(0.5, math.sqrt(3) / 2, math.sqrt(3) / 2, -0.5)) <= 1e-15
    for phi in np.linspace(0, 2 * math.pi, 17):
        bell = to_bell(householder_from_angle(phi), 0.0)
        assert abs(bell.z) <= 1e-15
        assert abs(quadric_residual(bell, LocusParams(0, -1))) <= 1e-12


def test_principal_axis_points():
    assert principal_axis_point(0.0) == Mat2.zero()
    j = principal_axis_point(1.0)
    assert j == Mat2(0, 1, -1, 0)
    assert (j @ j).max_diff(-I2) <= 1e-15
    bell = to_bell(principal_axis_point(2.0), 0.0)
    assert (bell.x, bell.y) == (0.0, 0.0)
    assert abs(bell.z + 2 * SQRT2) <= 1e-15


def test_asymptotic_cone_membership():
    assert on_asymptotic_cone(Mat2(0, 1, 0, 0))
    assert not on_asymptotic_cone(Mat2(0, 1, 1, 0))  # det = -1
    assert not on_asymptotic_cone(I2)
    # solving x1^2 + x2*x3 = 0 by hand: trace-free with det 0
    assert on_asymptotic_cone(Mat2(2, 1, -4, -2))
    assert on_asymptotic_cone(Mat2(3, -9, 1, -3))


def test_asymptotic_cone_is_nilpotent_cone():
    rng = np.random.default_rng(13)
    for _ in range(200):
        x1 = rng.uniform(-3, 3)
        x2 = rng.uniform(0.1, 3) * rng.choice([-1, 1])
        nilpotent = Mat2(x1, x2, -x1 * x1 / x2, -x1)
        assert abs(nilpotent.det()) <= 1e-9
        assert on_asymptotic_cone(nilpotent)
        # same trace but unit determinant: off the cone
        assert not on_asymptotic_cone(make_skew_root(x1, x2))


def _check_generator_identities(a, pair, bound=1e-9):
    u, v = pair.u, pair.v
    assert (a @ u).max_diff(u) <= bound
    assert ((u @ a) + u).max_norm() <= bound
    assert (u @ u).max_norm() <= bound
    assert ((a @ v) + v).max_norm() <= bound
    assert (v @ a).max_diff(v) <= bound
    assert (v @ v).max_norm() <= bound


def test_generator_directions_on_principal_section():
    x_seed = Mat2(1, 0, 0, 0)
    for phi in [0.4, 1.2, 2.8, 4.0, 5.9]:
        a = householder_from_angle(phi)
        pair = generator_directions(a, x_seed)
        _check_generator_identities(a, pair)


def _matches_up_to_scale(m, reference, bound=1e-9):
    scale = None
    for got, want in zip(m.entries(), reference.entries()):
        if abs(want) > 1e-9:
            scale = got / want
            break
    assert scale is not None
    return m.max_diff(scale * reference) <= bound * max(1.0, abs(scale))


def test_generator_closed_forms_on_principal_section():
    # the two rulings through H(phi) with seed [[1,0],[0,0]] have the closed
    # forms [-sin, cos-1; cos+1, sin] and [-sin, cos+1; cos-1, sin] up to
    # scale; the first satisfies the V identities and the second the U ones
    x_seed = Mat2(1, 0, 0, 0)
    for phi in [0.4, 1.2, 2.8, 4.0, 5.9]:
        s, c = math.sin(phi), math.cos(phi)
        form_v = Mat2(-s, c - 1, c + 1, s)
        form_u = Mat2(-s, c + 1, c - 1, s)
        a = householder_from_angle(phi)
        pair = generator_directions(a, x_seed)
        assert _matches_up_to_scale(pair.u, form_u)
        assert _matches_up_to_scale(pair.v, form_v)
        # direct check that form_v is the AV = -V family, not the U one
        assert ((a @ form_v) + form_v).max_norm() <= 1e-12
        assert (form_v @ a).max_diff(form_v) <= 1e-12


def test_generator_closed_form_decomposes_into_householder_plus_skew():
    # [-sin, cos-1; cos+1, sin] = H(phi + pi/2) + [[0,-1],[1,0]]
    for phi in [0.3, 1.1, 2.2]:
        s, c = math.sin(phi), math.cos(phi)
        form_v = Mat2(-s, c - 1, c + 1, s)
        householder = Mat2(-s, c, c, s)
        assert form_v.max_diff(householder + Mat2(0, -1, 1, 0)) <= 1e-15
        assert (householder @ householder).max_diff(I2) <= 1e-15


def test_generator_degenerate_seed_and_retry():
    a = Mat2(1, 0, 0, -1)
    with pytest.raises(DegenerateSeed):
        generator_directions(a, Mat2(1, 0, 0, 0))  # kills both products
    with pytest.raises(DegenerateSeed):
        generator_directions(a, Mat2(0, 1, 0, 0))  # kills the V side only
    pair = generator_directions(a, Mat2(0, 1, 1, 0))
    _check_generator_identities(a, pair)


#: b -> 0 involutions for which the seed [[1, 0], [0, 0]] leaves one ruling
#: product at about 1e-9 of |A+I| |X| |A-I|: the direction normalised from it
#: is rounding noise and breaks AU = U.
NEAR_DEGENERATE_SEED = [
    Mat2(0.9999999986926782, 4.206964658592593e-09, 0.6215035512649122, -0.9999999986926782),
    Mat2(0.9999999995404276, -7.022120599863191e-10, -1.308927472560538, -0.9999999995404276),
    Mat2(-1.0000000037577772, 7.756364101386304e-09, -0.9689533044105292, 1.0000000037577772),
    Mat2(-1.00000000181626, 9.476083567024809e-09, -0.38333561896599455, 1.00000000181626),
]


@pytest.mark.parametrize("a", NEAR_DEGENERATE_SEED, ids=repr)
def test_generator_seed_that_nearly_annihilates_a_product_is_degenerate(a):
    x_seed = Mat2(1.0, 0.0, 0.0, 0.0)
    with pytest.raises(DegenerateSeed):
        generator_directions(a, x_seed)
    # another seed gives a pair that satisfies the ruling identities
    _check_generator_identities(a, generator_directions(a, Mat2(0.0, 1.0, 1.0, 0.0)))


@pytest.mark.parametrize("a", [householder_from_angle(0.7), make_general_root(0.3, 2.0),
                               make_general_root(-2.0, -0.5), Mat2(1, 0, 0, -1)], ids=repr)
def test_generator_directions_of_generic_involutions_are_returned(a):
    pair = generator_directions(a, Mat2(0.3, 0.8, -0.6, 0.1))
    _check_generator_identities(a, pair)


def test_generator_directions_reject_off_surface_points():
    with pytest.raises(NotAnInvolution):
        generator_directions(I2, Mat2(1, 0, 0, 0))
    with pytest.raises(NotAnInvolution):
        generator_directions(Mat2(0, 1, 0, 0), Mat2(1, 0, 0, 0))


def test_generator_directions_random_points_and_seeds():
    rng = np.random.default_rng(14)
    done = 0
    while done < 100:
        a = make_general_root(rng.uniform(-3, 3), rng.uniform(0.2, 3) * rng.choice([-1, 1]))
        seed = Mat2.from_array(rng.uniform(-1, 1, (2, 2)))
        try:
            pair = generator_directions(a, seed)
        except DegenerateSeed:
            continue
        _check_generator_identities(a, pair)
        assert max(pair.u.max_norm(), pair.v.max_norm()) == pytest.approx(1.0)
        for t in (-2.0, -0.5, 1.0, 3.0):
            on_u = generator_point(a, pair.u, t)
            on_v = generator_point(a, pair.v, t)
            assert (on_u @ on_u).max_diff(I2) <= 1e-8
            assert (on_v @ on_v).max_diff(I2) <= 1e-8
        done += 1


def test_generator_point_at_zero_is_the_point():
    a = householder_from_angle(1.0)
    pair = generator_directions(a, Mat2(1, 0, 0, 0))
    assert generator_point(a, pair.u, 0.0) == a


def test_rulings_meet_only_at_the_point():
    # t1*U = t2*V forces t1 = t2 = 0 since AU = U while AV = -V
    a = householder_from_angle(0.8)
    pair = generator_directions(a, Mat2(1, 0, 0, 0))
    u, v = pair.u.to_array(), pair.v.to_array()
    stacked = np.stack([u.ravel(), v.ravel()], axis=1)
    _, sing, _ = np.linalg.svd(stacked)
    assert sing[1] > 0.1  # directions are genuinely independent


# -- ruling_rows against generator_point and to_bell ------------------------------

_MAGNITUDE = st.floats(-6.0, 150.0).map(lambda e: 10.0**e)
_UNIT_SEED = Mat2(1.0, 0.0, 0.0, 0.0)


@st.composite
def _rulings(draw):
    """(point, pair): a Householder reflection or a general root with entries
    of order 1e-6 to 1e150, and its rulings from the CLI's default seed."""
    if draw(st.booleans()):
        point = householder_from_angle(draw(st.floats(-10.0, 10.0)))
    else:
        scale = draw(_MAGNITUDE)
        a = scale * draw(st.floats(-1.0, 1.0))
        b = scale * draw(st.floats(0.1, 1.0)) * draw(st.sampled_from([-1.0, 1.0]))
        point = make_general_root(a, b)
    try:
        return point, generator_directions(point, _UNIT_SEED)
    except (DegenerateSeed, NotAnInvolution):
        assume(False)


def _object_rows(point, pair, ts):
    """The rows generators --format csv wrote from validated objects."""
    rows = []
    for direction in (pair.u, pair.v):
        for t in ts:
            m = generator_point(point, direction, t)
            bell = to_bell(m, 0.0, DEFAULT_TOL)
            rows.append((bell.x, bell.y, bell.z, m.a, m.b, m.c, m.d, "generator"))
    return rows


_BIG_B = make_general_root(0.5, 1e308)  # [[0.5, 1e308], [7.5e-309, -0.5]]
_E12, _E21 = Mat2(0.0, 1.0, 0.0, 0.0), Mat2(0.0, 0.0, 1.0, 0.0)


@settings(max_examples=400, deadline=None)
@given(ruling=_rulings(), t_max=st.floats(allow_nan=False), n=st.integers(1, 12))
@example(ruling=(householder_from_angle(0.5), GeneratorPair(Mat2(0.0, 4.0, 0.0, 0.0), _E21)),
         t_max=1e308, n=2)  # t*U overflows
@example(ruling=(_BIG_B, GeneratorPair(_E12, _E21)), t_max=1e308, n=2)  # point + t*U overflows
@example(ruling=(_BIG_B, GeneratorPair(_E21, _E21)), t_max=1e308, n=3)  # b + c overflows
@example(ruling=(householder_from_angle(0.5), GeneratorPair(Mat2(1.0, 0.0, 0.0, 0.0), _E21)),
         t_max=1e3, n=2)  # the trace test fails
def test_ruling_rows_match_the_validated_objects_bit_for_bit(ruling, t_max, n):
    # the rows, or the first error, of generator_point and to_bell, at the
    # t values of generators --format csv
    point, pair = ruling
    ts = [t_max * (2.0 * i / (n - 1) - 1.0) if n > 1 else 0.0 for i in range(n)]
    try:
        want = _object_rows(point, pair, ts)
    except Exception as exc:
        with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$") as got:
            ruling_rows(point, pair, ts, DEFAULT_TOL)
        assert got.type is type(exc)
        return
    rows = ruling_rows(point, pair, ts, DEFAULT_TOL)
    assert [tuple(v.hex() for v in row[:7]) for row in rows] == [
        tuple(v.hex() for v in row[:7]) for row in want]
    assert [row[7] for row in rows] == ["generator"] * (2 * n)


def test_sample_surface_one_sheet():
    points = sample_surface(LocusParams(0, -1), 4, 2)
    assert len(points) == 8
    for p in points:
        assert p.tag == "surface"
        assert (p.matrix @ p.matrix).max_diff(I2) <= 1e-9
        assert in_locus(p.matrix, LocusParams(0, -1))


def test_sample_surface_cone_has_tagged_vertex():
    points = sample_surface(LocusParams(0, 0), 3, 3)
    vertices = [p for p in points if p.tag == "vertex"]
    assert len(vertices) == 1
    assert vertices[0].matrix == Mat2.zero()
    for p in points:
        if p.tag == "surface":
            assert in_locus(p.matrix, LocusParams(0, 0))


def test_sample_surface_two_sheet_residuals():
    points = sample_surface(LocusParams(0, 1), 5, 4)
    assert len(points) == 20
    for p in points:
        assert abs(quadric_residual(p.bell, LocusParams(0, 1))) <= 1e-9
        assert in_locus(p.matrix, LocusParams(0, 1))
    # both sheets are covered
    signs = {p.bell.z > 0 for p in points}
    assert signs == {True, False}


def test_sample_surface_nonzero_alpha():
    points = sample_surface(LocusParams(3, 1), 4, 3)
    for p in points:
        assert in_locus(p.matrix, LocusParams(3, 1))


def test_sample_surface_rejects_bad_grid():
    with pytest.raises(InvalidCount):
        sample_surface(LocusParams(0, -1), 0, 4)


bounds = st.floats(min_value=-1e300, max_value=1e300)


@given(lo=bounds, hi=bounds, n=st.integers(0, 40))
@example(lo=0.0, hi=1.0, n=0)
@example(lo=-0.0, hi=1.0, n=1)
@example(lo=-2.0, hi=2.0, n=2)
@example(lo=1.5, hi=1.5, n=5)
@example(lo=2.0, hi=-2.0, n=7)
@example(lo=0.0, hi=1.5e-323, n=8)  # step underflows to 0
@settings(max_examples=500, deadline=None)
def test_linspace_matches_numpy_bit_for_bit(lo, hi, n):
    ours = [x.hex() for x in _linspace(lo, hi, n)]
    assert ours == [x.hex() for x in np.linspace(lo, hi, n).tolist()]


# -- scale-relative cone decision ----------------------------------------------

#: (trace, det) of 1e-6-scale matrices whose disc alpha^2 - 4 beta is below
#: 1e-12 in size but far from 0 relative to alpha^2 + 4|beta|.
SMALL_SCALE_LOCI = [
    # complex spectrum (-1.48e-6, 3.27e-7, -3.32e-7, -1.45e-6): disc -4.3e-13
    ((-1.4802267905375369e-06, 3.267452907359554e-07, -3.315261264117186e-07,
      -1.4456062624056467e-06), SurfaceTag.TWO_SHEET_HYPERBOLOID),
    # distinct positive spectra: disc 8.4e-13 and 5.6e-13
    ((3.532223917066578e-07, 9.921154823576307e-08, -1.467485392021113e-07,
      1.3037801772411457e-06), SurfaceTag.ONE_SHEET_HYPERBOLOID),
    ((2.903149593634068e-06, 3.7825882960861595e-08, 3.399887426390825e-07,
      3.6153762374160387e-06), SurfaceTag.ONE_SHEET_HYPERBOLOID),
]


@pytest.mark.parametrize("entries, tag", SMALL_SCALE_LOCI)
def test_small_scale_loci_are_not_cones(entries, tag):
    m = Mat2(*entries)
    assert abs(m.trace() ** 2 - 4 * m.det()) < 1e-12
    assert classify_quadric(LocusParams(m.trace(), m.det())).tag is tag


@pytest.mark.parametrize("s", [1e-150, 1e-6, 1.0, 1e8, 1e150])
def test_cone_decision_is_scale_invariant(s):
    # S(2s, s^2) is a cone, and moving beta by 1e-9 of itself leaves it
    assert classify_quadric(LocusParams(2 * s, s * s)).tag is SurfaceTag.RIGHT_CIRCULAR_CONE
    assert (classify_quadric(LocusParams(2 * s, s * s * (1 + 1e-9))).tag
            is SurfaceTag.TWO_SHEET_HYPERBOLOID)
    assert (classify_quadric(LocusParams(2 * s, s * s * (1 - 1e-9))).tag
            is SurfaceTag.ONE_SHEET_HYPERBOLOID)


def test_cone_decision_where_the_squares_overflow_or_underflow():
    assert classify_quadric(LocusParams(2.0**512, 2.0**1022)).tag is SurfaceTag.RIGHT_CIRCULAR_CONE
    assert classify_quadric(LocusParams(1e200, 0.0)).tag is SurfaceTag.ONE_SHEET_HYPERBOLOID
    assert classify_quadric(LocusParams(0.0, 1e308)).tag is SurfaceTag.TWO_SHEET_HYPERBOLOID
    assert classify_quadric(LocusParams(0.0, -1e308)).tag is SurfaceTag.ONE_SHEET_HYPERBOLOID
    assert classify_quadric(LocusParams(1e-170, 0.0)).tag is SurfaceTag.ONE_SHEET_HYPERBOLOID
    assert classify_quadric(LocusParams(0.0, 1e-300)).tag is SurfaceTag.TWO_SHEET_HYPERBOLOID
    assert classify_quadric(LocusParams(0.0, 0.0)).tag is SurfaceTag.RIGHT_CIRCULAR_CONE


# -- BellPoint construction ------------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("slot", ["x", "y", "z", "alpha"])
def test_bell_point_non_finite_entry_is_named(bad, slot):
    coords = {"x": 1.0, "y": 2.0, "z": 3.0, "alpha": 4.0, slot: bad}
    with pytest.raises(NonFiniteEntry, match=f"^{slot} must be finite"):
        BellPoint(**coords)


def test_bell_point_converts_non_float_entries():
    class Half(float):
        pass

    for p in (BellPoint(1, True, "2.5", 3), BellPoint(Half(1.0), 1.0, 2.5, np.float64(3.0))):
        assert (p.x, p.y, p.z, p.alpha) == (1.0, 1.0, 2.5, 3.0)
        assert all(type(v) is float for v in (p.x, p.y, p.z, p.alpha))
    assert BellPoint(1, 2, 3).alpha == 0.0


# -- sample_surface against the per-point formulas -------------------------------


def _per_point_grid(params, n_u, n_v, span):
    """sample_surface's grid, written point by point from the closed forms.

    The radius is formed from alpha * 2**-e and beta * 4**-e, which is exact
    and, where 0.5 alpha^2 - 2 beta neither underflows nor overflows, the
    same number as the unscaled formula.
    """
    e = math.frexp(max(abs(params.alpha), math.sqrt(abs(params.beta))))[1]
    alpha, beta = math.ldexp(params.alpha, -e), math.ldexp(params.beta, -2 * e)
    radius_sq = 0.5 * alpha * alpha - 2.0 * beta
    tag = classify_quadric(params).tag
    azimuths = [2.0 * math.pi * j / n_u for j in range(n_u)]
    out = []
    if tag is SurfaceTag.ONE_SHEET_HYPERBOLOID:
        r = math.ldexp(math.sqrt(radius_sq), e)
        for v in np.linspace(-span, span, n_v).tolist():
            for u in azimuths:
                out.append((r * math.cosh(v) * math.cos(u), r * math.cosh(v) * math.sin(u),
                            r * math.sinh(v)))
    elif tag is SurfaceTag.TWO_SHEET_HYPERBOLOID:
        m = math.ldexp(math.sqrt(-radius_sq), e)
        n_top = (n_v + 1) // 2
        rows = [(1.0, v) for v in np.linspace(0.0, span, n_top).tolist()]
        rows += [(-1.0, v) for v in np.linspace(0.0, span, n_v - n_top).tolist()]
        for sheet, v in rows:
            for u in azimuths:
                out.append((m * math.sinh(v) * math.cos(u), m * math.sinh(v) * math.sin(u),
                            sheet * m * math.cosh(v)))
    else:
        for rho in np.linspace(-span, span, n_v).tolist():
            dropped = oracle.apex_cut(rho, span).decided()
            assume(dropped is not None)  # either is right inside the band
            if not dropped:
                out.extend((rho * math.cos(u), rho * math.sin(u), rho) for u in azimuths)
        out.append((0.0, 0.0, 0.0))
    return out


@settings(max_examples=300, deadline=None)
@given(alpha=st.floats(-5, 5), beta=st.floats(-5, 5), kind=st.sampled_from(["as is", "cone"]),
       n_u=st.integers(1, 9), n_v=st.integers(1, 9), span=st.floats(0.0, 3.0))
def test_sample_surface_matches_per_point_formulas_bit_for_bit(alpha, beta, kind, n_u, n_v, span):
    if kind == "cone":
        beta = alpha * alpha / 4.0
    params = LocusParams(alpha, beta)
    points = sample_surface(params, n_u, n_v, span=span)
    want = _per_point_grid(params, n_u, n_v, span)
    assert [(p.bell.x.hex(), p.bell.y.hex(), p.bell.z.hex()) for p in points] == [
        (x.hex(), y.hex(), z.hex()) for x, y, z in want]
    for p, (x, y, z) in zip(points, want):
        assert p.bell.alpha == alpha
        assert p.matrix == from_bell(BellPoint(x, y, z, alpha))


_HUGE = st.floats(1e305, 1.7976931348623157e308)


@settings(max_examples=300, deadline=None)
@given(alpha=_HUGE | _HUGE.map(lambda x: -x),
       beta=st.floats(-1.7976931348623157e308, 1.7976931348623157e308),
       n_u=st.integers(1, 6), n_v=st.integers(1, 6), span=st.floats(0.0, 1.0))
@example(alpha=1e308, beta=0.0, n_u=4, n_v=3, span=0.1)  # every value finite
@example(alpha=1e308, beta=0.0, n_u=4, n_v=3, span=2.0)  # x overflows
def test_surface_rows_near_the_top_of_the_float_range(alpha, beta, n_u, n_v, span):
    # rings past _RING_BOUND are built point by point: the same rows, or the
    # same first error, as validated objects built one point at a time
    params = LocusParams(alpha, beta)
    try:
        want = []
        for x, y, z in _per_point_grid(params, n_u, n_v, span):
            m = from_bell(BellPoint(x, y, z, alpha))
            want.append(tuple(v.hex() for v in (x, y, z, m.a, m.b, m.c, m.d)))
    except NonFiniteEntry as exc:
        with pytest.raises(NonFiniteEntry, match=f"^{re.escape(str(exc))}$"):
            surface_rows(params, n_u, n_v, span)
        return
    rows = surface_rows(params, n_u, n_v, span)
    assert [tuple(v.hex() for v in row[:7]) for row in rows] == want
    assert {row[7] for row in rows} == {"surface"}


@pytest.mark.parametrize("alpha, beta", [
    (1e-170, 0.0),       # 0.5 alpha^2 underflows to 0
    (1e200, 0.0),        # ... and overflows
    (-3e-160, -1e-320),  # one sheet, beta subnormal
    (2e154, 1.5e308),    # two sheets, alpha^2 overflows
    (1e-170, 1e-320),    # two sheets near the bottom of the range
])
def test_sample_surface_at_extreme_scales_lands_on_the_locus(alpha, beta):
    tag = classify_quadric(LocusParams(alpha, beta)).tag
    assert tag in (SurfaceTag.ONE_SHEET_HYPERBOLOID, SurfaceTag.TWO_SHEET_HYPERBOLOID)
    points = sample_surface(LocusParams(alpha, beta), 6, 5)
    assert len(points) == 30
    # r^2 = |alpha^2/2 - 2 beta|, and every check runs on the matrices scaled
    # by 2**-k, which is exact, so nothing under- or overflows in the test
    k = math.frexp(max(abs(alpha), math.sqrt(abs(beta))))[1]
    a_s, b_s = math.ldexp(alpha, -k), math.ldexp(beta, -2 * k)
    r_sq = abs(0.5 * a_s * a_s - 2.0 * b_s)
    eps = 2.0 ** -52
    for p in points:
        assert p.tag == "surface"
        m = Mat2(*(math.ldexp(x, -k) for x in p.matrix.entries()))
        size = max(m.max_norm(), abs(a_s))
        assert m.scalar_distance() >= 0.1 * math.sqrt(r_sq)
        assert abs(m.trace() - a_s) <= 4 * eps * size
        assert abs(m.det() - b_s) <= 64 * eps * size * size
        assert p.matrix == from_bell(p.bell)

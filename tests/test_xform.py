import math

import numpy as np
import pytest

from invgeo import (
    Mat2,
    RootFamily,
    RootTag,
    TransformKind,
    Vec2,
    decompose,
    decompose_case,
    decompose_general,
    make_case_root,
    make_general_root,
    make_skew_root,
    orbit,
    sample_involutions,
    sample_skew_involutions,
)
from invgeo.errors import DegenerateAngle, InvalidCount, NotAnInvolution, WrongDecomposer
from invgeo.xform import magnify, reflect_x, reflect_y, rotate_clockwise, shear_x, shear_y

I2 = Mat2.identity()


def test_apply_examples():
    assert (-I2).apply(Vec2(3, 2)) == Vec2(-3, -2)
    b = 1.75
    moved = Mat2(1, b, 0, 1).apply(Vec2(2, 3))
    assert moved == Vec2(2 + b * 3, 3)
    assert I2.apply(Vec2(0.5, -0.25)) == Vec2(0.5, -0.25)


def test_elementary_maps_match_their_definitions():
    rng = np.random.default_rng(41)
    for _ in range(100):
        x, y = rng.uniform(-5, 5, 2)
        b, c, phi, rho = rng.uniform(-3, 3, 4)
        p = Vec2(x, y)
        assert reflect_x().matrix.apply(p) == Vec2(x, -y)
        assert reflect_y().matrix.apply(p) == Vec2(-x, y)
        sheared = shear_x(b).matrix.apply(p)
        assert abs(sheared.x - (x + b * y)) <= 1e-12 and sheared.y == y
        sheared = shear_y(c).matrix.apply(p)
        assert sheared.x == x and abs(sheared.y - (c * x + y)) <= 1e-12
        rotated = rotate_clockwise(phi).matrix.apply(p)
        assert abs(rotated.x - (x * math.cos(phi) + y * math.sin(phi))) <= 1e-12
        assert abs(rotated.y - (-x * math.sin(phi) + y * math.cos(phi))) <= 1e-12
        scaled = magnify(rho).matrix.apply(p)
        assert abs(scaled.x - rho * x) <= 1e-12 and abs(scaled.y - rho * y) <= 1e-12


CASES = [
    RootFamily(RootTag.IDENTITY),
    RootFamily(RootTag.NEG_IDENTITY),
    RootFamily(RootTag.UPPER_B_PLUS_MINUS, b=2.5),
    RootFamily(RootTag.UPPER_B_MINUS_PLUS, b=-1.0),
    RootFamily(RootTag.LOWER_C_PLUS_MINUS, c=0.75),
    RootFamily(RootTag.LOWER_C_MINUS_PLUS, c=-2.0),
]


@pytest.mark.parametrize("family", CASES, ids=lambda f: f.tag.value)
def test_decompose_case_recomposes(family):
    decomposition = decompose_case(family)
    assert decomposition.additive_part is None
    assert decomposition.recompose().max_diff(make_case_root(family)) <= 1e-12
    p = Vec2(0.5, -2.0)
    moved, want = decomposition.apply(p), make_case_root(family).apply(p)
    assert max(abs(moved.x - want.x), abs(moved.y - want.y)) <= 1e-12


def test_decompose_case_factor_kinds():
    dec = decompose_case(RootFamily(RootTag.UPPER_B_PLUS_MINUS, b=4.0))
    assert [f.kind for f in dec.factors] == [TransformKind.REFLECT_X, TransformKind.SHEAR_X]
    dec = decompose_case(RootFamily(RootTag.LOWER_C_MINUS_PLUS, c=3.0))
    assert [f.kind for f in dec.factors] == [TransformKind.REFLECT_Y, TransformKind.SHEAR_Y]
    dec = decompose_case(RootFamily(RootTag.NEG_IDENTITY))
    assert [f.kind for f in dec.factors] == [TransformKind.POINT_REFLECT_ORIGIN]
    dec = decompose_case(RootFamily(RootTag.IDENTITY))
    assert len(dec.factors) == 1
    assert dec.factors[0].matrix == I2


def test_decompose_case_rejects_general():
    with pytest.raises(WrongDecomposer):
        decompose_case(RootFamily(RootTag.GENERAL, a=0.0, b=1.0))


def test_decompose_general_structure():
    dec = decompose_general(make_general_root(0.0, 2.0))
    kinds = [f.kind for f in dec.factors]
    assert kinds == [
        TransformKind.MAGNIFY,
        TransformKind.REFLECT_X,
        TransformKind.ROTATE_CLOCKWISE,
    ]
    assert dec.factors[0].param == pytest.approx(2.0)       # rho
    assert dec.factors[2].param == pytest.approx(math.pi / 2)  # phi
    assert dec.additive_part is not None
    assert dec.additive_part.param == pytest.approx(-1.5)   # (1 - rho^2)/(rho sin phi)


def test_decompose_general_pure_rotation_reflection():
    # rho = 1 roots are the symmetric ones: no additive shear needed
    phi = 1.1
    dec = decompose_general(make_general_root(math.cos(phi), math.sin(phi)))
    assert dec.factors[0].param == pytest.approx(1.0)
    assert abs(dec.additive_part.param) <= 1e-12


def test_decompose_general_swap_matrix():
    dec = decompose_general(Mat2(0, 1, 1, 0))
    assert dec.factors[0].param == pytest.approx(1.0)
    assert dec.factors[2].param == pytest.approx(math.pi / 2)
    assert abs(dec.additive_part.param) <= 1e-12


def test_decompose_general_errors():
    with pytest.raises(NotAnInvolution):
        decompose_general(Mat2(0, 1, 0, 0))
    with pytest.raises(DegenerateAngle):
        decompose_general(Mat2(1, 0, 3, -1))  # a lower triangular case


def test_decompose_general_recomposition_random():
    for m in sample_involutions(500, seed=42):
        dec = decompose_general(m)
        assert dec.recompose().max_diff(m) <= 1e-9


def test_decompose_dispatches_by_family():
    assert decompose(Mat2(1, 5, 0, -1)).additive_part is None
    assert decompose(make_general_root(0.4, 1.2)).additive_part is not None
    assert decompose(I2).recompose() == I2


def test_orbit_examples():
    swap = Mat2(0, 1, 1, 0)
    points = orbit(swap, Vec2(1, 0), 2)
    assert points == [Vec2(1, 0), Vec2(0, 1), Vec2(1, 0)]
    constant = orbit(I2, Vec2(2, 3), 5)
    assert all(p == Vec2(2, 3) for p in constant)
    quarter = orbit(make_skew_root(0, 1), Vec2(1, 0), 4)
    assert quarter[4] == Vec2(1, 0)
    assert quarter[2] == Vec2(-1, 0)
    assert quarter[1] != Vec2(1, 0) and quarter[3] != Vec2(1, 0)


def test_orbit_rejects_bad_steps():
    with pytest.raises(InvalidCount):
        orbit(I2, Vec2(0, 0), 0)


def test_orbit_periods_random():
    rng = np.random.default_rng(43)
    for m in sample_involutions(200, seed=5, param_range=3):
        p = Vec2(*rng.uniform(-2, 2, 2))
        points = orbit(m, p, 2)
        assert points[2].dist(points[0]) <= 1e-9 * max(1.0, points[0].norm())
    for m in sample_skew_involutions(200, seed=6, param_range=3):
        p = Vec2(*rng.uniform(-2, 2, 2))
        points = orbit(m, p, 4)
        assert points[2].dist(-points[0]) <= 1e-9 * max(1.0, points[0].norm())
        assert points[4].dist(points[0]) <= 1e-9 * max(1.0, points[0].norm())

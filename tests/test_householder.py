import math
from fractions import Fraction

import numpy as np
import pytest

from invgeo import (
    LocusParams,
    Mat2,
    UnitVec2,
    householder_angle,
    householder_from_angle,
    householder_from_unit,
    pythagorean_root,
    quadric_residual,
    reflection_axis,
    to_bell,
)
from invgeo.errors import NonFiniteEntry, NotPythagorean, NotUnitVector

I2 = Mat2.identity()
ANGLES = np.linspace(0, 2 * math.pi, 64, endpoint=False)


def test_from_unit_examples():
    assert householder_from_unit(UnitVec2(0, 1)) == Mat2(1, 0, 0, -1)
    assert householder_from_unit(UnitVec2(1 / math.sqrt(2), -1 / math.sqrt(2))).max_diff(
        Mat2(0, 1, 1, 0)
    ) <= 1e-15


def test_from_unit_matches_from_angle():
    for phi in ANGLES:
        via_vector = householder_from_unit(reflection_axis(phi))
        assert via_vector.max_diff(householder_from_angle(phi)) <= 1e-12


def test_from_angle_examples():
    assert householder_from_angle(0.0) == Mat2(1, 0, 0, -1)
    assert householder_from_angle(math.pi).max_diff(Mat2(-1, 0, 0, 1)) <= 1e-15
    assert householder_from_angle(math.pi / 2).max_diff(Mat2(0, 1, 1, 0)) <= 1e-15


def test_reflection_properties():
    from invgeo import Vec2

    for phi in ANGLES:
        h = householder_from_angle(phi)
        assert (h @ h).max_diff(I2) <= 1e-12
        assert h.b == h.c  # symmetric by construction
        assert abs(h.det() + 1.0) <= 1e-12
        eigs = sorted(np.linalg.eigvalsh(h.to_array()))
        assert abs(eigs[0] + 1) <= 1e-12 and abs(eigs[1] - 1) <= 1e-12
        # the axis vector is flipped, its orthogonal complement is fixed
        v = reflection_axis(phi)
        flipped = h.apply(Vec2(v.v1, v.v2))
        assert abs(flipped.x + v.v1) <= 1e-12 and abs(flipped.y + v.v2) <= 1e-12
        fixed = h.apply(Vec2(v.v2, -v.v1))
        assert abs(fixed.x - v.v2) <= 1e-12 and abs(fixed.y + v.v1) <= 1e-12


def test_reflection_factors_into_rotation():
    # H(phi) = [[1,0],[0,-1]] @ clockwise rotation by phi
    for phi in ANGLES:
        rotation = Mat2(math.cos(phi), math.sin(phi), -math.sin(phi), math.cos(phi))
        product = Mat2(1, 0, 0, -1) @ rotation
        assert product.max_diff(householder_from_angle(phi)) <= 1e-12


def test_reflections_fill_the_principal_section():
    for phi in ANGLES:
        bell = to_bell(householder_from_angle(phi), 0.0)
        assert abs(bell.z) <= 1e-15
        assert abs(quadric_residual(bell, LocusParams(0, -1))) <= 1e-12


@pytest.mark.parametrize("triple", [(3, 4, 5), (5, 12, 13), (8, 15, 17), (-3, 4, 5)])
def test_pythagorean_root(triple):
    r, s, t = triple
    m = pythagorean_root(r, s, t)
    assert m == Mat2(r / t, s / t, s / t, -r / t)
    # exact rational square, independently of the float path
    rr, ss, tt = Fraction(r), Fraction(s), Fraction(t)
    entries = (rr / tt, ss / tt, ss / tt, -rr / tt)
    a, b, c, d = entries
    assert (a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d) == (1, 0, 0, 1)


def test_pythagorean_root_rejects_non_triples():
    with pytest.raises(NotPythagorean):
        pythagorean_root(1, 1, 2)
    with pytest.raises(NotPythagorean):
        pythagorean_root(0, 0, 0)


def test_householder_angle_recovery():
    assert householder_angle(Mat2(0, 1, 1, 0)) == pytest.approx(math.pi / 2)
    assert householder_angle(I2) is None  # the identity is not a reflection
    assert householder_angle(-I2) is None
    assert householder_angle(Mat2(1, 2, 0, -1)) is None  # involution, not symmetric
    assert householder_angle(Mat2(0, 1, 0, 0)) is None  # not an involution
    for phi in ANGLES:
        recovered = householder_angle(householder_from_angle(phi))
        assert recovered is not None
        assert abs(recovered - phi) <= 1e-9 or abs(recovered - phi - 2 * math.pi) <= 1e-9


def test_unit_vector_normalization():
    v = UnitVec2(1 + 1e-8, 0)
    assert v.v1 == 1.0 and v.v2 == 0.0
    with pytest.raises(NotUnitVector):
        UnitVec2(1.1, 0)
    with pytest.raises(NotUnitVector):
        UnitVec2(0, 0)
    with pytest.raises(NonFiniteEntry, match="^v1 must be finite, got nan$"):
        reflection_axis(math.nan)

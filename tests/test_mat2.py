import math

import numpy as np
import pytest

from invgeo import Mat2, Tolerance, Vec2, approx_eq
from invgeo.errors import InvalidTolerance, NonFiniteEntry, NotInvertible
from invgeo.roots import make_general_root

I2 = Mat2.identity()


def test_mat_mul_identity():
    assert I2 @ I2 == I2


def test_nilpotent_squares_to_zero():
    n = Mat2(0, 1, 0, 0)
    assert n @ n == Mat2.zero()


def test_triangular_case_composition():
    # [[1,b],[0,1]] followed by the x-axis reflection gives [[1,b],[0,-1]]
    b = 3.5
    shear = Mat2(1, b, 0, 1)
    reflect = Mat2(1, 0, 0, -1)
    assert reflect @ shear == Mat2(1, b, 0, -1)


@pytest.mark.parametrize(
    "m, expected",
    [
        (I2, (2.0, 1.0)),
        (Mat2.scalar(4.0), (8.0, 16.0)),
        (Mat2(2, 1, 0, 3), (5.0, 6.0)),
    ],
)
def test_trace_det(m, expected):
    assert (m.trace(), m.det()) == expected


@pytest.mark.parametrize("a, b", [(0.25, 1.0), (3.0, 2.0), (-1.5, 0.5)])
def test_general_root_trace_det(a, b):
    m = make_general_root(a, b)
    tr, det = m.trace(), m.det()
    assert tr == 0.0
    assert abs(det + 1.0) < 1e-12


def test_approx_eq():
    assert approx_eq(I2, I2)
    assert not approx_eq(I2, -I2)
    r = make_general_root(0.3, 2.0)
    assert approx_eq(r @ r, I2)


def test_approx_eq_respects_tolerance():
    near = Mat2(1 + 5e-10, 0, 0, 1)
    assert approx_eq(near, I2)
    assert not approx_eq(near, I2, Tolerance(abs_tol=1e-10, exact_tol=1e-13))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constructors_reject_non_finite(bad):
    with pytest.raises(NonFiniteEntry):
        Mat2(bad, 0, 0, 1)
    with pytest.raises(NonFiniteEntry):
        Vec2(0, bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("slot", range(4))
def test_non_finite_float_entry_is_named(bad, slot):
    entries = [1.0, 2.0, 3.0, 4.0]
    entries[slot] = bad
    with pytest.raises(NonFiniteEntry, match=f"^{'abcd'[slot]} must be finite"):
        Mat2(*entries)


def test_max_diff_is_inf_where_a_difference_overflows():
    big, neg = Mat2(1e308, 0.0, 0.0, 1.0), Mat2(-1e308, 0.0, 0.0, 1.0)
    assert big.max_diff(neg) == math.inf
    assert neg.max_diff(big) == math.inf
    assert not approx_eq(big, neg)
    assert big.max_diff(big) == 0.0
    assert Mat2(1.0, 2.0, 3.0, 4.0).max_diff(Mat2(1.5, 0.0, 3.0, 4.25)) == 2.0


def test_values_are_frozen_slotted_and_picklable():
    import dataclasses
    import pickle

    from invgeo.quadric import BellPoint, SurfacePoint

    m = Mat2(1.0, 2.0, 3.0, 4.0)
    point = SurfacePoint(BellPoint(1.0, 2.0, 3.0), m)
    for value in (m, point, Vec2(1.0, 2.0), Tolerance()):
        assert not hasattr(value, "__dict__")
        assert pickle.loads(pickle.dumps(value)) == value
    with pytest.raises(dataclasses.FrozenInstanceError):
        m.a = 5.0


def test_constructor_converts_non_float_entries():
    class Half(float):
        pass

    for m in (Mat2(1, True, "2.5", 3), Mat2(Half(1.0), 1.0, 2.5, np.float64(3.0))):
        assert m.entries() == (1.0, 1.0, 2.5, 3.0)
        assert all(type(x) is float for x in m.entries())


def test_tolerance_ordering_enforced():
    with pytest.raises(InvalidTolerance):
        Tolerance(abs_tol=1e-12, exact_tol=1e-9)
    with pytest.raises(InvalidTolerance):
        Tolerance(abs_tol=1e-9, exact_tol=0.0)


def _random_mats(n, seed, scale=2.0):
    rng = np.random.default_rng(seed)
    return [Mat2.from_array(rng.uniform(-scale, scale, (2, 2))) for _ in range(n)]


def test_mat_mul_associative():
    mats = _random_mats(300, seed=7)
    for a, b, c in zip(mats[::3], mats[1::3], mats[2::3]):
        lhs = (a @ b) @ c
        rhs = a @ (b @ c)
        assert lhs.max_diff(rhs) <= 1e-12


def test_det_multiplicative():
    mats = _random_mats(200, seed=8)
    for a, b in zip(mats[::2], mats[1::2]):
        assert abs((a @ b).det() - a.det() * b.det()) <= 1e-9


def test_trace_cyclic():
    mats = _random_mats(200, seed=9)
    for a, b in zip(mats[::2], mats[1::2]):
        assert abs((a @ b).trace() - (b @ a).trace()) <= 1e-9


def test_inverse():
    m = Mat2(2, 1, 1, 1)
    assert (m @ m.inverse()).max_diff(I2) <= 1e-15
    with pytest.raises(NotInvertible):
        Mat2(1, 2, 2, 4).inverse()


def test_json_round_trip():
    m = Mat2(0.1, -2.5, 3.75, 4.0)
    assert Mat2.from_json_dict(m.to_json_dict()) == m
    with pytest.raises(ValueError):
        Mat2.from_json_dict({"a": 1.0, "b": 2.0})


def test_array_round_trip():
    m = Mat2(1, 2, 3, 4)
    assert Mat2.from_array(m.to_array()) == m
    assert m.to_array().shape == (2, 2)


def test_scalar_distance():
    assert Mat2.scalar(3.0).scalar_distance() == 0.0
    assert Mat2(1, 0, 0, -1).scalar_distance() == 1.0
    assert Mat2(0, 1, 1, 0).scalar_distance() == 1.0


def test_apply_is_matrix_vector_product():
    m = Mat2(1, 2, 3, 4)
    v = m.apply(Vec2(5, 6))
    assert (v.x, v.y) == (17.0, 39.0)

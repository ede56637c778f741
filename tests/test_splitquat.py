import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgeo import (
    CausalClass,
    Mat2,
    RootTag,
    SplitQuat,
    classify_involution,
    decompose_root,
    from_matrix,
    householder_from_angle,
    root_matrix_identity,
    root_matrix_neg,
    sq_classify,
    sq_inverse,
    sq_mul,
    to_matrix,
    unit_root_identity,
    unit_root_neg,
)
from invgeo.errors import NotInvertible, SingularParameter

ONE = SplitQuat(1, 0, 0, 0)
I_ = SplitQuat(0, 1, 0, 0)
J_ = SplitQuat(0, 0, 1, 0)
K_ = SplitQuat(0, 0, 0, 1)

coeff = st.floats(min_value=-2, max_value=2, allow_nan=False)
quats = st.builds(SplitQuat, coeff, coeff, coeff, coeff)


def test_basis_product_table():
    assert I_ * J_ == K_
    assert J_ * I_ == -K_
    assert J_ * K_ == -I_
    assert K_ * J_ == I_
    assert K_ * I_ == J_
    assert I_ * K_ == -J_
    assert I_ * I_ == -ONE
    assert J_ * J_ == ONE
    assert K_ * K_ == ONE
    assert I_ * J_ * K_ == ONE
    assert [SplitQuat.unit(name) for name in "1ijk"] == [ONE, I_, J_, K_]


def test_one_is_the_unit():
    q = SplitQuat(0.5, -1, 2, 0.25)
    assert ONE * q == q
    assert q * ONE == q


def test_conjugate_and_modulus():
    q = SplitQuat(1, 2, 3, 4)
    assert q.conjugate() == SplitQuat(1, -2, -3, -4)
    assert ONE.modulus() == 1.0
    assert J_.modulus() == -1.0
    assert I_.modulus() == 1.0
    # q q* is a pure scalar equal to the modulus
    prod = sq_mul(q, q.conjugate())
    assert prod.w == q.modulus()
    assert (prod.x, prod.y, prod.z) == (0.0, 0.0, 0.0)


def test_classification():
    assert sq_classify(I_ + J_) is CausalClass.LIGHTLIKE
    assert sq_classify(SplitQuat(2, 0, 0, 0)) is CausalClass.TIMELIKE
    assert sq_classify(J_) is CausalClass.SPACELIKE
    assert sq_classify(J_ + K_) is CausalClass.SPACELIKE  # modulus -2


def test_inverse():
    assert sq_inverse(SplitQuat(2, 0, 0, 0)) == SplitQuat(0.5, 0, 0, 0)
    assert sq_inverse(I_) == -I_
    with pytest.raises(NotInvertible):
        sq_inverse(I_ + J_)
    q = SplitQuat(1, 0.5, -0.25, 2)
    assert sq_mul(q, sq_inverse(q)).max_diff(ONE) <= 1e-12


@given(p=quats, q=quats, r=quats)
@settings(max_examples=200, deadline=None)
def test_ring_axioms(p, q, r):
    assert sq_mul(sq_mul(p, q), r).max_diff(sq_mul(p, sq_mul(q, r))) <= 1e-12
    assert sq_mul(p, q + r).max_diff(sq_mul(p, q) + sq_mul(p, r)) <= 1e-12
    assert sq_mul(p, q - r).max_diff(sq_mul(p, q) - sq_mul(p, r)) <= 1e-12
    # the reals are the centre, and a real factor is the scalar multiple
    assert sq_mul(SplitQuat.real(0.5), p) == sq_mul(p, SplitQuat.real(0.5)) == 0.5 * p


def test_isomorphism_examples():
    assert to_matrix(ONE) == Mat2.identity()
    assert to_matrix(K_) == Mat2(1, 0, 0, -1)
    assert from_matrix(Mat2(0, 1, -1, 0)) == I_


def test_isomorphism_round_trip_and_homomorphism():
    rng = np.random.default_rng(21)
    for _ in range(2000):
        # draws over a power-of-two range land on the 2^-51 grid, so the
        # half-sum/half-difference round trip is exact in floats
        p = SplitQuat(*rng.uniform(-2, 2, 4))
        q = SplitQuat(*rng.uniform(-2, 2, 4))
        assert from_matrix(to_matrix(p)) == p
        assert to_matrix(sq_mul(p, q)).max_diff(to_matrix(p) @ to_matrix(q)) <= 1e-12
        assert abs(to_matrix(p).det() - p.modulus()) <= 1e-12


@pytest.mark.parametrize("q", [SplitQuat(2.0 ** 1023, 0.0, 2.0 ** 1023, 0.0),
                               SplitQuat(1.6e308, -1e307, 1e307, 1e307)])
def test_from_matrix_where_a_sum_leaves_the_float_range(q):
    # a + d (and b + c) overflow where their halves fit; the result is the
    # one at half the scale, doubled, bit for bit
    m = to_matrix(q)
    half = from_matrix(Mat2(*(0.5 * v for v in m.entries())))
    assert from_matrix(m) == SplitQuat(2 * half.w, 2 * half.x, 2 * half.y, 2 * half.z)
    assert from_matrix(m).max_diff(q) <= 4 * 2.0 ** -52 * 1.7e308


def test_unit_root_identity():
    assert unit_root_identity(0, 0) == K_
    assert unit_root_identity(0, math.pi / 2).max_diff(J_) <= 1e-15
    q = unit_root_identity(1.0, math.pi / 4)
    assert sq_mul(q, q).max_diff(ONE) <= 1e-12
    assert abs(q.x * q.x - q.y * q.y - q.z * q.z + 1.0) <= 1e-12


def test_unit_root_neg():
    assert unit_root_neg(0, 0.7).max_diff(I_) <= 1e-15
    q = unit_root_neg(math.pi / 4, 0)
    assert q.max_diff(SplitQuat(0, math.sqrt(2), 0, 1)) <= 1e-12
    assert sq_mul(q, q).max_diff(-ONE) <= 1e-12
    assert abs(q.x * q.x - q.y * q.y - q.z * q.z - 1.0) <= 1e-12
    with pytest.raises(SingularParameter):
        unit_root_neg(math.pi / 2, 0)


def test_root_surfaces_on_grid():
    for t in np.linspace(-3, 3, 13):
        for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            q = unit_root_identity(t, phi)
            assert abs(q.x * q.x - q.y * q.y - q.z * q.z + 1.0) <= 1e-12
    for t in np.linspace(-1.2, 1.2, 13):
        for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            q = unit_root_neg(t, phi)
            assert abs(q.x * q.x - q.y * q.y - q.z * q.z - 1.0) <= 1e-12


def test_root_matrices():
    # t = 0 reduces to the Householder reflection and the quarter turn
    for phi in (0.0, 1.0, 2.5):
        assert root_matrix_identity(0.0, phi).max_diff(householder_from_angle(phi)) <= 1e-15
    assert root_matrix_neg(0.0, 0.3).max_diff(Mat2(0, 1, -1, 0)) <= 1e-15
    m = root_matrix_identity(1.0, 0.0)
    assert (m @ m).max_diff(Mat2.identity()) <= 1e-9
    n = root_matrix_neg(0.6, 2.0)
    assert (n @ n).max_diff(-Mat2.identity()) <= 1e-9


def test_root_matrix_agrees_with_quaternion_route():
    for t in (-1.0, 0.3, 2.0):
        for phi in (0.0, 1.3, 4.0):
            direct = root_matrix_identity(t, phi)
            assert direct.max_diff(to_matrix(unit_root_identity(t, phi))) <= 1e-15


def test_identity_roots_classify_as_general_family():
    for t in (-1.5, 0.5, 2.0):
        for phi in (0.3, 1.0, 2.2, 5.0):
            fam = classify_involution(root_matrix_identity(t, phi))
            assert fam.tag in (
                RootTag.GENERAL,
                RootTag.UPPER_B_PLUS_MINUS,
                RootTag.UPPER_B_MINUS_PLUS,
                RootTag.LOWER_C_PLUS_MINUS,
                RootTag.LOWER_C_MINUS_PLUS,
            )


def test_decompose_root():
    coef_h, h, coef_j, j = decompose_root(0.0, 1.1, "identity")
    assert (coef_h, coef_j) == (1.0, 0.0)
    assert h == householder_from_angle(1.1)
    assert j == Mat2(0, 1, -1, 0)

    coef_h, h, coef_j, j = decompose_root(0.0, 0.4, "neg")
    assert (coef_h, coef_j) == (0.0, 1.0)

    coef_h, h, coef_j, j = decompose_root(1.0, math.pi / 3, "identity")
    recomposed = coef_h * h + coef_j * j
    assert recomposed.max_diff(root_matrix_identity(1.0, math.pi / 3)) <= 1e-12

    coef_h, h, coef_j, j = decompose_root(0.9, 2.0, "neg")
    recomposed = coef_h * h + coef_j * j
    assert recomposed.max_diff(root_matrix_neg(0.9, 2.0)) <= 1e-12

    with pytest.raises(SingularParameter):
        decompose_root(math.pi / 2, 0.0, "neg")
    with pytest.raises(ValueError):
        decompose_root(0.0, 0.0, "bogus")


def test_neg_root_covers_both_sheets():
    # sec t changes sign across t = pi/2, selecting the x >= 1 / x <= -1 sheet
    plus = unit_root_neg(0.3, 0.0)
    minus = unit_root_neg(math.pi - 0.3, 0.0)
    assert plus.x > 1.0
    assert minus.x < -1.0
    assert sq_mul(minus, minus).max_diff(-ONE) <= 1e-12


def test_json_round_trip():
    q = SplitQuat(0.5, -1.5, 2.0, 0.0)
    assert SplitQuat.from_json_dict(q.to_json_dict()) == q
    assert SplitQuat.from_json_dict({"w": 2, "x": 0, "y": -1, "z": 0.5}) == SplitQuat(2, 0, -1, 0.5)
    with pytest.raises(ValueError, match="^quaternion JSON needs keys w, x, y, z"):
        SplitQuat.from_json_dict({"w": 1.0})
    for key, bad, message in [("w", "2", "must be a number, got '2'"),
                              ("x", False, "must be a number, got False"),
                              ("z", None, "must be a number, got None"),
                              ("y", -(2**1024), "is an integer beyond the float range")]:
        with pytest.raises(ValueError, match=f"^JSON key '{key}' {message}$"):
            SplitQuat.from_json_dict({"w": 1.0, "x": 0.0, "y": 0.0, "z": 0.0, key: bad})


# -- scale-relative lightlike decision ----------------------------------------------

#: 1e-6-scale matrices whose determinant q q* is below 1e-12 in size but far
#: from 0 relative to w^2 + x^2 + y^2 + z^2.
SMALL_SCALE_QUATS = [
    ((-4.77552939169364e-07, -2.1415998485698278e-07, -5.346885399034996e-07,
      6.79308292457427e-07), CausalClass.SPACELIKE),  # det -4.4e-13
    ((-1.0260890607311717e-06, -5.275899267194504e-07, -6.150459010129217e-07,
      2.9365557891756564e-07), CausalClass.SPACELIKE),  # det -6.3e-13
    ((3.532223917066578e-07, 9.921154823576307e-08, -1.467485392021113e-07,
      1.3037801772411457e-06), CausalClass.TIMELIKE),  # det 4.8e-13
]


@pytest.mark.parametrize("entries, causal", SMALL_SCALE_QUATS)
def test_small_scale_quaternions_are_not_lightlike(entries, causal):
    m = Mat2(*entries)
    q = from_matrix(m)
    assert abs(q.modulus()) < 1e-12
    assert sq_classify(q) is causal
    inv = sq_inverse(q)
    assert sq_mul(q, inv).max_diff(ONE) <= 1e-9


@pytest.mark.parametrize("s", [1e-150, 1e-6, 1.0, 1e8, 1e150, 1e300])
def test_lightlike_decision_is_scale_invariant(s):
    assert sq_classify(SplitQuat(s, 0, s, 0)) is CausalClass.LIGHTLIKE
    with pytest.raises(NotInvertible):
        sq_inverse(SplitQuat(0, s, 0, s))
    assert sq_classify(SplitQuat(s, 0, s * (1 - 1e-9), 0)) is CausalClass.TIMELIKE
    assert sq_classify(SplitQuat(0, s * (1 - 1e-9), 0, s)) is CausalClass.SPACELIKE
    assert sq_classify(SplitQuat(s, 0, 0, 0)) is CausalClass.TIMELIKE
    assert sq_classify(SplitQuat(0, 0, 0, s)) is CausalClass.SPACELIKE



@given(q=quats.filter(lambda q: q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z > 2.0**-800))
def test_modulus_in_the_normal_range_is_the_plain_formula(q):
    # below 2**-800 the plain squares lose precision or underflow
    assert repr(q.modulus()) == repr(q.w * q.w + q.x * q.x - q.y * q.y - q.z * q.z)


@pytest.mark.parametrize("k", [-530, -511, -400, -1, 0, 1, 400, 510])
def test_modulus_scales_exactly_by_powers_of_four(k):
    q0 = SplitQuat(1.0, 0.5, -0.25, 2.0)  # dyadic entries: every square is exact
    q = SplitQuat(*(math.ldexp(v, k) for v in (q0.w, q0.x, q0.y, q0.z)))
    assert q.modulus() == math.ldexp(q0.modulus(), 2 * k) == math.ldexp(-2.8125, 2 * k)


def test_modulus_beyond_the_float_range_is_infinite_and_large_equal_squares_cancel():
    assert SplitQuat(0, 0, 0, 1e200).modulus() == -math.inf
    assert SplitQuat(1e200, 0, 0, 0).modulus() == math.inf
    assert SplitQuat(1e200, 0, 1e200, 0).modulus() == 0.0
    assert SplitQuat(1e-200, 0, 0, 0).modulus() == 0.0  # 1e-400 underflows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(u=st.floats(0.5, 1.0, exclude_max=True), v=st.floats(0.0, 1.0),
       k=st.integers(880, 920) | st.integers(-920, -880), swap=st.booleans(),
       signs=st.tuples(*[st.sampled_from((1.0, -1.0))] * 4))
def test_an_exactly_lightlike_quaternion_far_from_order_one_has_modulus_zero(u, v, k, swap,
                                                                             signs):
    # w^2 + x^2 = y^2 + z^2 exactly, with full-precision coefficients: the
    # float sum of the scaled squares leaves a rounding residual, which 4**k
    # would take far from 0
    coefficients = (u, v, v, u) if swap else (u, v, u, v)
    q = SplitQuat(*(sign * math.ldexp(c, k) for sign, c in zip(signs, coefficients)))
    assert q.modulus() == 0.0
    assert sq_classify(q) is CausalClass.LIGHTLIKE


def test_inverse_at_both_ends_of_the_float_range():
    # q^2 would overflow, or underflow to 0, in the plain q* / (q q*)
    for q, inverse in [(SplitQuat(1e200, 0, 0, 0), SplitQuat(1e-200, 0, 0, 0)),
                       (SplitQuat(3e-170, 0, 0, 0), SplitQuat(1 / 3e-170, 0, 0, 0)),
                       (SplitQuat(0, 0, 0, 1e200), SplitQuat(0, 0, 0, 1e-200))]:
        got = sq_inverse(q)
        assert got.max_diff(inverse) <= 1e-15 * max(abs(v) for v in (got.w, got.x, got.y, got.z))


def test_an_inverse_beyond_the_float_range_is_not_invertible():
    q = SplitQuat(5e-324, 0, 0, 0)
    assert sq_classify(q) is CausalClass.TIMELIKE
    with pytest.raises(NotInvertible):
        sq_inverse(q)
    with pytest.raises(NotInvertible):
        to_matrix(q).inverse()


def _well_conditioned(q: SplitQuat) -> bool:
    """|q q*| at least a quarter of w^2 + x^2 + y^2 + z^2, and the largest
    coefficient at least 1/2."""
    norm_sq = q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z
    return abs(q.modulus()) >= 0.25 * norm_sq and norm_sq >= 0.25


@settings(max_examples=300, deadline=None)
@given(q0=quats.filter(_well_conditioned), k=st.integers(-1000, 1000))
def test_inverse_of_a_scaled_quaternion_is_within_tolerance(q0, k):
    q = SplitQuat(*(math.ldexp(v, k) for v in (q0.w, q0.x, q0.y, q0.z)))
    assert sq_classify(q) is (CausalClass.TIMELIKE if q0.modulus() > 0 else CausalClass.SPACELIKE)
    assert sq_mul(q, sq_inverse(q)).max_diff(ONE) <= 1e-9


def test_max_diff_is_inf_where_a_difference_overflows():
    big, neg = SplitQuat(1e308, 0, 0, 0), SplitQuat(-1e308, 0, 0, 0)
    assert big.max_diff(neg) == math.inf
    assert SplitQuat(0, 0, 0, -1e308).max_diff(SplitQuat(0, 0, 0, 1e308)) == math.inf
    assert big.max_diff(big) == 0.0
    assert SplitQuat(1, 2, 3, 4).max_diff(SplitQuat(1, 2.5, 1, 4)) == 2.0

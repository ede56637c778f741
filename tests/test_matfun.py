import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgeo import (
    Cardinality,
    JordanKind,
    Mat2,
    RootSearchGrid,
    SQRT,
    SQUARE,
    ScalarFunction,
    brute_force_roots,
    conjugated_roots,
    count_real_roots,
    eigen2,
    make_skew_root,
    jordan2,
    matrix_function,
    principal_sqrt,
    scaled_roots,
    sqrt_branches,
)
from invgeo.errors import (
    ComplexEigenvalues,
    FunctionUndefinedAtEigenvalue,
    NonPositiveScale,
    NotASquareRoot,
    SingularConjugator,
)

I2 = Mat2.identity()
ROTATION_90 = Mat2(0, -1, 1, 0)
SKEW_INVOLUTION = make_skew_root(1.0, 2.0)  # [[1, 2], [-1, -1]], a square root of -I2


def test_eigen2_examples():
    assert eigen2(Mat2.diag(1, 4)) == (1.0, 4.0)
    assert eigen2(I2) == (1.0, 1.0)
    assert eigen2(Mat2.diag(4, 1)) == (1.0, 4.0)  # ascending
    with pytest.raises(ComplexEigenvalues):
        eigen2(Mat2(0, 1, -1, 0))


def test_eigen2_small_eigenvalue_keeps_relative_accuracy():
    # 0.5 * (tr - sqrt(disc)) cancels to 1.49e-8 here
    assert eigen2(Mat2.diag(1e8, 1e-8)) == (1e-8, 1e8)


def test_eigen2_close_real_eigenvalues_at_large_scale():
    # tr^2 - 4 det rounds to -8 here; (a - d)^2 + 4bc stays positive
    lam1, lam2 = eigen2(Mat2(1e8, 1, 0, 1e8 + 1e-3))
    assert lam1 == pytest.approx(1e8, rel=1e-15)
    assert lam2 == pytest.approx(1e8 + 1e-3, rel=1e-15)


def test_eigen2_and_roots_above_the_squaring_overflow():
    # (a - d)^2 and det overflow for entries above ~1e154 without scaling
    m = Mat2.diag(1e200, 1e199)
    assert eigen2(m) == (1e199, 1e200)
    assert count_real_roots(m).tag is Cardinality.FINITE
    assert count_real_roots(m).n == 4
    branches = sqrt_branches(m)
    assert len(branches) == 4
    for r in branches:
        assert (r @ r).max_diff(m) <= 4 * 2.0**-52 * m.max_norm()


@settings(max_examples=300, deadline=None)
@given(
    entries=st.tuples(*[st.integers(-2**53, 2**53)] * 4),
    k=st.integers(-900, 900),
)
def test_eigen2_is_exact_under_power_of_two_scaling(entries, k):
    # multiples of 2**-52 in [-2, 2]: every scaled entry and result stays normal
    a, b, c, d = (math.ldexp(n, -52) for n in entries)
    c = math.copysign(c, b)  # bc >= 0: a real spectrum at every scale
    lam = eigen2(Mat2(a, b, c, d))
    scaled = eigen2(Mat2(*(math.ldexp(x, k) for x in (a, b, c, d))))
    assert scaled == tuple(math.ldexp(x, k) for x in lam)


def test_jordan2_scalar():
    dec = jordan2(I2)
    assert dec.kind is JordanKind.SCALAR_DIAG
    assert dec.eig1 == 1.0
    assert dec.z == I2


def test_jordan2_block():
    dec = jordan2(Mat2(1, 1, 0, 1))
    assert dec.kind is JordanKind.JORDAN_BLOCK
    assert dec.eig1 == 1.0
    assert dec.z == I2
    assert dec.reconstruct().max_diff(Mat2(1, 1, 0, 1)) <= 1e-12


def test_jordan2_distinct():
    m = Mat2(0, 1, -2, 3)
    dec = jordan2(m)
    assert dec.kind is JordanKind.DISTINCT_DIAG
    assert (dec.eig1, dec.eig2) == pytest.approx((1.0, 2.0))
    assert dec.reconstruct().max_diff(m) <= 1e-12


def test_jordan2_lower_triangular_block():
    m = Mat2(2, 0, 7, 2)
    dec = jordan2(m)
    assert dec.kind is JordanKind.JORDAN_BLOCK
    assert dec.reconstruct().max_diff(m) <= 1e-12


def test_jordan2_reconstruction_random():
    rng = np.random.default_rng(31)
    done = 0
    while done < 300:
        m = Mat2.from_array(rng.uniform(-4, 4, (2, 2)))
        if m.trace() ** 2 - 4 * m.det() < 1e-6:
            continue  # keep spectra clearly real and separated
        dec = jordan2(m)
        assert dec.reconstruct().max_diff(m) <= 1e-9
        done += 1


def test_matrix_function_square_on_block():
    result = matrix_function(Mat2(1, 1, 0, 1), SQUARE)
    assert result.max_diff(Mat2(1, 2, 0, 1)) <= 1e-12


def test_matrix_function_identity_map():
    ident = ScalarFunction(lambda x: x, lambda x: 1.0, name="id")
    for m in (Mat2(1, 1, 0, 1), Mat2.diag(2, 5), Mat2(0, 1, -2, 3)):
        assert matrix_function(m, ident).max_diff(m) <= 1e-12


def test_matrix_function_sqrt_principal():
    assert matrix_function(Mat2.diag(1, 4), SQRT).max_diff(Mat2.diag(1, 2)) <= 1e-12


def test_matrix_function_undefined_cases():
    with pytest.raises(FunctionUndefinedAtEigenvalue):
        matrix_function(Mat2.diag(-1, 4), SQRT)  # sqrt of a negative eigenvalue
    with pytest.raises(FunctionUndefinedAtEigenvalue):
        matrix_function(Mat2(0, 1, 0, 0), SQRT)  # sqrt' blows up at 0
    with pytest.raises(FunctionUndefinedAtEigenvalue):
        matrix_function(Mat2(1, 1, 0, 1), ScalarFunction(lambda x: x, None))


def test_sqrt_branches_distinct():
    roots = sqrt_branches(Mat2.diag(1, 4))
    assert len(roots) == 4
    expected = {(1.0, 2.0), (1.0, -2.0), (-1.0, 2.0), (-1.0, -2.0)}
    got = {(r.a, r.d) for r in roots}
    assert got == expected
    for r in roots:
        assert (r.b, r.c) == (0.0, 0.0)


@pytest.mark.parametrize("lam", [0.25, 1.0, 2.0, 9.0])
def test_sqrt_branches_jordan_block(lam):
    target = Mat2(lam, 1, 0, lam)
    roots = sqrt_branches(target)
    assert len(roots) == 2
    s = math.sqrt(lam)
    expected = Mat2(s, 0.5 / s, 0.0, s)
    assert any(r.max_diff(expected) <= 1e-12 for r in roots)
    assert any(r.max_diff(-expected) <= 1e-12 for r in roots)
    for r in roots:
        assert (r @ r).max_diff(target) <= 1e-12


def test_sqrt_branches_none_for_nilpotent():
    assert sqrt_branches(Mat2(0, 1, 0, 0)) == []


def test_sqrt_branches_scalar():
    roots = sqrt_branches(Mat2.scalar(4.0))
    assert roots == [Mat2.scalar(2.0), Mat2.scalar(-2.0)]
    assert sqrt_branches(Mat2.zero()) == [Mat2.zero()]
    assert sqrt_branches(Mat2.scalar(-1.0)) == []


def test_sqrt_branches_zero_eigenvalue_merges():
    roots = sqrt_branches(Mat2.diag(5, 0))
    assert len(roots) == 2
    s = math.sqrt(5)
    got = sorted(r.a for r in roots)
    assert got == pytest.approx([-s, s])


def test_sqrt_branches_conjugated_matches_oracle():
    rng = np.random.default_rng(32)
    for _ in range(5):
        z = Mat2.from_array(rng.uniform(-2, 2, (2, 2)))
        if abs(z.det()) < 0.3:
            continue
        lam1, lam2 = sorted(rng.uniform(0.3, 4, 2))
        if lam2 - lam1 < 0.2:
            continue
        m = z @ Mat2.diag(lam1, lam2) @ z.inverse()
        branches = sqrt_branches(m)
        assert len(branches) == 4
        oracle = brute_force_roots(m)
        assert len(oracle) == 4
        for r in oracle:
            assert min(r.max_diff(b) for b in branches) <= 1e-6


def test_square_then_sqrt_round_trip():
    rng = np.random.default_rng(33)
    for _ in range(50):
        # symmetric positive definite with well separated eigenvalues
        g = rng.uniform(-2, 2, (2, 2))
        spd = g @ g.T + np.eye(2) * rng.uniform(0.3, 1.0)
        m = Mat2.from_array(spd)
        back = matrix_function(matrix_function(m, SQUARE), SQRT)
        assert back.max_diff(m) <= 1e-8


def test_count_real_roots_cases():
    finite4 = count_real_roots(Mat2.diag(1, 4))
    assert finite4.tag is Cardinality.FINITE and finite4.n == 4
    finite2 = count_real_roots(Mat2.diag(5, 0))
    assert finite2.tag is Cardinality.FINITE and finite2.n == 2
    block = count_real_roots(Mat2(4, 1, 0, 4))
    assert block.tag is Cardinality.FINITE and block.n == 2
    assert count_real_roots(-I2).tag is Cardinality.INFINITE
    assert count_real_roots(I2).tag is Cardinality.INFINITE
    assert count_real_roots(Mat2.zero()).tag is Cardinality.INFINITE
    assert count_real_roots(Mat2(0, 1, 0, 0)).tag is Cardinality.ZERO
    assert count_real_roots(Mat2.diag(-1, -4)).tag is Cardinality.ZERO
    assert count_real_roots(Mat2.diag(-4, 1)).tag is Cardinality.ZERO


def test_scaled_roots():
    swap = Mat2(0, 1, 1, 0)
    scaled = scaled_roots(I2, 4.0, swap)
    assert scaled == Mat2(0, 2, 2, 0)
    assert (scaled @ scaled).max_diff(Mat2.scalar(4.0)) <= 1e-12
    assert scaled_roots(I2, 1.0, swap) == swap
    assert scaled_roots(Mat2.diag(1, 4), 9.0, Mat2.diag(1, 2)) == Mat2.diag(3, 6)
    with pytest.raises(NonPositiveScale):
        scaled_roots(I2, -2.0, swap)
    with pytest.raises(NotASquareRoot):
        scaled_roots(Mat2.diag(1, 4), 2.0, swap)


def test_conjugated_roots():
    r = Mat2(1, 0, 0, -1)
    assert conjugated_roots(I2, I2, r) == r
    zc = Mat2(1, 1, 0, 1)
    moved = conjugated_roots(I2, zc, r)
    assert moved.max_diff(Mat2(1, 2, 0, -1)) <= 1e-12
    assert (moved @ moved).max_diff(I2) <= 1e-12
    zc2 = Mat2(2, 0, 0, 1)
    assert conjugated_roots(Mat2.diag(1, 4), zc2, Mat2.diag(1, 2)) == Mat2.diag(1, 2)
    with pytest.raises(SingularConjugator):
        conjugated_roots(I2, Mat2(1, 2, 2, 4), r)
    with pytest.raises(NotASquareRoot):
        conjugated_roots(Mat2.diag(1, 4), zc, r)


def test_brute_force_oracle_counts():
    assert len(brute_force_roots(Mat2.diag(1, 4))) == 4
    assert brute_force_roots(Mat2(0, 1, 0, 0)) == []
    assert len(brute_force_roots(Mat2.diag(5, 0))) == 2
    assert len(brute_force_roots(Mat2(1, 1, 0, 1))) == 2


def test_brute_force_count_grows_for_identity():
    coarse = brute_force_roots(I2, RootSearchGrid(points_per_axis=3))
    fine = brute_force_roots(I2, RootSearchGrid(points_per_axis=5))
    assert len(coarse) >= 8
    assert len(fine) > len(coarse)


def test_count_matches_oracle_on_suite():
    suite = [
        I2,
        -I2,
        Mat2.scalar(4.0),
        Mat2.diag(5, 0),
        Mat2(1, 1, 0, 1),
        Mat2(0, 1, 0, 0),
        Mat2.diag(1, 4),
        Mat2.diag(-1, -4),
        Mat2(4, 1, 0, 4),
        Mat2.zero(),
        ROTATION_90,
        SKEW_INVOLUTION,
    ]
    assert len(brute_force_roots(ROTATION_90)) == 2
    assert len(brute_force_roots(SKEW_INVOLUTION)) == 2
    for m in suite:
        found = brute_force_roots(m)
        verdict = count_real_roots(m)
        if verdict.tag is Cardinality.ZERO:
            assert found == []
        elif verdict.tag is Cardinality.FINITE:
            assert len(found) == verdict.n
        else:
            assert len(found) >= 8  # unbounded families show up in bulk
        for r in found:
            assert (r @ r).max_diff(m) <= 1e-9


# -- the principal square root ------------------------------------------------

#: Matrices with a real principal root: positive, zero-and-positive, Jordan
#: and complex spectra, and scalars lam I2 with lam >= 0.
PRINCIPAL_SUITE = [
    I2,
    Mat2.scalar(4.0),
    Mat2.zero(),
    Mat2.diag(5, 0),
    Mat2(1, 1, 0, 1),
    Mat2.diag(1, 4),
    Mat2(4, 1, 0, 4),
    Mat2(3, 1, -2, 0.5),
    ROTATION_90,
    Mat2(-0.5, -math.sqrt(3) / 2, math.sqrt(3) / 2, -0.5),  # rotation by 120 degrees
    SKEW_INVOLUTION,
]

#: Matrices without one: negative or mixed spectra, a nilpotent block, lam I2
#: with lam < 0.
NO_PRINCIPAL_SUITE = [
    -I2,
    Mat2.scalar(-3.0),
    Mat2.diag(-1, -4),
    Mat2.diag(-4, 1),
    Mat2.diag(-1, 0),
    Mat2(0, 1, 0, 0),
    Mat2(-2, 1, 0, -2),
]


def _right_half_plane(r):
    # eigenvalues of R: product det R, sum tr R; both in Re > 0 (or one at 0),
    # up to the oracle's convergence
    return r.trace() > 1e-6 and r.det() >= -1e-6


@pytest.mark.parametrize("m", PRINCIPAL_SUITE, ids=repr)
def test_principal_sqrt_is_the_oracle_root_in_the_right_half_plane(m):
    root = principal_sqrt(m)
    assert (root @ root).max_diff(m) <= 1e-12 * max(1.0, m.max_norm())
    assert root == sqrt_branches(m)[0]
    if m.max_norm() == 0.0:
        assert root == Mat2.zero()
        return
    assert _right_half_plane(root)
    found = brute_force_roots(m)
    primary = [r for r in found if _right_half_plane(r)]
    if count_real_roots(m).tag is Cardinality.FINITE:
        assert len(primary) == 1
    assert min(root.max_diff(r) for r in primary) <= 1e-6


def test_principal_sqrt_of_rotations_and_scalars():
    c = math.sqrt(0.5)
    assert principal_sqrt(ROTATION_90).max_diff(Mat2(c, -c, c, c)) <= 1e-15
    assert principal_sqrt(Mat2.scalar(9.0)) == Mat2.scalar(3.0)
    assert principal_sqrt(Mat2.zero()) == Mat2.zero()
    assert principal_sqrt(Mat2.diag(4, 0)) == Mat2.diag(2, 0)
    assert principal_sqrt(Mat2(1, 1, 0, 1)) == Mat2(1, 0.5, 0, 1)


@pytest.mark.parametrize("m", NO_PRINCIPAL_SUITE, ids=repr)
def test_principal_sqrt_refuses_with_the_matrix_function_code(m):
    with pytest.raises(FunctionUndefinedAtEigenvalue) as principal:
        principal_sqrt(m)
    with pytest.raises(FunctionUndefinedAtEigenvalue) as general:
        matrix_function(m, SQRT)
    assert principal.value.code == general.value.code == "function_undefined_at_eigenvalue"
    assert all(not _right_half_plane(r) for r in brute_force_roots(m))


# -- closed-form square roots -------------------------------------------------

#: Allowed ||R^2 - A|| relative to max(||R||^2, ||A||): a few roundings.
ROOT_REL = 16 * 2.0**-52

scales = st.floats(-6, 8).map(lambda u: 10.0**u)
conjugators = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))


def _conjugate(core, z):
    """Z core Z^-1 for Z = [[1, p], [q, 1]] (condition number <= 3)."""
    p, q = z
    zm = Mat2(1.0, p, q, 1.0)
    return zm @ Mat2(*core) @ zm.inverse()


def _check_closed_form(m):
    """Every root squares to m, and the count matches the enumeration."""
    roots = sqrt_branches(m)
    count = count_real_roots(m)
    if roots:
        assert count.tag is Cardinality.FINITE and count.n == len(roots)
    else:
        assert count.tag is Cardinality.ZERO
    for r in roots:
        scale = max(r.max_norm() ** 2, m.max_norm())
        assert (r @ r).max_diff(m) <= ROOT_REL * scale
    return roots


@settings(max_examples=300, deadline=None)
@given(s=scales, z=conjugators, lo=st.floats(0.1, 1.0), ratio=st.floats(1.01, 5.0))
def test_closed_form_distinct_positive_spectrum(s, z, lo, ratio):
    assert len(_check_closed_form(_conjugate((s * lo, 0.0, 0.0, s * lo * ratio), z))) == 4


@settings(max_examples=300, deadline=None)
@given(s=scales, z=conjugators, off=st.floats(-1.0, 1.0), gap=st.floats(-14, -2))
def test_closed_form_near_coincident_eigenvalues(s, z, off, gap):
    lam, mu = s, s * (1.0 + 10.0**gap)
    # triangular: the spectrum {lam, mu} is exact, so all four roots exist
    assert len(_check_closed_form(Mat2(lam, s * off, 0.0, mu))) == 4
    # conjugated: rounding may merge the pair into a complex one
    assert len(_check_closed_form(_conjugate((lam, 0.0, 0.0, mu), z))) in (2, 4)


@settings(max_examples=300, deadline=None)
@given(
    e=st.integers(-20, 26),
    lam=st.integers(1, 1024),
    k=st.integers(1, 1024),
    p=st.integers(1, 4).flatmap(lambda n: st.sampled_from((n, -n))),
    q=st.integers(-4, 4),
)
def test_closed_form_exact_jordan_blocks(e, lam, k, p, q):
    # lam*I + N with N^2 = 0, built from integers at one binary scale, so
    # the spectrum is exactly {lam, lam}
    lam, k = math.ldexp(lam, e), math.ldexp(k, e)
    block = (lam + k * p * q, -k * p * p, k * q * q, lam - k * p * q)
    assert len(_check_closed_form(Mat2(*block))) == 2
    assert _check_closed_form(-Mat2(*block)) == []


@settings(max_examples=300, deadline=None)
@given(s=scales, z=conjugators, lo=st.floats(0.1, 1.0), ratio=st.floats(1.2, 5.0),
       mixed=st.booleans())
def test_closed_form_negative_and_mixed_spectra(s, z, lo, ratio, mixed):
    other = s * lo * ratio * (1.0 if mixed else -1.0)
    assert _check_closed_form(_conjugate((-s * lo, 0.0, 0.0, other), z)) == []


@settings(max_examples=300, deadline=None)
@given(s=scales, z=conjugators, theta=st.floats(0.01, math.pi - 0.01),
       conjugate=st.booleans())
def test_closed_form_complex_spectrum(s, z, theta, conjugate):
    core = (s * math.cos(theta), -s * math.sin(theta), s * math.sin(theta), s * math.cos(theta))
    m = _conjugate(core, z) if conjugate else Mat2(*core)
    assert len(_check_closed_form(m)) == 2


def test_rotation_roots_are_half_rotations():
    roots = sqrt_branches(ROTATION_90)
    half = Mat2(math.sqrt(0.5), -math.sqrt(0.5), math.sqrt(0.5), math.sqrt(0.5))
    assert len(roots) == 2
    assert roots[0].max_diff(half) <= 1e-15  # the primary root comes first
    assert roots[1].max_diff(-half) <= 1e-15
    assert count_real_roots(SKEW_INVOLUTION).n == len(sqrt_branches(SKEW_INVOLUTION)) == 2


def test_branch_order_and_positive_zeros():
    roots = sqrt_branches(Mat2.diag(1, 4))
    assert roots == [Mat2.diag(1, 2), Mat2.diag(1, -2), Mat2.diag(-1, 2), Mat2.diag(-1, -2)]
    for r in roots:
        assert math.copysign(1.0, r.b) == math.copysign(1.0, r.c) == 1.0


def test_nearly_scalar_matrix_has_finitely_many_roots():
    # only an exact scalar matrix has infinitely many roots; this one is a
    # Jordan block with eigenvalue 1 and two roots
    m = Mat2(1.0, 1e-12, 0.0, 1.0)
    assert count_real_roots(m).n == 2
    assert len(_check_closed_form(m)) == 2


@settings(max_examples=300, deadline=None)
@given(lam1=st.floats(0.1, 10), lam2=st.floats(0.1, 10), z=conjugators, scale=scales)
def test_principal_sqrt_agrees_with_matrix_function_on_real_spectra(lam1, lam2, z, scale):
    m = scale * _conjugate((lam1, 0.0, 0.0, lam2), z)
    if abs(lam1 - lam2) < 1e-3 * max(lam1, lam2):
        return  # matrix_function merges nearly equal eigenvalues
    root = principal_sqrt(m)
    assert root.max_diff(matrix_function(m, SQRT)) <= 1e-9 * root.max_norm()

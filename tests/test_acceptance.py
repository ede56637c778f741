"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a FAILED test is the corresponding fail line).
"""

import json
import math

import numpy as np

import invgeo as ig
from invgeo.cli import run as cli_run

I2 = ig.Mat2.identity()


def _report(number: int, label: str):
    print(f"criterion {number}: PASS — {label}")


def test_criterion_1_root_families():
    rng = np.random.default_rng(2024)
    count = 0
    while count < 10_000:
        a = rng.uniform(-10, 10)
        b = rng.uniform(-10, 10)
        if abs(b) < 1e-3:
            continue
        general = ig.make_general_root(a, b)
        assert (general @ general).max_diff(I2) <= 1e-9
        skew = ig.make_skew_root(a, b)
        assert (skew @ skew).max_diff(-I2) <= 1e-9
        count += 1
    _report(1, "10^4 general and skew roots square to +-I2 within 1e-9")


def test_criterion_2_quadric_classification():
    one_sheet = ig.classify_quadric(ig.LocusParams(0, -1))
    assert one_sheet.tag is ig.SurfaceTag.ONE_SHEET_HYPERBOLOID
    assert one_sheet.radius_sq == 2.0
    assert ig.classify_quadric(ig.LocusParams(1, 0)).tag is ig.SurfaceTag.ONE_SHEET_HYPERBOLOID
    assert ig.classify_quadric(ig.LocusParams(0, 0)).tag is ig.SurfaceTag.RIGHT_CIRCULAR_CONE
    assert ig.classify_quadric(ig.LocusParams(0, 1)).tag is ig.SurfaceTag.TWO_SHEET_HYPERBOLOID
    for alpha in np.linspace(-5, 5, 21):
        for beta in np.linspace(-5, 5, 21):
            disc = alpha * alpha - 4 * beta
            tag = ig.classify_quadric(ig.LocusParams(alpha, beta)).tag
            if disc > 1e-12:
                assert tag is ig.SurfaceTag.ONE_SHEET_HYPERBOLOID
            elif disc < -1e-12:
                assert tag is ig.SurfaceTag.TWO_SHEET_HYPERBOLOID
            else:
                assert tag is ig.SurfaceTag.RIGHT_CIRCULAR_CONE
    _report(2, "surface classes and the 21x21 sign-rule grid")


def test_criterion_3_bell_frame():
    basis = np.array(ig.BELL_BASIS)
    assert np.abs(basis @ basis.T - np.eye(3)).max() <= 1e-15

    point = ig.to_bell(ig.Mat2(1, 0, 0, -1), 0.0)
    assert abs(point.x - math.sqrt(2)) <= 1e-15
    assert abs(point.y) <= 1e-15 and abs(point.z) <= 1e-15

    rng = np.random.default_rng(7)
    for _ in range(1000):
        alpha = rng.uniform(-4, 4)
        m = ig.Mat2.from_array(rng.uniform(-5, 5, (2, 2)))
        m = ig.Mat2(m.a, m.b, m.c, alpha - m.a)
        assert ig.from_bell(ig.to_bell(m, alpha)).max_diff(m) <= 1e-12
    _report(3, "orthonormal frame, special point, 10^3 round trips")


def test_criterion_4_generators():
    rng = np.random.default_rng(99)
    checked = 0
    while checked < 100:
        a = ig.make_general_root(rng.uniform(-3, 3), rng.uniform(0.2, 3) * rng.choice([-1, 1]))
        seed = ig.Mat2.from_array(rng.uniform(-1, 1, (2, 2)))
        try:
            pair = ig.generator_directions(a, seed)
        except ig.InvGeoError:
            continue
        u, v = pair.u, pair.v
        assert (a @ u).max_diff(u) <= 1e-9
        assert ((u @ a) + u).max_norm() <= 1e-9
        assert (u @ u).max_norm() <= 1e-9
        assert ((a @ v) + v).max_norm() <= 1e-9
        assert (v @ a).max_diff(v) <= 1e-9
        assert (v @ v).max_norm() <= 1e-9
        for t in (-2.0, -0.5, 1.0, 3.0):
            line_point = ig.generator_point(a, u, t)
            assert (line_point @ line_point).max_diff(I2) <= 1e-8
        checked += 1

    # closed forms at principal-section points with seed [[1,0],[0,0]]: the
    # returned pair is {[-s, c+1; c-1, s], [-s, c-1; c+1, s]} up to scale,
    # with labels fixed by the identity conditions: the first satisfies
    # AU = U and the second AV = -V.
    seed = ig.Mat2(1, 0, 0, 0)
    for phi in np.linspace(0.3, 5.9, 12):
        s, c = math.sin(phi), math.cos(phi)
        if abs(s) < 0.05:
            continue
        pair = ig.generator_directions(ig.householder_from_angle(phi), seed)
        for got, form in ((pair.v, ig.Mat2(-s, c - 1, c + 1, s)),
                          (pair.u, ig.Mat2(-s, c + 1, c - 1, s))):
            scale = got.max_norm() / form.max_norm()
            match = min((got - scale * form).max_norm(), (got + scale * form).max_norm())
            assert match <= 1e-9
    _report(4, "six ruling identities, line membership, closed forms")


def test_criterion_5_split_quaternions():
    rng = np.random.default_rng(11)
    for _ in range(10_000):
        p = ig.SplitQuat(*rng.uniform(-2, 2, 4))
        q = ig.SplitQuat(*rng.uniform(-2, 2, 4))
        assert ig.to_matrix(ig.sq_mul(p, q)).max_diff(ig.to_matrix(p) @ ig.to_matrix(q)) <= 1e-12
        assert abs(ig.to_matrix(p).det() - p.modulus()) <= 1e-12
        assert ig.from_matrix(ig.to_matrix(p)) == p  # bitwise round trip
    one = ig.SplitQuat(1, 0, 0, 0)
    for t in np.linspace(-3, 3, 13):
        for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            root = ig.unit_root_identity(t, phi)
            assert ig.sq_mul(root, root).max_diff(one) <= 1e-10
    for t in np.linspace(-1.2, 1.2, 13):
        for phi in np.linspace(0, 2 * math.pi, 16, endpoint=False):
            root = ig.unit_root_neg(t, phi)
            assert ig.sq_mul(root, root).max_diff(-one) <= 1e-10
    _report(5, "isomorphism, determinant law, exact round trip, unit roots")


def test_criterion_6_householder():
    for phi in np.linspace(0, 2 * math.pi, 64, endpoint=False):
        h = ig.householder_from_angle(phi)
        assert (h @ h).max_diff(I2) <= 1e-12
        assert h.b == h.c
        assert abs(h.det() + 1.0) <= 1e-12
        axis = ig.reflection_axis(phi)
        image = h.apply(ig.Vec2(axis.v1, axis.v2))
        assert abs(image.x + axis.v1) <= 1e-12 and abs(image.y + axis.v2) <= 1e-12

    from fractions import Fraction

    for r, s, t in ((3, 4, 5), (5, 12, 13)):
        ig.pythagorean_root(r, s, t)  # float path must accept the triple
        a, b = Fraction(r, t), Fraction(s, t)
        square = (a * a + b * b, a * b + b * -a, b * a + -a * b, b * b + a * a)
        assert square == (1, 0, 0, 1)  # exact rational H^2 = I2
    _report(6, "reflection laws over 64 angles, exact rational triples")


def test_criterion_7_matrix_function():
    roots = ig.sqrt_branches(ig.Mat2.diag(1, 4))
    assert {(r.a, r.b, r.c, r.d) for r in roots} == {
        (1.0, 0.0, 0.0, 2.0), (1.0, 0.0, 0.0, -2.0),
        (-1.0, 0.0, 0.0, 2.0), (-1.0, 0.0, 0.0, -2.0),
    }
    for lam in (0.25, 1.0, 2.0, 9.0):
        target = ig.Mat2(lam, 1, 0, lam)
        s = math.sqrt(lam)
        for root in (ig.Mat2(s, 0.5 / s, 0, s), -ig.Mat2(s, 0.5 / s, 0, s)):
            assert (root @ root).max_diff(target) <= 1e-12
        assert len(ig.sqrt_branches(target)) == 2
    assert ig.sqrt_branches(ig.Mat2(0, 1, 0, 0)) == []

    suite = [
        I2, -I2, ig.Mat2.scalar(4.0), ig.Mat2.diag(5, 0), ig.Mat2(1, 1, 0, 1),
        ig.Mat2(0, 1, 0, 0), ig.Mat2.diag(1, 4), ig.Mat2.diag(-1, -4),
        ig.Mat2(4, 1, 0, 4), ig.Mat2.zero(),
    ]
    for m in suite:
        found = ig.brute_force_roots(m)
        verdict = ig.count_real_roots(m)
        if verdict.tag is ig.Cardinality.ZERO:
            assert found == []
        elif verdict.tag is ig.Cardinality.FINITE:
            assert len(found) == verdict.n
        else:
            assert len(found) >= 8
    _report(7, "branch roots, block formula, oracle-backed cardinalities")


def test_criterion_8_decomposition_and_orbits():
    for m in ig.sample_involutions(1000, seed=8):
        assert ig.decompose_general(m).recompose().max_diff(m) <= 1e-9

    families = [
        ig.RootFamily(ig.RootTag.IDENTITY),
        ig.RootFamily(ig.RootTag.NEG_IDENTITY),
        ig.RootFamily(ig.RootTag.UPPER_B_PLUS_MINUS, b=2.0),
        ig.RootFamily(ig.RootTag.UPPER_B_MINUS_PLUS, b=-3.5),
        ig.RootFamily(ig.RootTag.LOWER_C_PLUS_MINUS, c=1.25),
        ig.RootFamily(ig.RootTag.LOWER_C_MINUS_PLUS, c=4.0),
    ]
    for family in families:
        product = ig.decompose_case(family).recompose()
        assert product.max_diff(ig.make_case_root(family)) <= 1e-12

    rng = np.random.default_rng(88)
    for m in ig.sample_involutions(1000, seed=9, param_range=3):
        start = ig.Vec2(*rng.uniform(-2, 2, 2))
        walk = ig.orbit(m, start, 2)
        assert walk[2].dist(walk[0]) <= 1e-9 * max(1.0, walk[0].norm())
    for m in ig.sample_skew_involutions(1000, seed=10, param_range=3):
        start = ig.Vec2(*rng.uniform(-2, 2, 2))
        walk = ig.orbit(m, start, 4)
        assert walk[2].dist(-walk[0]) <= 1e-9 * max(1.0, walk[0].norm())
        assert walk[4].dist(walk[0]) <= 1e-9 * max(1.0, walk[0].norm())
    _report(8, "recompositions and orbit periods")


def test_criterion_9_cli(capsys):
    from test_cli import GOLDEN_CASES, GOLDEN_DIR

    for name, argv in GOLDEN_CASES:
        assert cli_run(argv) == 0
        first = capsys.readouterr().out
        assert cli_run(argv) == 0
        second = capsys.readouterr().out
        assert first.encode() == second.encode()
        assert first == (GOLDEN_DIR / name).read_text(encoding="utf-8")

    assert cli_run(["bell", "--matrix", "{broken"]) == 2
    captured = capsys.readouterr()
    assert json.loads(captured.err)["error"] == "usage"
    _report(9, "golden files byte-stable, malformed input rejected")

"""Reference forms for the tests to compare against.

Most functions are a kernel as it reads when written with ``Mat2`` objects:
products by ``@``, tests by ``approx_eq`` and ``in_locus``, and values built
through their validating constructors.  The library computes the same
results from the entries as plain floats; the properties in the tests
require the two to agree bit for bit (by ``repr``), and to raise the same
exception class with the same message.

``is_square_root``, ``branch_residual`` and ``branch_is_square_root`` are
the tests of R^2 = S as scaled_roots, conjugated_roots and sqrt_branches
each wrote their own, before all of them shared ``mat2._is_square_root``.

``brute_force_roots`` is the independent check on the closed-form square
roots: a multi-start numerical solve of X^2 = A with SciPy, which the
library itself does not use.

``reference_parser`` is the command line declared to argparse one
``add_argument`` call per flag, the form the CLI's flags had before they
became data.  The tests compare ``cli.run`` and ``cli.build_parser`` with
it: every namespace, help text, usage error and exit code.
"""

from __future__ import annotations

import itertools
import math
import sys

from invgeo import cli, matfun
from invgeo.errors import DegenerateAngle, DegenerateSeed, NotAnInvolution
from invgeo.mat2 import (DEFAULT_TOL, Mat2, Tolerance, _finite, _pow2_scaled, _setattr, _Value,
                         approx_eq)
from invgeo.matfun import Cardinality, RootCardinality
from invgeo.quadric import GeneratorPair, LocusParams, in_locus
from invgeo.roots import RootFamily, RootTag
from invgeo.xform import Decomposition, ElementaryTransform, TransformKind

_SQRT_EPS = math.sqrt(sys.float_info.epsilon)


def root_residual(m: Mat2, sign: float) -> float:
    target = Mat2.identity() if sign > 0 else -Mat2.identity()
    return (m @ m).max_diff(target)


def is_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    return tol.negligible((m @ m).max_diff(Mat2.identity()), max(m.max_norm() * m.max_norm(), 1.0))


def is_skew_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> bool:
    return tol.negligible((m @ m).max_diff(-Mat2.identity()), max(m.max_norm() * m.max_norm(), 1.0))


def is_square_root(root: Mat2, m: Mat2, tol: Tolerance) -> bool:
    """The R^2 = m test that scaled_roots and conjugated_roots made."""
    size = root.max_norm()
    return tol.negligible((root @ root).max_diff(m), max(size * size, m.max_norm()))


def branch_residual(ra, rb, rc, rd, a, b, c, d) -> float:
    """The residual sqrt_branches formed for a candidate root of
    [[a, b], [c, d]], its off-diagonal entries of R^2 as b * tr R."""
    bc, tr = rb * rc, ra + rd
    return max(abs(ra * ra + bc - a), abs(rb * tr - b), abs(rc * tr - c),
               abs(rd * rd + bc - d))


def branch_is_square_root(ra, rb, rc, rd, a, b, c, d, tol: Tolerance) -> bool:
    """The test sqrt_branches made of each candidate root."""
    norm = max(abs(a), abs(b), abs(c), abs(d))
    residual = branch_residual(ra, rb, rc, rd, a, b, c, d)
    size = max(abs(ra), abs(rb), abs(rc), abs(rd))
    return tol.negligible(residual, max(norm, size * size))


def b_negligible(m: Mat2, b: float, tol: Tolerance) -> bool:
    return tol.negligible(b, max(1.0, abs(m.a)), exact=True)


def classify_involution(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> RootFamily:
    if not is_involution(m, tol):
        raise NotAnInvolution(f"R^2 != I2 within {tol.abs_tol} for {m}")
    trace = m.trace()
    if trace > 1.0:
        return RootFamily(RootTag.IDENTITY)
    if trace < -1.0:
        return RootFamily(RootTag.NEG_IDENTITY)
    lower = RootTag.LOWER_C_PLUS_MINUS if m.a > 0 else RootTag.LOWER_C_MINUS_PLUS
    if b_negligible(m, m.b, tol):
        return RootFamily(lower, c=m.c)
    if b_negligible(m, m.c, tol):
        if m.a > 0:
            return RootFamily(RootTag.UPPER_B_PLUS_MINUS, b=m.b)
        return RootFamily(RootTag.UPPER_B_MINUS_PLUS, b=m.b)
    miss = abs((1.0 - m.a * m.a) / m.b - m.c)
    if max(abs(m.b), abs(1.0 - abs(m.a))) < miss and not tol.negligible(miss, max(1.0, abs(m.c))):
        return RootFamily(lower, c=m.c)
    return RootFamily(RootTag.GENERAL, a=m.a, b=m.b)


def householder_angle(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> float | None:
    if not is_involution(m, tol):
        return None
    if not m.is_symmetric(tol):
        return None
    if approx_eq(m, Mat2.identity(), tol) or approx_eq(m, -Mat2.identity(), tol):
        return None
    return math.atan2(m.b, m.a) % (2.0 * math.pi)


def decompose_general(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    if not is_involution(m, tol):
        raise NotAnInvolution(f"{m} does not square to I2")
    if b_negligible(m, m.b, tol):
        raise DegenerateAngle("sin(phi) ~ 0: decompose as a triangular case")
    rho = math.hypot(m.a, m.b)
    phi = math.atan2(m.b, m.a)
    kappa = m.c - rho * math.sin(phi)
    return Decomposition(
        (
            ElementaryTransform(TransformKind.MAGNIFY, Mat2.scalar(rho), param=rho),
            ElementaryTransform(TransformKind.REFLECT_X, Mat2(1.0, 0.0, 0.0, -1.0)),
            ElementaryTransform(
                TransformKind.ROTATE_CLOCKWISE,
                Mat2(math.cos(phi), math.sin(phi), -math.sin(phi), math.cos(phi)),
                param=phi,
            ),
        ),
        additive_part=ElementaryTransform(
            TransformKind.SHEAR_Y_ADD, Mat2(0.0, 0.0, float(kappa), 0.0),
            param=float(kappa), additive=True,
        ),
    )


def decompose_case(family: RootFamily) -> Decomposition:
    def factor(kind, matrix, param=None):
        return ElementaryTransform(kind, matrix, param=param)

    reflect_x = factor(TransformKind.REFLECT_X, Mat2(1.0, 0.0, 0.0, -1.0))
    reflect_y = factor(TransformKind.REFLECT_Y, Mat2(-1.0, 0.0, 0.0, 1.0))
    tag = family.tag
    if tag is RootTag.IDENTITY:
        return Decomposition((factor(TransformKind.MAGNIFY, Mat2.scalar(1.0), 1.0),))
    if tag is RootTag.NEG_IDENTITY:
        return Decomposition((factor(TransformKind.POINT_REFLECT_ORIGIN, -Mat2.identity()),))
    if tag in (RootTag.UPPER_B_PLUS_MINUS, RootTag.UPPER_B_MINUS_PLUS):
        shear = factor(TransformKind.SHEAR_X, Mat2(1.0, float(family.b), 0.0, 1.0),
                       float(family.b))
        if tag is RootTag.UPPER_B_PLUS_MINUS:
            return Decomposition((reflect_x, shear))
        return Decomposition((shear, reflect_y))
    shear = factor(TransformKind.SHEAR_Y, Mat2(1.0, 0.0, float(family.c), 1.0), float(family.c))
    if tag is RootTag.LOWER_C_PLUS_MINUS:
        return Decomposition((shear, reflect_x))
    return Decomposition((reflect_y, shear))


def decompose(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> Decomposition:
    family = classify_involution(m, tol)
    if family.tag is RootTag.GENERAL:
        return decompose_general(m, tol)
    return decompose_case(family)


def generator_directions(a: Mat2, x_seed: Mat2, tol: Tolerance = DEFAULT_TOL) -> GeneratorPair:
    if not in_locus(a, LocusParams(0.0, -1.0), tol):
        raise NotAnInvolution(f"{a} is not on S(0, -1)")
    eye = Mat2.identity()
    plus, minus = a + eye, a - eye
    u = plus @ x_seed @ minus
    v = minus @ x_seed @ plus
    u_norm, v_norm = u.max_norm(), v.max_norm()
    if min(u_norm, v_norm) <= _SQRT_EPS * plus.max_norm() * x_seed.max_norm() * minus.max_norm():
        raise DegenerateSeed("seed produced a near-zero direction; retry with another seed")
    return GeneratorPair((1.0 / u_norm) * u, (1.0 / v_norm) * v)


def count_real_roots(m: Mat2, tol: Tolerance = DEFAULT_TOL) -> RootCardinality:
    if matfun._is_scalar(m):
        return RootCardinality(Cardinality.INFINITE)
    size = m.max_norm()
    n = len(matfun._root_traces(*_pow2_scaled(m.entries(), (), size * size)[1:]))
    return RootCardinality(Cardinality.FINITE, n) if n else RootCardinality(Cardinality.ZERO)


def checked_fields(names: str, values: tuple) -> tuple[float, ...]:
    """The fields a value type validating each one with ``_finite`` stores."""
    return tuple(_finite(value, name) for name, value in zip(names, values))


class RootSearchGrid(_Value):
    """Start-point lattice for the brute-force root search.

    dedup_tol is deliberately coarse: near a zero eigenvalue the residual
    ||X^2 - A|| is quadratically flat, so converged iterates can sit up to
    sqrt(residual_tol) away from the true root.
    """

    __slots__ = ("points_per_axis", "lo", "hi", "residual_tol", "dedup_tol")

    def __init__(self, points_per_axis: int = 4, lo: float = -3.0, hi: float = 3.0,
                 residual_tol: float = 1e-9, dedup_tol: float = 1e-4):
        _setattr(self, "points_per_axis", points_per_axis)
        _setattr(self, "lo", lo)
        _setattr(self, "hi", hi)
        _setattr(self, "residual_tol", residual_tol)
        _setattr(self, "dedup_tol", dedup_tol)


def brute_force_roots(m: Mat2, grid: RootSearchGrid = RootSearchGrid()) -> list[Mat2]:
    """Independent enumeration oracle: multi-start solves of X^2 = m.

    Returns the de-duplicated solutions found from a deterministic lattice
    of starting points.  Exhaustive only in the finite-root cases; for
    matrices with infinitely many roots the count simply grows with the
    lattice density.  Needs SciPy (a test extra, not a runtime
    dependency), which it loads on first call.
    """
    import numpy as np
    from scipy import optimize

    target = m.to_array()

    def residual(v: np.ndarray) -> np.ndarray:
        x = v.reshape(2, 2)
        return (x @ x - target).ravel()

    axis = np.linspace(grid.lo, grid.hi, grid.points_per_axis)
    found: list[Mat2] = []
    for start in itertools.product(axis, repeat=4):
        sol = optimize.root(residual, np.array(start), method="hybr")
        x = sol.x.reshape(2, 2)
        if not np.isfinite(x).all():
            continue
        if np.abs(x @ x - target).max() > grid.residual_tol:
            continue
        candidate = Mat2.from_array(x)
        if all(candidate.max_diff(r) > grid.dedup_tol for r in found):
            found.append(candidate)
    return found


# -- the command line, as argparse declarations ---------------------------


def _add_matrix_flags(parser):
    parser.add_argument("--matrix", help="matrix as JSON {\"a\":..,\"b\":..,\"c\":..,\"d\":..}")
    parser.add_argument("--matrix-file", help="path to a matrix JSON file")


def _add_family_flags(parser):
    parser.add_argument("--a", type=float)
    parser.add_argument("--b", type=float)
    parser.add_argument("--c", type=float)
    parser.add_argument("--family",
                        choices=[t.value.replace("_", "-") for t in RootTag])


def _roots_flags(p):
    p.add_argument("--of", choices=["identity", "neg-identity"], default="identity")
    _add_family_flags(p)
    p.add_argument("--sample", type=int, help="emit this many sampled roots instead")
    p.add_argument("--range", type=float, default=10.0, help="sampling range for a, b")


def _classify_flags(p):
    _add_matrix_flags(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)


def _bell_flags(p):
    _add_matrix_flags(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, help="also report the quadric residual")
    p.add_argument("--x", type=float)
    p.add_argument("--y", type=float)
    p.add_argument("--z", type=float)


def _generators_flags(p):
    _add_matrix_flags(p)
    p.add_argument("--phi", type=float, help="use the principal-section point H(phi)")
    p.add_argument("--seed-matrix", help="seed matrix JSON (default [[1,0],[0,0]])")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--points", type=int, default=9, help="points per line in csv mode")
    p.add_argument("--t-max", type=float, default=2.0)


def _quat_flags(p):
    p.add_argument("--to-matrix", metavar="QUAT", help="quaternion JSON to map to a matrix")
    p.add_argument("--from-matrix", metavar="MATRIX", help="matrix JSON to map to a quaternion")
    p.add_argument("--matrix-file", help="path to a matrix JSON file (with --from-matrix semantics)")
    p.add_argument("--root", choices=["identity", "neg"], help="emit a parametrized root")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--decompose", action="store_true",
                   help="include the Householder + skew split of the root")


def _matfun_flags(p):
    _add_matrix_flags(p)
    p.add_argument("--function", choices=["sqrt", "square"], default="sqrt",
                   help="sqrt: the principal square root; square: the matrix squared")
    p.add_argument("--all-branches", action="store_true",
                   help="enumerate all branch square roots and the root count")


def _sample_flags(p):
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--nu", type=int, default=16, help="azimuth steps")
    p.add_argument("--nv", type=int, default=16, help="second-coordinate steps")
    p.add_argument("--span", type=float, default=2.0)
    p.add_argument("--format", choices=["json", "csv"], default="csv")


def _decompose_flags(p):
    _add_matrix_flags(p)
    _add_family_flags(p)


def _orbit_flags(p):
    _add_matrix_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--format", choices=["json", "csv"], default="csv")


#: Each subcommand once: name -> (help, function adding its flags, handler).
_REFERENCE_COMMANDS = {
    "roots": ("construct square roots of +-I2", _roots_flags, cli._cmd_roots),
    "classify": ("classify an involution or a locus S(alpha, beta)", _classify_flags,
                 cli._cmd_classify),
    "bell": ("convert between matrices and Bell coordinates", _bell_flags, cli._cmd_bell),
    "generators": ("ruling directions through a point of S(0,-1)", _generators_flags,
                   cli._cmd_generators),
    "quat": ("split-quaternion round trips and unit roots", _quat_flags, cli._cmd_quat),
    "matfun": ("matrix functions and square-root branches", _matfun_flags, cli._cmd_matfun),
    "sample": ("point cloud covering S(alpha, beta)", _sample_flags, cli._cmd_sample),
    "decompose": ("factor a root into elementary transformations", _decompose_flags,
                  cli._cmd_decompose),
    "orbit": ("trace a point under repeated application", _orbit_flags, cli._cmd_orbit),
}


def _command_flags(parser, name: str) -> None:
    """Give parser the flags and the handler of subcommand name."""
    _, flags, handler = _REFERENCE_COMMANDS[name]
    flags(parser)
    parser.add_argument("-o", "--output", help="write the document here instead of stdout")
    parser.add_argument("--seed", type=int, default=0, help="seed for any sampling")
    parser.set_defaults(func=handler)


def reference_parser(command: str | None = None):
    """The full ``invgeo`` parser, or with ``command`` that subcommand's own
    parser: the one the full tree hands the rest of the command line to."""
    if command is not None:
        parser = cli._parser_class()(prog=f"invgeo {command}")
        _command_flags(parser, command)
        return parser
    # --help shows the summary and the paragraph on exit codes and output;
    # the rest of the docstring is about the code
    description = "\n\n".join((cli.__doc__ or "").split("\n\n")[:2])
    parser = cli._parser_class()(prog="invgeo", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _REFERENCE_COMMANDS.items():
        _command_flags(sub.add_parser(name, help=help_text), name)
    return parser

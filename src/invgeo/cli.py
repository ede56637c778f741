"""Command-line front-end with stable JSON/CSV output.

Exit codes: 0 success, 1 domain error, 2 usage error.  Errors are emitted
to stderr as JSON documents {"error": <stable code>, "detail": <message>}.
Floats use Python's shortest round-trip repr, so identical invocations
produce byte-identical documents.  The INVGEO_TOL environment variable
overrides the default absolute tolerance.

JSON documents are written by a small recursive writer whose output is
still byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``: same
type dispatch (str, None, True, False, int, float, list/tuple, dict,
subclasses included), ``float.__repr__`` with NaN/Infinity/-Infinity,
ASCII-escaped strings, str keys only, TypeError on anything else.  It exists
because a non-None ``indent`` sends ``json.dumps`` to the stdlib's
pure-Python encoder.  Exact dicts, lists and tuples are dispatched first;
inside them, a scalar leaf (an exact finite float or an exact str) is written
in the container's loop, in one part with its separator, without a call.
CSV point rows are one join of seven ``float.__repr__`` values and the tag.

``run()`` builds the argument parser on its first call and reuses it, so
calling it repeatedly in one process costs only the parse and the work.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import householder, matfun, quadric, roots, splitquat, xform
from .errors import InvalidTolerance, InvGeoError
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, Vec2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as JSON usage errors on exit 2."""

    def error(self, message):
        _emit_error("usage", message)
        raise SystemExit(2)


def _emit_error(code: str, detail: str):
    print(json.dumps({"error": code, "detail": detail}, sort_keys=True), file=sys.stderr)


def _tolerance() -> Tolerance:
    env = os.environ.get("INVGEO_TOL")
    if env is None:
        return DEFAULT_TOL
    try:
        abs_tol = float(env)
    except ValueError as exc:
        raise UsageError(f"INVGEO_TOL is not a number: {env!r}") from exc
    try:
        return Tolerance(abs_tol=abs_tol, exact_tol=min(DEFAULT_TOL.exact_tol, abs_tol))
    except InvalidTolerance as exc:
        raise UsageError(f"INVGEO_TOL={env!r}: {exc}") from exc


def _parse_matrix(text: str | None, path: str | None, what: str = "matrix") -> Mat2:
    if (text is None) == (path is None):
        raise UsageError(f"provide exactly one of --{what} or --{what}-file")
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {path}: {exc}") from exc
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed {what} JSON: {exc}") from exc
    try:
        return Mat2.from_json_dict(obj)
    except (ValueError, InvGeoError) as exc:
        raise UsageError(str(exc)) from exc


def _parse_quat(text: str) -> splitquat.SplitQuat:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"malformed quaternion JSON: {exc}") from exc
    try:
        return splitquat.SplitQuat.from_json_dict(obj)
    except (ValueError, InvGeoError) as exc:
        raise UsageError(str(exc)) from exc


def _write(args, payload: str):
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


_encode_str = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _json_parts(obj, parts: list, indent: str) -> None:
    """Append the indent-2, sorted-key JSON of obj to parts.

    ``indent`` is the newline plus the indentation of the line obj starts on.
    """
    cls = type(obj)
    if cls is dict:
        _dict_parts(obj, parts, indent)
    elif cls is list or cls is tuple:
        _list_parts(obj, parts, indent)
    elif isinstance(obj, str):
        parts.append(_encode_str(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        if obj != obj:
            parts.append("NaN")
        elif obj == _INF:
            parts.append("Infinity")
        elif obj == -_INF:
            parts.append("-Infinity")
        else:
            parts.append(float.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        _list_parts(obj, parts, indent)
    elif isinstance(obj, dict):
        _dict_parts(obj, parts, indent)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# The two container writers emit a child that is an exact finite float or an
# exact str together with its separator, as one part; any other child recurses.


def _list_parts(obj, parts: list, indent: str) -> None:
    if not obj:
        parts.append("[]")
        return
    inner = indent + "  "
    head = "[" + inner
    for item in obj:
        cls = type(item)
        if cls is float and item - item == 0.0:
            parts.append(head + float.__repr__(item))
        elif cls is str:
            parts.append(head + _encode_str(item))
        else:
            parts.append(head)
            _json_parts(item, parts, inner)
        head = "," + inner
    parts.append(indent + "]")


def _dict_parts(obj, parts: list, indent: str) -> None:
    if not obj:
        parts.append("{}")
        return
    inner = indent + "  "
    sep = "{" + inner
    for key in sorted(obj):
        if type(key) is not str and not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        head = sep + _encode_str(key) + ": "
        value = obj[key]
        cls = type(value)
        if cls is float and value - value == 0.0:
            parts.append(head + float.__repr__(value))
        elif cls is str:
            parts.append(head + _encode_str(value))
        else:
            parts.append(head)
            _json_parts(value, parts, inner)
        sep = "," + inner
    parts.append(indent + "}")


def _json_document(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""
    parts: list[str] = []
    _json_parts(doc, parts, "\n")
    return "".join(parts)


def _emit_json(args, doc):
    _write(args, _json_document(doc) + "\n")


def _csv_row(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


def _emit_point_csv(args, rows):
    """One line per (bell, matrix, tag); every coordinate is a plain float
    by the BellPoint and Mat2 invariants, so it is written by float.__repr__."""
    lines = ["x,y,z,x1,x2,x3,x4,tag"]
    fmt = float.__repr__
    for bell, m, tag in rows:
        lines.append(",".join(map(fmt, (bell.x, bell.y, bell.z, m.a, m.b, m.c, m.d)))
                     + "," + tag)
    _write(args, "\n".join(lines) + "\n")


def _family(args) -> roots.RootFamily:
    """The root family named by --family with whichever of --a/--b/--c are set."""
    params = {k: v for k, v in (("a", args.a), ("b", args.b), ("c", args.c)) if v is not None}
    return roots.RootFamily(roots.RootTag(args.family.replace("-", "_")), **params)


# -- subcommands -----------------------------------------------------------


def _cmd_roots(args, tol: Tolerance) -> None:
    target = Mat2.identity() if args.of == "identity" else -Mat2.identity()
    if args.sample is not None:
        if args.of == "identity":
            mats = roots.sample_involutions(args.sample, seed=args.seed, param_range=args.range)
        else:
            mats = roots.sample_skew_involutions(args.sample, seed=args.seed, param_range=args.range)
        _emit_json(args, {
            "seed": args.seed,
            "samples": [
                {"matrix": m.to_json_dict(), "residual": (m @ m).max_diff(target)}
                for m in mats
            ],
        })
        return
    if args.family is not None:
        if args.of != "identity":
            raise UsageError("--family names a root of I2; it cannot be used with --of neg-identity")
        family = _family(args)
        matrix = roots.make_root(family)
    elif args.of == "identity":
        if args.a is None or args.b is None:
            raise UsageError("roots --of identity needs --a and --b (or --family/--sample)")
        matrix = roots.make_general_root(args.a, args.b, tol)
        family = roots.RootFamily(roots.RootTag.GENERAL, a=args.a, b=args.b)
    else:
        if args.a is None or args.b is None:
            raise UsageError("roots --of neg-identity needs --a and --b")
        matrix = roots.make_skew_root(args.a, args.b, tol)
        family = None
    doc = {
        "matrix": matrix.to_json_dict(),
        "residual": (matrix @ matrix).max_diff(target),
    }
    if family is not None:
        doc["family"] = family.to_json_dict()
    _emit_json(args, doc)


def _cmd_classify(args, tol: Tolerance) -> None:
    if args.matrix is not None or args.matrix_file is not None:
        matrix = _parse_matrix(args.matrix, args.matrix_file)
        family = roots.classify_involution(matrix, tol)
        _emit_json(args, family.to_json_dict())
        return
    if args.alpha is None or args.beta is None:
        raise UsageError("classify needs either --matrix or both --alpha and --beta")
    surface = quadric.classify_quadric(quadric.LocusParams(args.alpha, args.beta), tol)
    _emit_json(args, surface.to_json_dict())


def _cmd_bell(args, tol: Tolerance) -> None:
    if args.matrix is not None or args.matrix_file is not None:
        matrix = _parse_matrix(args.matrix, args.matrix_file)
        bell = quadric.to_bell(matrix, args.alpha, tol)
    else:
        if args.x is None or args.y is None or args.z is None:
            raise UsageError("bell needs --matrix or all of --x, --y, --z")
        bell = quadric.BellPoint(args.x, args.y, args.z, args.alpha)
        matrix = quadric.from_bell(bell)
    doc = {"bell": bell.to_json_dict(), "matrix": matrix.to_json_dict()}
    if args.beta is not None:
        doc["residual"] = quadric.quadric_residual(
            bell, quadric.LocusParams(args.alpha, args.beta), tol
        )
    _emit_json(args, doc)


def _cmd_generators(args, tol: Tolerance) -> None:
    if args.phi is not None:
        point = householder.householder_from_angle(args.phi)
    elif args.matrix is not None or args.matrix_file is not None:
        point = _parse_matrix(args.matrix, args.matrix_file)
    else:
        raise UsageError("generators needs --matrix or --phi")
    seed = (
        _parse_matrix(args.seed_matrix, None, what="seed-matrix")
        if args.seed_matrix is not None
        else Mat2(1.0, 0.0, 0.0, 0.0)
    )
    pair = quadric.generator_directions(point, seed, tol)
    u, v = pair.u, pair.v
    if args.format == "csv":
        ts = [args.t_max * (2.0 * i / (args.points - 1) - 1.0) if args.points > 1 else 0.0
              for i in range(args.points)]
        rows = []
        for direction in (u, v):
            for t in ts:
                m = quadric.generator_point(point, direction, t)
                rows.append((quadric.to_bell(m, 0.0, tol), m, "generator"))
        _emit_point_csv(args, rows)
        return
    eye = Mat2.identity()
    _emit_json(args, {
        "point": point.to_json_dict(),
        "u": u.to_json_dict(),
        "v": v.to_json_dict(),
        "residuals": {
            "au_minus_u": (point @ u).max_diff(u),
            "ua_plus_u": ((u @ point) + u).max_norm(),
            "u_squared": (u @ u).max_norm(),
            "av_plus_v": ((point @ v) + v).max_norm(),
            "va_minus_v": (v @ point).max_diff(v),
            "v_squared": (v @ v).max_norm(),
            "on_surface": (point @ point).max_diff(eye),
        },
    })


def _cmd_quat(args, tol: Tolerance) -> None:
    if args.root is not None:
        if args.root == "identity":
            q = splitquat.unit_root_identity(args.t, args.phi)
            target = splitquat.ONE
        else:
            q = splitquat.unit_root_neg(args.t, args.phi, tol)
            target = -splitquat.ONE
        matrix = splitquat.to_matrix(q)
        doc = {
            "quaternion": q.to_json_dict(),
            "matrix": matrix.to_json_dict(),
            "residual": (q * q).max_diff(target),
        }
        if args.decompose:
            coef_h, h, coef_j, j = splitquat.decompose_root(args.t, args.phi, args.root, tol)
            doc["decomposition"] = {
                "coef_h": coef_h,
                "householder": h.to_json_dict(),
                "coef_j": coef_j,
                "skew": j.to_json_dict(),
            }
        _emit_json(args, doc)
        return
    if args.to_matrix is not None:
        q = _parse_quat(args.to_matrix)
    elif args.from_matrix is not None or args.matrix_file is not None:
        q = splitquat.from_matrix(_parse_matrix(args.from_matrix, args.matrix_file))
    else:
        raise UsageError("quat needs one of --root, --to-matrix, --from-matrix")
    _emit_json(args, {
        "quaternion": q.to_json_dict(),
        "matrix": splitquat.to_matrix(q).to_json_dict(),
        "modulus": q.modulus(),
        "class": splitquat.sq_classify(q, tol).value,
    })


def _cmd_matfun(args, tol: Tolerance) -> None:
    matrix = _parse_matrix(args.matrix, args.matrix_file)
    if args.all_branches:
        branches = matfun.sqrt_branches(matrix, tol)
        _emit_json(args, {
            "roots": [r.to_json_dict() for r in branches],
            "count": matfun.count_real_roots(matrix, tol).to_json_dict(),
        })
        return
    if args.function == "sqrt":
        result = matfun.principal_sqrt(matrix, tol)
    else:
        result = matfun.matrix_function(matrix, matfun.SQUARE, tol)
    _emit_json(args, {"function": args.function, "result": result.to_json_dict()})


def _cmd_sample(args, tol: Tolerance) -> None:
    points = quadric.sample_surface(
        quadric.LocusParams(args.alpha, args.beta), args.nu, args.nv,
        span=args.span, tol=tol,
    )
    if args.format == "csv":
        _emit_point_csv(args, [(p.bell, p.matrix, p.tag) for p in points])
        return
    _emit_json(args, [
        {"bell": p.bell.to_json_dict(), "matrix": p.matrix.to_json_dict(), "tag": p.tag}
        for p in points
    ])


def _cmd_decompose(args, tol: Tolerance) -> None:
    if args.family is not None:
        family = _family(args)
        decomposition = xform.decompose_case(family)
        matrix = roots.make_root(family)
    else:
        matrix = _parse_matrix(args.matrix, args.matrix_file)
        decomposition = xform.decompose(matrix, tol)
    recomposed = decomposition.recompose()
    doc = decomposition.to_json_dict()
    doc["recomposed"] = recomposed.to_json_dict()
    doc["residual"] = recomposed.max_diff(matrix)
    _emit_json(args, doc)


def _cmd_orbit(args, tol: Tolerance) -> None:
    matrix = _parse_matrix(args.matrix, args.matrix_file)
    points = xform.orbit(matrix, Vec2(args.x, args.y), args.steps)
    if args.format == "csv":
        lines = ["step,x,y"]
        lines += [_csv_row([i, p.x, p.y]) for i, p in enumerate(points)]
        _write(args, "\n".join(lines) + "\n")
        return
    _emit_json(args, [{"step": i, "x": p.x, "y": p.y} for i, p in enumerate(points)])


def _add_matrix_flags(parser):
    parser.add_argument("--matrix", help="matrix as JSON {\"a\":..,\"b\":..,\"c\":..,\"d\":..}")
    parser.add_argument("--matrix-file", help="path to a matrix JSON file")


def _add_family_flags(parser):
    parser.add_argument("--a", type=float)
    parser.add_argument("--b", type=float)
    parser.add_argument("--c", type=float)
    parser.add_argument("--family", choices=[t.value.replace("_", "-") for t in roots.RootTag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="invgeo", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("roots", parents=[], help="construct square roots of +-I2")
    p.add_argument("--of", choices=["identity", "neg-identity"], default="identity")
    _add_family_flags(p)
    p.add_argument("--sample", type=int, help="emit this many sampled roots instead")
    p.add_argument("--range", type=float, default=10.0, help="sampling range for a, b")
    p.set_defaults(func=_cmd_roots)

    p = sub.add_parser("classify", help="classify an involution or a locus S(alpha, beta)")
    _add_matrix_flags(p)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("bell", help="convert between matrices and Bell coordinates")
    _add_matrix_flags(p)
    p.add_argument("--alpha", type=float, default=0.0)
    p.add_argument("--beta", type=float, help="also report the quadric residual")
    p.add_argument("--x", type=float)
    p.add_argument("--y", type=float)
    p.add_argument("--z", type=float)
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("generators", help="ruling directions through a point of S(0,-1)")
    _add_matrix_flags(p)
    p.add_argument("--phi", type=float, help="use the principal-section point H(phi)")
    p.add_argument("--seed-matrix", help="seed matrix JSON (default [[1,0],[0,0]])")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--points", type=int, default=9, help="points per line in csv mode")
    p.add_argument("--t-max", type=float, default=2.0)
    p.set_defaults(func=_cmd_generators)

    p = sub.add_parser("quat", help="split-quaternion round trips and unit roots")
    p.add_argument("--to-matrix", metavar="QUAT", help="quaternion JSON to map to a matrix")
    p.add_argument("--from-matrix", metavar="MATRIX", help="matrix JSON to map to a quaternion")
    p.add_argument("--matrix-file", help="path to a matrix JSON file (with --from-matrix semantics)")
    p.add_argument("--root", choices=["identity", "neg"], help="emit a parametrized root")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--decompose", action="store_true",
                   help="include the Householder + skew split of the root")
    p.set_defaults(func=_cmd_quat)

    p = sub.add_parser("matfun", help="matrix functions and square-root branches")
    _add_matrix_flags(p)
    p.add_argument("--function", choices=["sqrt", "square"], default="sqrt",
                   help="sqrt: the principal square root; square: the matrix squared")
    p.add_argument("--all-branches", action="store_true",
                   help="enumerate all branch square roots and the root count")
    p.set_defaults(func=_cmd_matfun)

    p = sub.add_parser("sample", help="point cloud covering S(alpha, beta)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--nu", type=int, default=16, help="azimuth steps")
    p.add_argument("--nv", type=int, default=16, help="second-coordinate steps")
    p.add_argument("--span", type=float, default=2.0)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("decompose", help="factor a root into elementary transformations")
    _add_matrix_flags(p)
    _add_family_flags(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("orbit", help="trace a point under repeated application")
    _add_matrix_flags(p)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--steps", type=int, default=2)
    p.add_argument("--format", choices=["json", "csv"], default="csv")
    p.set_defaults(func=_cmd_orbit)

    for sp in sub.choices.values():
        sp.add_argument("-o", "--output", help="write the document here instead of stdout")
        sp.add_argument("--seed", type=int, default=0, help="seed for any sampling")
    return parser


_parser: argparse.ArgumentParser | None = None


def run(argv: list[str] | None = None) -> int:
    global _parser
    if _parser is None:  # built on first use, not at import: cold starts stay cheap
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        tol = _tolerance()
        args.func(args, tol)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return 2
    except InvGeoError as exc:
        _emit_error(exc.code, str(exc))
        return 1
    except (OverflowError, ValueError, ZeroDivisionError) as exc:
        _emit_error("numeric_error", str(exc))
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()

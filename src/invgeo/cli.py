"""Command-line front-end with stable JSON/CSV output.

Exit codes: 0 success, 1 domain error, 2 usage error.  Errors are emitted
to stderr as JSON documents {"error": <stable code>, "detail": <message>}.
Floats use Python's shortest round-trip repr, so identical invocations
produce byte-identical documents.  The INVGEO_TOL environment variable
overrides the default residual threshold (abs_tol).

JSON documents are written by a small recursive writer whose output is
still byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``: same
type dispatch (str, None, True, False, int, float, list/tuple, dict,
subclasses included), ``float.__repr__`` with NaN/Infinity/-Infinity,
ASCII-escaped strings, str keys only, TypeError on anything else.  It exists
because a non-None ``indent`` sends ``json.dumps`` to the stdlib's
pure-Python encoder.  Exact dicts, lists and tuples are dispatched first;
inside them, a scalar leaf (an exact finite float or an exact str) is written
in the container's loop, in one part with its separator, without a call.
A memo is passed down the writer: the sorted key heads of every dict shape,
keyed by the indent and the keys in insertion order, so a shape is sorted,
checked and encoded once.  ``_json_document`` passes one memo kept for the
process, so the few shapes of the documents are encoded once per process.

Point clouds (``sample``, ``generators --format csv`` and ``roots
--sample``) are written from rows of finite floats, not dicts:
``quadric.surface_rows`` hands over the sample grid as rows, and the other
two commands make one row per point.  Each row is written by one
``%``-template per document, the JSON record or the CSV line with ``%r``
(``float.__repr__``) in each float's place and any value constant over the
document already in the text, and the document is joined once.  The output
is the same, byte for byte, as the generic writer's for the dict document,
which the tests check against ``json.dumps``.

Each subcommand is described once, in ``_COMMANDS``: its help line, the
function that adds its flags, and its handler.  A command line that starts
with a subcommand's name goes to that subcommand alone, which is what the
full ``invgeo`` parser would hand the rest of the line to.  ``run()`` first
reads it with a flag table derived from that subcommand's parser: its exact
option strings, with each action's type, choices, default and whether it is
required.  A line of exact flags only, each ``--flag value`` (a value that
argparse would not take for an option), ``--flag=value`` or a store_true
flag, is read from the table, and makes the namespace that argparse would
make.  Any other line goes to the subcommand's parser unchanged, so an
abbreviation, ``-h``, ``--``, a missing or bad value and a missing required
flag keep argparse's help, usage error and exit code.  Each parser and its
table are built on first use and kept for the process, so a one-shot call
builds one subparser instead of nine, and repeated calls in one process cost
only the read and the work.  Any other command line goes to the full parser,
built from the same ``_COMMANDS``, for its help or its usage error.

Importing this module loads only ``mat2`` and ``errors`` of the package.
Each subcommand imports the kernel modules it uses when it runs, so
``invgeo classify --alpha 0 --beta -1`` loads neither ``matfun`` nor
``roots``; a subcommand with ``--family`` loads ``roots`` as its parser is
built, for the list of families.  The kernel
modules are also attributes of this module (``cli.matfun`` imports
``invgeo.matfun`` on first access), and a subcommand uses whatever that
attribute is bound to, so a caller may rebind it, for instance to trace calls.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from importlib import import_module

from .errors import InvalidCount, InvalidTolerance, InvGeoError
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, Vec2

_KERNELS = ("householder", "matfun", "quadric", "roots", "splitquat", "xform")


def _kernel(name: str):
    """The kernel module bound to ``cli.<name>``, imported on first use."""
    module = globals().get(name)
    if module is None:
        module = globals()[name] = import_module(f".{name}", __package__)
    return module


def __getattr__(name: str):
    # PEP 562: ``cli.matfun`` and the like resolve through _kernel
    if name in _KERNELS:
        return _kernel(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: argparse's ``^-\d+$|^-\d*\.\d+$`` with an optional exponent; compiled
#: when a parser is built, so that importing this module does not pay for it
_NEGATIVE_NUMBER = r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad flags as JSON usage errors on exit 2.

    A value such as ``-1e-3`` or ``-2.5E+10`` is a negative number, not an
    option: argparse's own pattern (Python 3.10 to 3.13) has no exponent.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(_NEGATIVE_NUMBER)

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
    return _read_json(text, what, Mat2.from_json_dict)


def _read_json(text: str, what: str, from_json_dict):
    """from_json_dict of the JSON text; malformed JSON (an integer literal
    longer than the int-string limit included) or a bad value is a usage
    error."""
    try:
        obj = json.loads(text)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise UsageError(f"malformed {what} JSON: {exc}") from exc
    try:
        return from_json_dict(obj)
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

# A memo maps a dict shape (indent, *keys) to _dict_heads of it.  Documents
# share _KEY_HEADS: the shapes are those of the code's own documents, few and
# the same on every call.
_KEY_HEADS: dict = {}


def _json_parts(obj, parts: list, memo: dict, indent: str) -> None:
    """Append the indent-2, sorted-key JSON of obj to parts.

    ``indent`` is the newline plus the indentation of the line obj starts on.
    """
    cls = type(obj)
    if cls is dict:
        _dict_parts(obj, parts, memo, indent)
    elif cls is list or cls is tuple:
        _list_parts(obj, parts, memo, indent)
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
        _list_parts(obj, parts, memo, indent)
    elif isinstance(obj, dict):
        _dict_parts(obj, parts, memo, indent)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


# The two container writers emit a child that is an exact finite float or an
# exact str together with its separator, as one part; an exact dict child goes
# straight to _dict_parts, and any other child through _json_parts.


def _list_parts(obj, parts: list, memo: dict, indent: str) -> None:
    if not obj:
        parts.append("[]")
        return
    inner = indent + "  "
    sep = "," + inner
    head = "[" + inner
    for item in obj:
        cls = type(item)
        if cls is float and item - item == 0.0:
            parts.append(head + float.__repr__(item))
        elif cls is str:
            parts.append(head + _encode_str(item))
        elif cls is dict:
            parts.append(head)
            _dict_parts(item, parts, memo, inner)
        else:
            parts.append(head)
            _json_parts(item, parts, memo, inner)
        head = sep
    parts.append(indent + "]")


def _dict_heads(obj, indent: str) -> tuple:
    """(pairs, inner, close) for a dict shape: the (key, head) pairs in sorted
    order, each head the separator, indentation and encoded key, then the
    inner indent and the closing part.  Checks that every key is a str."""
    inner = indent + "  "
    pairs = []
    sep = "{" + inner
    for key in sorted(obj):
        if type(key) is not str and not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        pairs.append((key, sep + _encode_str(key) + ": "))
        sep = "," + inner
    return pairs, inner, indent + "}"


def _dict_parts(obj, parts: list, memo: dict, indent: str) -> None:
    if not obj:
        parts.append("{}")
        return
    shape = (indent, *obj)
    entry = memo.get(shape)
    if entry is None:
        entry = memo[shape] = _dict_heads(obj, indent)
    pairs, inner, close = entry
    for key, head in pairs:
        value = obj[key]
        cls = type(value)
        if cls is float and value - value == 0.0:
            parts.append(head + float.__repr__(value))
        elif cls is str:
            parts.append(head + _encode_str(value))
        elif cls is dict:
            parts.append(head)
            _dict_parts(value, parts, memo, inner)
        else:
            parts.append(head)
            _json_parts(value, parts, memo, inner)
    parts.append(close)


def _json_document(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte."""
    parts: list[str] = []
    _json_parts(doc, parts, _KEY_HEADS, "\n")
    return "".join(parts)


def _emit_json(args, doc):
    _write(args, _json_document(doc) + "\n")


def _csv_row(values) -> str:
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in values)


#: One CSV line of a point cloud, from a row (x, y, z, a, b, c, d, tag).
_POINT_CSV_LINE = "%r,%r,%r,%r,%r,%r,%r,%s\n"


def _emit_point_csv(args, rows):
    """One line per row (x, y, z, a, b, c, d, tag) of finite floats and a tag."""
    lines = ["x,y,z,x1,x2,x3,x4,tag\n"]
    lines += map(_POINT_CSV_LINE.__mod__, rows)
    _write(args, "".join(lines))


def _json_records(head: str, record: dict, rows, indent: str, tail: str) -> str:
    """head, the JSON list of one record per row, and tail, joined once.

    record is the shape of every item.  Each str value "%r" in it stands for
    a float of the row, in sorted-key order, depth first, and is filled in by
    %r, that is by float.__repr__, as the JSON writer would write it; every
    row value must be finite, since %r writes no NaN or Infinity.  Any other
    value is written as the JSON writer writes it, so "%s" stays quoted and
    takes a row's plain-ASCII tag; no other text of record may hold a "%".
    indent is the newline and indentation of the line the list starts on.
    """
    if not rows:
        return head + "[]" + tail
    inner = indent + "  "
    parts = [inner]
    _dict_parts(record, parts, {}, inner)
    template = "".join(parts).replace('"%r"', "%r") + ","
    parts = [head + "["]
    parts += map(template.__mod__, rows)
    parts[-1] = parts[-1][:-1] + indent + "]" + tail  # no comma after the last item
    return "".join(parts)


def _family(args):
    """The root family named by --family with whichever of --a/--b/--c are set."""
    roots = _kernel("roots")
    params = {k: v for k, v in (("a", args.a), ("b", args.b), ("c", args.c)) if v is not None}
    return roots.RootFamily(roots.RootTag(args.family.replace("-", "_")), **params)


def _finite(value: float, what: str) -> float:
    """value, or OverflowError (numeric_error) where it left the float range."""
    if value - value != 0.0:
        raise OverflowError(f"{what} is beyond the float range")
    return value


# -- subcommands -----------------------------------------------------------


def _cmd_roots(args, tol: Tolerance) -> None:
    roots = _kernel("roots")
    # a helper, not a kernel call: taken from the module itself, not from the
    # cli.roots binding that a caller may have swapped for a traced proxy
    from .roots import _root_residual

    sign = 1.0 if args.of == "identity" else -1.0
    if args.sample is not None:
        if args.of == "identity":
            mats = roots.sample_involutions(args.sample, seed=args.seed, param_range=args.range)
        else:
            mats = roots.sample_skew_involutions(args.sample, seed=args.seed, param_range=args.range)
        rows = [(m.a, m.b, m.c, m.d, _root_residual(m, sign)) for m in mats]
        record = {"matrix": dict.fromkeys("abcd", "%r"), "residual": "%r"}
        _write(args, _json_records('{\n  "samples": ', record, rows, "\n  ",
                                   ',\n  "seed": ' + int.__repr__(args.seed) + "\n}\n"))
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
        "residual": _root_residual(matrix, sign),
    }
    if family is not None:
        doc["family"] = family.to_json_dict()
    _emit_json(args, doc)


def _cmd_classify(args, tol: Tolerance) -> None:
    if args.matrix is not None or args.matrix_file is not None:
        matrix = _parse_matrix(args.matrix, args.matrix_file)
        family = _kernel("roots").classify_involution(matrix, tol)
        _emit_json(args, family.to_json_dict())
        return
    if args.alpha is None or args.beta is None:
        raise UsageError("classify needs either --matrix or both --alpha and --beta")
    quadric = _kernel("quadric")
    surface = quadric.classify_quadric(quadric.LocusParams(args.alpha, args.beta), tol)
    _finite(surface.radius_sq, "radius_sq = alpha^2/2 - 2 beta")
    if surface.radius_sq == 0.0 and surface.tag is not quadric.SurfaceTag.RIGHT_CIRCULAR_CONE:
        # a one- or two-sheet radius that underflowed would read as the cone's
        raise ValueError("radius_sq = alpha^2/2 - 2 beta is below the float range")
    _emit_json(args, surface.to_json_dict())


def _cmd_bell(args, tol: Tolerance) -> None:
    quadric = _kernel("quadric")
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
        doc["residual"] = _finite(quadric.quadric_residual(
            bell, quadric.LocusParams(args.alpha, args.beta), tol
        ), "the quadric residual")
    _emit_json(args, doc)


def _cmd_generators(args, tol: Tolerance) -> None:
    quadric = _kernel("quadric")
    if args.phi is not None:
        point = _kernel("householder").householder_from_angle(args.phi)
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
        if args.points < 1:
            raise InvalidCount(f"need points >= 1, got {args.points}")
        ts = [args.t_max * (2.0 * i / (args.points - 1) - 1.0) if args.points > 1 else 0.0
              for i in range(args.points)]
        rows = []
        for direction in (u, v):
            for t in ts:
                m = quadric.generator_point(point, direction, t)
                bell = quadric.to_bell(m, 0.0, tol)
                rows.append((bell.x, bell.y, bell.z, m.a, m.b, m.c, m.d, "generator"))
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
    splitquat = _kernel("splitquat")
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
        q = _read_json(args.to_matrix, "quaternion", splitquat.SplitQuat.from_json_dict)
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
    matfun = _kernel("matfun")
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
        result = matrix @ matrix
    _emit_json(args, {"function": args.function, "result": result.to_json_dict()})


def _cmd_sample(args, tol: Tolerance) -> None:
    quadric = _kernel("quadric")
    params = quadric.LocusParams(args.alpha, args.beta)
    rows = quadric.surface_rows(params, args.nu, args.nv, span=args.span, tol=tol)
    if args.format == "csv":
        _emit_point_csv(args, rows)
        return
    record = {"bell": {"alpha": params.alpha, **dict.fromkeys("xyz", "%r")},
              "matrix": dict.fromkeys("abcd", "%r"), "tag": "%s"}
    _write(args, _json_records("", record, rows, "\n", "\n"))


def _cmd_decompose(args, tol: Tolerance) -> None:
    xform = _kernel("xform")
    if args.family is not None:
        roots = _kernel("roots")
        family = _family(args)
        matrix = roots.make_root(family)
        if family.tag is roots.RootTag.GENERAL:  # as decompose --matrix does
            decomposition = xform.decompose(matrix, tol)
        else:
            decomposition = xform.decompose_case(family)
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
    points = _kernel("xform").orbit(matrix, Vec2(args.x, args.y), args.steps)
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
    parser.add_argument("--family",
                        choices=[t.value.replace("_", "-") for t in _kernel("roots").RootTag])


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
_COMMANDS = {
    "roots": ("construct square roots of +-I2", _roots_flags, _cmd_roots),
    "classify": ("classify an involution or a locus S(alpha, beta)", _classify_flags,
                 _cmd_classify),
    "bell": ("convert between matrices and Bell coordinates", _bell_flags, _cmd_bell),
    "generators": ("ruling directions through a point of S(0,-1)", _generators_flags,
                   _cmd_generators),
    "quat": ("split-quaternion round trips and unit roots", _quat_flags, _cmd_quat),
    "matfun": ("matrix functions and square-root branches", _matfun_flags, _cmd_matfun),
    "sample": ("point cloud covering S(alpha, beta)", _sample_flags, _cmd_sample),
    "decompose": ("factor a root into elementary transformations", _decompose_flags,
                  _cmd_decompose),
    "orbit": ("trace a point under repeated application", _orbit_flags, _cmd_orbit),
}


def _command_flags(parser, name: str) -> None:
    """Give parser the flags and the handler of subcommand name."""
    _, flags, handler = _COMMANDS[name]
    flags(parser)
    parser.add_argument("-o", "--output", help="write the document here instead of stdout")
    parser.add_argument("--seed", type=int, default=0, help="seed for any sampling")
    parser.set_defaults(func=handler)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The full ``invgeo`` parser, or with ``command`` that subcommand's own
    parser: the one the full tree hands the rest of the command line to."""
    if command is not None:
        parser = _Parser(prog=f"invgeo {command}")
        _command_flags(parser, command)
        return parser
    # --help shows the summary and the paragraph on exit codes and output;
    # the rest of the docstring is about the code
    description = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    parser = _Parser(prog="invgeo", description=description)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, _) in _COMMANDS.items():
        _command_flags(sub.add_parser(name, help=help_text), name)
    return parser


#: Per subcommand name, its parser and the flag table read off it; None keys
#: the full tree, which has no table.
_parsers: dict[str | None, tuple[argparse.ArgumentParser, tuple | None]] = {}


def _flag_table(parser) -> tuple:
    """(flags, defaults, required, number) of a subcommand's parser.

    ``flags`` maps each option string of a plain store or store_true action to
    (action, convert), convert being the action's type as argparse resolves it,
    or None for a store_true flag.  ``defaults`` is what argparse starts the
    namespace from: the action defaults, then the parser's ``set_defaults``.
    ``required`` holds the actions a line must name.  ``number`` matches a
    value starting with "-" that argparse reads as a negative number rather
    than as an option: its own pattern, unless an option string starts like a
    number, when it is None.
    """
    flags = {}
    defaults = {}
    for action in parser._actions:
        if action.dest is not argparse.SUPPRESS and action.default is not argparse.SUPPRESS:
            defaults[action.dest] = action.default
        if type(action) is argparse._StoreTrueAction:
            convert = None
        elif type(action) is argparse._StoreAction and action.nargs is None:
            convert = parser._registry_get("type", action.type, action.type)
        else:
            continue
        for option in action.option_strings:
            flags[option] = action, convert
    defaults.update(parser._defaults)
    required = frozenset(a for a in parser._actions if a.required)
    number = parser._negative_number_matcher.match
    if any(s[1:2].isdigit() or s[1:2] == "." for s in parser._option_string_actions):
        number = None
    return flags, defaults, required, number


def _read_flags(table: tuple, line: list[str]) -> argparse.Namespace | None:
    """The namespace the subcommand's parser builds from line, or None where
    line needs more of argparse than exact flags and plain values.

    Each token is an exact option string then its value, ``--option=value``,
    or an exact store_true flag.  A value goes through the action's type and
    then its choices.  None, with nothing printed, for anything else: an
    abbreviation, ``-h``, ``--``, a missing value, a bad value, a missing
    required flag.
    """
    flags, defaults, required, number = table
    values = defaults.copy()
    seen = set()
    tokens = iter(line)
    for token in tokens:
        entry = flags.get(token)
        if entry is not None:
            action, convert = entry
            if convert is None:
                values[action.dest] = action.const
                seen.add(action)
                continue
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and (number is None or not number(value))):
                return None
        else:
            option, eq, value = token.partition("=")
            entry = flags.get(option)
            if not eq or entry is None or entry[1] is None or option[:2] != "--":
                return None
            action, convert = entry
        try:
            value = convert(value)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
        seen.add(action)
    if not required <= seen:
        return None
    args = argparse.Namespace()
    vars(args).update(values)
    return args


def _parse(argv: list[str]) -> argparse.Namespace:
    """The namespace the full ``invgeo`` parser would build for argv.

    A command line that starts with a subcommand's name is read with that
    subcommand's flag table, or failing that parsed by its parser alone, as
    the full tree would hand it over; any other goes to the full tree, for its
    help or its usage error.
    """
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    entry = _parsers.get(command)
    if entry is None:  # built on first use, not at import: cold starts stay cheap
        parser = build_parser(command)
        entry = _parsers[command] = parser, None if command is None else _flag_table(parser)
    parser, table = entry
    if table is None:
        return parser.parse_args(argv)
    line = argv[1:]
    args = _read_flags(table, line)
    return parser.parse_args(line) if args is None else args


def run(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(argv)
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

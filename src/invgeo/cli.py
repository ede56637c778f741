"""Command-line front-end with stable JSON/CSV output.

Exit codes: 0 success, 1 domain error, 2 usage error.  Errors are emitted
to stderr as JSON documents {"error": <stable code>, "detail": <message>}.
Floats use Python's shortest round-trip repr, so identical invocations
produce byte-identical documents.  The INVGEO_TOL environment variable
overrides the default residual threshold (abs_tol).

JSON documents are written by one small recursive writer, ``_json_parts``.
It takes only what the subcommands build: exact dicts with str keys, lists,
strs, bools, ints and finite floats.  Any other type is a TypeError.  Strict
JSON (RFC 8259) has no NaN or Infinity, so a float that is not finite is an
OverflowError, named by its key, which ``run()`` reports as numeric_error:
the writer is the one finiteness gate of every document.  On what it takes,
its output is byte-identical to ``json.dumps(doc, indent=2, sort_keys=True,
allow_nan=False)``, which a non-None ``indent`` sends to the stdlib's
pure-Python encoder.  A finite float or a str that is a dict value is
written in the dict's loop, in one part with its key, without a call.  The
sorted, encoded key heads of each dict shape are kept in ``_KEY_HEADS`` for
the process, so each of the documents' few shapes is sorted, checked and
encoded once.

Point clouds (``sample``, ``generators --format csv`` and ``roots
--sample``) and ``orbit --format csv`` are written from rows of finite
floats, not dicts.  ``quadric.surface_rows`` hands over the sample grid as
rows, ``quadric.ruling_rows`` the points of the two rulings, and
``roots._sample`` the sampled roots; ``orbit`` makes one row per point.  A
sampled root R = [[a, b], [c, -a]] of s * I2 has R^2 = (a*a + b*c) * I2,
its off-diagonal products cancelling exactly, so its residual is written as
|a*a + b*c - s|; ``_square_residual`` is called only where a product is not
finite, to raise its error.  Each row is written by one ``%``-template per
document, the JSON record or the CSV line with ``%r`` (``float.__repr__``)
in each float's place and any value constant over the document already in
the text, and the document is joined once.  The output is the same, byte
for byte, as ``_json_parts``'s for the dict document, which the tests check
against ``json.dumps``.

Each subcommand is described once, in ``_COMMANDS``: its help line, its
handler, and its flags as data, each flag the option strings and the keyword
arguments ``add_argument`` takes for it.  ``run()`` first reads a command
line that starts with a subcommand's name from that data, without argparse:
a line of exact flags only, each ``--flag value``, ``--flag=value`` or a
store_true flag, with every value of the flag's type and among its choices
and every required flag given, makes the namespace that argparse would make.
A value may start with "-" only as a negative number, exponent included, as
argparse reads it.  Any other line goes to the one argparse tree built from
the same data, ``build_parser()``, so an abbreviation, ``-h``, ``--``, a
missing or bad value, a missing required flag and an unknown subcommand keep
argparse's help, usage error and exit code.  Only that path imports
argparse; the tree is built on the first line the reader declines and kept
for the process.  Its parsers are ``_Parser``: argparse with JSON usage
errors and one override of a private name, its negative-number pattern.
argparse's own pattern has no exponent, so without the override ``--beta
-1e-3`` would be a number to the reader and an option to the fallback.

Importing this module loads only ``mat2`` and ``errors`` of the package.
Each subcommand imports the kernel modules it uses when it runs, so
``invgeo classify --alpha 0 --beta -1`` loads neither ``matfun`` nor
``roots``.  The kernel modules are also attributes of this module
(``cli.matfun`` imports ``invgeo.matfun`` on first access), and a subcommand
uses whatever that attribute is bound to, so a caller may rebind it, for
instance to trace calls.  A line that succeeds without reading a JSON
argument imports neither ``json`` nor ``typing``: the writer takes its
string encoder from the C module ``_json``, and ``json`` itself is imported
only where a JSON argument is read or an error document written.

``main()``, the console entry point, calls ``gc.freeze()`` once before
``run()``.  What start-up and the imports so far allocated then sits in the
collector's permanent generation, which no collection walks: none during
the call, and not the last ones at interpreter exit, which would otherwise
spend a few ms of a one-shot call freeing the start-up's cycles.  The
freeze is in ``main()`` alone, never in ``run()`` or at import: ``run()`` is
also called in long-lived processes (tests, benchmarks, library callers),
whose heap a freeze would keep from the collector for good.
"""

from __future__ import annotations

import gc
import os
import re
import sys
from functools import cache
from importlib import import_module
from types import SimpleNamespace

from .errors import InvalidCount, InvalidTolerance, InvGeoError
from .mat2 import DEFAULT_TOL, Mat2, Tolerance, Vec2, _square_residual

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
#: on first use, so that importing this module does not pay for it
_NEGATIVE_NUMBER = r"^-(\d+|\d*\.\d+)([eE][-+]?\d+)?$"


class UsageError(Exception):
    pass


def _emit_error(code: str, detail: str):
    import json

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
    import json

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


# json.encoder re-exports this C function; taken from _json, it keeps json
# itself out of a call that reads no JSON argument
try:
    from _json import encode_basestring_ascii as _encode_str
except ImportError:  # an interpreter without the C accelerator
    from json.encoder import encode_basestring_ascii as _encode_str

# Per dict shape (indent, *keys): the (key, head) pairs in sorted order, each
# head the separator, indentation and encoded key, then the inner indent and
# the closing part.  The shapes are those of the code's own documents, few and
# the same on every call, so one memo serves the process.
_KEY_HEADS: dict = {}


def _json_parts(obj, parts: list, indent: str) -> None:
    """Append the strict indent-2, sorted-key JSON of obj to parts.

    obj is an exact dict with str keys, list, str, bool, int or finite float,
    all the way down.  Any other type is a TypeError.  A float that is not
    finite is an OverflowError, named by its key where it is a dict value.
    ``indent`` is the newline plus the indentation of the line obj starts on.
    """
    cls = type(obj)
    if cls is dict:
        if not obj:
            parts.append("{}")
            return
        shape = (indent, *obj)
        heads = _KEY_HEADS.get(shape)
        if heads is None:
            if not all(isinstance(key, str) for key in obj):
                raise TypeError("keys must be str")
            inner = indent + "  "
            heads = _KEY_HEADS[shape] = (
                [(key, ("," if i else "{") + inner + _encode_str(key) + ": ")
                 for i, key in enumerate(sorted(obj))],
                inner, indent + "}")
        pairs, inner, close = heads
        for key, head in pairs:
            value = obj[key]
            cls = type(value)
            # a finite float or a str leaf is written here, without a call
            if cls is float and value - value == 0.0:
                parts.append(head + float.__repr__(value))
            elif cls is str:
                parts.append(head + _encode_str(value))
            elif cls is float:
                raise OverflowError(f"{key} is beyond the float range")
            else:
                parts.append(head)
                _json_parts(value, parts, inner)
        parts.append(close)
    elif cls is list:
        if not obj:
            parts.append("[]")
            return
        inner = indent + "  "
        head = "[" + inner
        for item in obj:
            parts.append(head)
            _json_parts(item, parts, inner)
            head = "," + inner
        parts.append(indent + "]")
    elif cls is str:
        parts.append(_encode_str(obj))
    elif cls is float:
        if obj - obj != 0.0:
            raise OverflowError("a value is beyond the float range")
        parts.append(float.__repr__(obj))
    elif cls is bool:
        parts.append("true" if obj else "false")
    elif cls is int:
        parts.append(int.__repr__(obj))
    else:
        raise TypeError(f"Object of type {cls.__name__} is not JSON serializable")


def _json_document(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)``, byte
    for byte, on the documents ``_json_parts`` takes."""
    parts: list[str] = []
    _json_parts(doc, parts, "\n")
    return "".join(parts)


def _emit_json(args, doc):
    _write(args, _json_document(doc) + "\n")


#: One CSV line of a point cloud, from a row (x, y, z, a, b, c, d, tag).
_POINT_CSV_LINE = "%r,%r,%r,%r,%r,%r,%r,%s\n"
#: One CSV line of an orbit, from a row (step, x, y).
_ORBIT_CSV_LINE = "%d,%r,%r\n"


def _emit_point_csv(args, rows):
    """One line per row (x, y, z, a, b, c, d, tag) of finite floats and a tag."""
    lines = ["x,y,z,x1,x2,x3,x4,tag\n"]
    lines += map(_POINT_CSV_LINE.__mod__, rows)
    _write(args, "".join(lines))


def _json_records(head: str, record: dict, rows, indent: str, tail: str) -> str:
    """head, the JSON list of one record per row, and tail, joined once.

    record is the shape of every item.  Each str value "%r" in it stands for
    a float of the row, in sorted-key order, depth first, and is filled in by
    %r, that is by float.__repr__, as ``_json_parts`` writes a finite float.
    Every row value must be finite: the rows do not pass the writer's gate,
    and %r would write inf or nan.  ``_json_parts`` writes the rest of the
    template, so "%s" stays quoted and takes a row's plain-ASCII tag; no
    other text of record may hold a "%".
    indent is the newline and indentation of the line the list starts on.
    """
    if not rows:
        return head + "[]" + tail
    inner = indent + "  "
    parts = [inner]
    _json_parts(record, parts, inner)
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


# -- subcommands -----------------------------------------------------------


def _cmd_roots(args, tol: Tolerance) -> None:
    roots = _kernel("roots")
    sign = 1.0 if args.of == "identity" else -1.0
    if args.sample is not None:
        rows = []
        append = rows.append
        for a, b, c, d in roots._sample(sign, args.sample, args.seed, args.range):
            # R = [[a, b], [c, -a]]: R^2's diagonal entries are both p and its
            # off-diagonal ones a*b + b*(-a) and c*a + (-a)*c cancel exactly,
            # so _square_residual is |p - sign|; where a product is not finite
            # it is called to raise its error
            p, ab, ca = a * a + b * c, a * b, c * a
            if p - p + (ab - ab) + (ca - ca) == 0.0:
                append((a, b, c, d, abs(p - sign)))
            else:
                append((a, b, c, d, _square_residual(a, b, c, d, sign, 0.0, 0.0, sign)))
        record = {"matrix": dict.fromkeys("abcd", "%r"), "residual": "%r"}
        _write(args, _json_records('{\n  "samples": ', record, rows, "\n  ",
                                   ',\n  "seed": ' + int.__repr__(args.seed) + "\n}\n"))
        return
    if args.family is not None:
        if args.of != "identity":
            raise UsageError("--family names a root of I2; it cannot be used with --of neg-identity")
        family = _family(args)
        matrix = roots.make_root(family, tol)
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
        "residual": _square_residual(*matrix.entries(), sign, 0.0, 0.0, sign),
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
        doc["residual"] = quadric.quadric_residual(
            bell, quadric.LocusParams(args.alpha, args.beta), tol)
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
    if args.format == "csv":
        if args.points < 1:
            raise InvalidCount(f"need points >= 1, got {args.points}")
        ts = [args.t_max * (2.0 * i / (args.points - 1) - 1.0) if args.points > 1 else 0.0
              for i in range(args.points)]
        _emit_point_csv(args, quadric.ruling_rows(point, pair, ts, tol))
        return
    u, v = pair.u, pair.v
    _emit_json(args, {
        "point": point.to_json_dict(),
        "u": u.to_json_dict(),
        "v": v.to_json_dict(),
        "residuals": {
            "au_minus_u": (point @ u).max_diff(u),
            "ua_plus_u": ((u @ point) + u).max_norm(),
            "u_squared": _square_residual(*u.entries(), 0.0, 0.0, 0.0, 0.0),
            "av_plus_v": ((point @ v) + v).max_norm(),
            "va_minus_v": (v @ point).max_diff(v),
            "v_squared": _square_residual(*v.entries(), 0.0, 0.0, 0.0, 0.0),
            "on_surface": _square_residual(*point.entries(), 1.0, 0.0, 0.0, 1.0),
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
        matrix = splitquat.to_matrix(q)
    elif args.from_matrix is not None or args.matrix_file is not None:
        matrix = _parse_matrix(args.from_matrix, args.matrix_file)
        q = splitquat.from_matrix(matrix)
    else:
        raise UsageError("quat needs one of --root, --to-matrix, --from-matrix")
    _emit_json(args, {
        "quaternion": q.to_json_dict(),
        "matrix": matrix.to_json_dict(),
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
        matrix = roots.make_root(family, tol)
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
        lines = ["step,x,y\n"]
        lines += [_ORBIT_CSV_LINE % (i, p.x, p.y) for i, p in enumerate(points)]
        _write(args, "".join(lines))
        return
    _emit_json(args, [{"step": i, "x": p.x, "y": p.y} for i, p in enumerate(points)])


def _flag(*options: str, **kwargs) -> tuple:
    """A flag as data: what ``add_argument`` takes for it."""
    return options, kwargs


#: The root families --family names: ``roots.RootTag``'s values, hyphenated.
#: Written out, so that reading a line does not load ``roots``.
_FAMILIES = ("identity", "neg-identity", "upper-b-plus-minus", "upper-b-minus-plus",
             "lower-c-plus-minus", "lower-c-minus-plus", "general")

_MATRIX = (
    _flag("--matrix", help="matrix as JSON {\"a\":..,\"b\":..,\"c\":..,\"d\":..}"),
    _flag("--matrix-file", help="path to a matrix JSON file"),
)
_FAMILY = (
    _flag("--a", type=float),
    _flag("--b", type=float),
    _flag("--c", type=float),
    _flag("--family", choices=_FAMILIES),
)
#: The flags every subcommand has.
_COMMON = (
    _flag("-o", "--output", help="write the document here instead of stdout"),
)

#: Each subcommand once: name -> (help, handler, flags).
_COMMANDS = {
    "roots": ("construct square roots of +-I2", _cmd_roots, (
        _flag("--of", choices=("identity", "neg-identity"), default="identity"),
        *_FAMILY,
        _flag("--sample", type=int, help="emit this many sampled roots instead"),
        _flag("--range", type=float, default=10.0, help="sampling range for a, b"),
        *_COMMON,
        _flag("--seed", type=int, default=0, help="seed for any sampling"),
    )),
    "classify": ("classify an involution or a locus S(alpha, beta)", _cmd_classify, (
        *_MATRIX,
        _flag("--alpha", type=float),
        _flag("--beta", type=float),
        *_COMMON,
    )),
    "bell": ("convert between matrices and Bell coordinates", _cmd_bell, (
        *_MATRIX,
        _flag("--alpha", type=float, default=0.0),
        _flag("--beta", type=float, help="also report the quadric residual"),
        _flag("--x", type=float),
        _flag("--y", type=float),
        _flag("--z", type=float),
        *_COMMON,
    )),
    "generators": ("ruling directions through a point of S(0,-1)", _cmd_generators, (
        *_MATRIX,
        _flag("--phi", type=float, help="use the principal-section point H(phi)"),
        _flag("--seed-matrix", help="seed matrix JSON (default [[1,0],[0,0]])"),
        _flag("--format", choices=("json", "csv"), default="json"),
        _flag("--points", type=int, default=9, help="points per line in csv mode"),
        _flag("--t-max", type=float, default=2.0),
        *_COMMON,
    )),
    "quat": ("split-quaternion round trips and unit roots", _cmd_quat, (
        _flag("--to-matrix", metavar="QUAT", help="quaternion JSON to map to a matrix"),
        _flag("--from-matrix", metavar="MATRIX", help="matrix JSON to map to a quaternion"),
        _flag("--matrix-file", help="path to a matrix JSON file (with --from-matrix semantics)"),
        _flag("--root", choices=("identity", "neg"), help="emit a parametrized root"),
        _flag("--t", type=float, default=0.0),
        _flag("--phi", type=float, default=0.0),
        _flag("--decompose", action="store_true",
              help="include the Householder + skew split of the root"),
        *_COMMON,
    )),
    "matfun": ("matrix functions and square-root branches", _cmd_matfun, (
        *_MATRIX,
        _flag("--function", choices=("sqrt", "square"), default="sqrt",
              help="sqrt: the principal square root; square: the matrix squared"),
        _flag("--all-branches", action="store_true",
              help="enumerate all branch square roots and the root count"),
        *_COMMON,
    )),
    "sample": ("point cloud covering S(alpha, beta)", _cmd_sample, (
        _flag("--alpha", type=float, required=True),
        _flag("--beta", type=float, required=True),
        _flag("--nu", type=int, default=16, help="azimuth steps"),
        _flag("--nv", type=int, default=16, help="second-coordinate steps"),
        _flag("--span", type=float, default=2.0),
        _flag("--format", choices=("json", "csv"), default="csv"),
        *_COMMON,
    )),
    "decompose": ("factor a root into elementary transformations", _cmd_decompose, (
        *_MATRIX,
        *_FAMILY,
        *_COMMON,
    )),
    "orbit": ("trace a point under repeated application", _cmd_orbit, (
        *_MATRIX,
        _flag("--x", type=float, required=True),
        _flag("--y", type=float, required=True),
        _flag("--steps", type=int, default=2),
        _flag("--format", choices=("json", "csv"), default="csv"),
        *_COMMON,
    )),
}


def build_parser():
    """The ``invgeo`` argparse parser, one subparser per ``_COMMANDS``
    entry declaring its flags.  A fresh parser on every call; argparse is
    imported here, so that a command line the flag reader takes does not
    import it."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """Reports bad flags as JSON usage errors on exit 2.  A value such as
        ``-1e-3`` or ``-2.5E+10`` is a negative number, not an option:
        argparse's own pattern (Python 3.10 to 3.13) has no exponent, and
        the flag reader takes it as a number too."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self._negative_number_matcher = re.compile(_NEGATIVE_NUMBER)

        def error(self, message):
            _emit_error("usage", message)
            raise SystemExit(2)

    # --help shows the summary and the paragraph on exit codes and output;
    # the rest of the docstring is about the code
    description = "\n\n".join((__doc__ or "").split("\n\n")[:2])
    root = _Parser(prog="invgeo", description=description)
    sub = root.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, flags) in _COMMANDS.items():
        parser = sub.add_parser(name, help=help_text)
        for options, kwargs in flags:
            parser.add_argument(*options, **kwargs)
        parser.set_defaults(func=handler)
    return root


#: The argparse tree, built on the first line the flag reader declines.
_tree = None


@cache
def _flag_index(command: str) -> tuple:
    """(flags, defaults, required) of a subcommand, from its ``_COMMANDS``
    entry, built on first use and kept for the process.

    ``flags`` maps each option string to (dest, convert, choices): convert is
    the flag's type (``str`` where it has none), or None for a store_true
    flag.  The dest is argparse's: the first long option, or else the first
    option, without its leading dashes and with "-" read as "_".
    ``defaults`` is the namespace argparse starts from, each flag's default
    and then the handler as ``func``; ``required`` holds the dests a line
    must name.
    """
    _, handler, declared = _COMMANDS[command]
    flags, defaults, required = {}, {}, set()
    for options, kwargs in declared:
        dest = ([o for o in options if o[:2] == "--"] or options)[0].lstrip("-").replace("-", "_")
        if kwargs.get("action") == "store_true":
            convert, default = None, False
        else:
            convert, default = kwargs.get("type", str), None
        defaults[dest] = kwargs.get("default", default)
        if kwargs.get("required"):
            required.add(dest)
        for option in options:
            flags[option] = dest, convert, kwargs.get("choices")
    defaults["func"] = handler
    return flags, defaults, frozenset(required)


def _read_flags(command: str, line: list[str]) -> SimpleNamespace | None:
    """The namespace the argparse tree builds for the subcommand's line, or
    None where line needs more of argparse than exact flags and plain values.

    Each token is an exact option string then its value, ``--option=value``,
    or an exact store_true flag.  A value starting with "-" must be a
    negative number, as argparse reads it.  A value goes through the flag's
    type and then its choices.  None, with nothing printed, for anything
    else: an abbreviation, ``-h``, ``--``, a missing value, a bad value, a
    missing required flag.
    """
    flags, defaults, required = _flag_index(command)
    values = defaults.copy()
    seen = set()
    tokens = iter(line)
    for token in tokens:
        entry = flags.get(token)
        if entry is not None:
            dest, convert, choices = entry
            if convert is None:
                values[dest] = True
                seen.add(dest)
                continue
            value = next(tokens, None)
            if value is None or (value[:1] == "-" and not re.match(_NEGATIVE_NUMBER, value)):
                return None
        else:
            option, eq, value = token.partition("=")
            entry = flags.get(option)
            if not eq or entry is None or entry[1] is None or option[:2] != "--":
                return None
            dest, convert, choices = entry
        try:
            value = convert(value)
        except (TypeError, ValueError):
            return None
        if choices is not None and value not in choices:
            return None
        values[dest] = value
        seen.add(dest)
    if not required <= seen:
        return None
    return SimpleNamespace(**values)


def _parse(argv: list[str]):
    """The namespace the ``invgeo`` argparse tree would build for argv.

    A command line that starts with a subcommand's name is read by
    ``_read_flags``; any line it declines goes to the tree, for its
    namespace, its help or its usage error.
    """
    if argv and argv[0] in _COMMANDS:
        args = _read_flags(argv[0], argv[1:])
        if args is not None:
            return args
    global _tree
    if _tree is None:
        _tree = build_parser()
    return _tree.parse_args(argv)


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
    """The ``invgeo`` console script: ``sys.exit(run())`` after one
    ``gc.freeze()``.

    The process ends with this call, so the start-up heap need never be
    collected; frozen, it is not walked at exit either.  The freeze comes
    before ``run()``, so it also covers argparse's ``SystemExit`` for help
    and usage errors.  It is here and not in ``run()``, which keeps the
    collector of an in-process caller as it found it.
    """
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()

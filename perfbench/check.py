"""Output checker: every answer is verified against invariants, not goldens.

An operation fails when it crashes or exits with a status other than 0 or
1, exits 1 without a stable JSON error code, returns an answer that breaks
an invariant, or refuses an input whose answer the generator knows exists.
An expected domain error passes.  Near a decision threshold either decision
passes, as long as the returned answer verifies.

Invariants (R^2 = A, R^2 = +-I, recomposition, trace and det of every cloud
row, the quadric equation) are compared scale-relative: the allowed error
is REL times the size of the terms that produced the value, never an
absolute number.  Decisions are graded against quantities computed exactly
from the input floats with ``fractions.Fraction``.

Every check returns None on success and a short reason string on failure.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

#: Allowed relative error of every invariant.
REL = 1e-8
#: Relative half-width of the band around a threshold where either side passes.
NEAR = 1e-8

#: The error codes the CLI documents (errors.py plus the CLI's own two).
STABLE_CODES = frozenset({
    "error", "non_finite_entry", "invalid_tolerance", "degenerate_parameter",
    "wrong_constructor", "not_an_involution", "invalid_count", "not_in_hyperplane",
    "alpha_mismatch", "degenerate_seed", "not_unit_vector", "not_pythagorean",
    "not_invertible", "singular_parameter", "complex_eigenvalues",
    "function_undefined_at_eigenvalue", "non_positive_scale", "not_a_square_root",
    "singular_conjugator", "wrong_decomposer", "degenerate_angle",
    "usage", "numeric_error",
})

_SQRT2 = math.sqrt(2.0)
IDENTITY = (1.0, 0.0, 0.0, 1.0)
NEG_IDENTITY = (-1.0, 0.0, 0.0, -1.0)


# -- small 2x2 helpers on (a, b, c, d) tuples -----------------------------------

def mat(doc) -> tuple[float, float, float, float]:
    return (doc["a"], doc["b"], doc["c"], doc["d"])


def mul(m, n):
    return (m[0] * n[0] + m[1] * n[2], m[0] * n[1] + m[1] * n[3],
            m[2] * n[0] + m[3] * n[2], m[2] * n[1] + m[3] * n[3])


def norm(m) -> float:
    return max(abs(v) for v in m)


def close(x: float, y: float, scale: float) -> bool:
    return abs(x - y) <= REL * scale


def mat_close(m, n, scale: float | None = None) -> bool:
    if scale is None:
        scale = max(norm(m), norm(n))
    return all(close(x, y, scale) for x, y in zip(m, n))


def square_is(r, target) -> bool:
    """R^2 = target, relative to the size of the products |R|^2."""
    return mat_close(mul(r, r), target, scale=max(2.0 * norm(r) ** 2, norm(target)))


def exact_det(m) -> Fraction:
    a, b, c, d = (Fraction(v) for v in m)
    return a * d - b * c


def _sign_class(value: Fraction, scale: float, labels: tuple[str, str, str]):
    """Allowed decisions for the sign of ``value``: (negative, zero, positive)."""
    if abs(value) <= NEAR * scale:
        return set(labels)
    return {labels[2]} if value > 0 else {labels[0]}


# -- decisions and objects shared by CLI and library checks ---------------------

def check_quadric(doc, alpha: float, beta: float) -> str | None:
    """classify_quadric: radius_sq and the sign of alpha^2 - 4 beta."""
    scale = alpha * alpha + 4.0 * abs(beta)
    if not close(doc["radius_sq"], 0.5 * alpha * alpha - 2.0 * beta, scale):
        return "radius_sq wrong"
    disc = Fraction(alpha) ** 2 - 4 * Fraction(beta)
    if doc["class"] not in _sign_class(disc, scale, ("two_sheet", "cone", "one_sheet")):
        return f"quadric class {doc['class']} for disc {float(disc):.3g}"
    return None


def check_matrix_quadric(doc, m) -> str | None:
    """classify_quadric of the locus through m, graded on m's exact disc."""
    a, b, c, d = m
    alpha, beta = a + d, a * d - b * c
    scale = (abs(a) + abs(d)) ** 2 + 4.0 * (abs(a * d) + abs(b * c))
    if not close(doc["radius_sq"], 0.5 * alpha * alpha - 2.0 * beta, scale):
        return "radius_sq wrong"
    fa, fb, fc, fd = (Fraction(v) for v in m)
    disc = (fa - fd) ** 2 + 4 * fb * fc
    if doc["class"] not in _sign_class(disc, scale, ("two_sheet", "cone", "one_sheet")):
        return f"quadric class {doc['class']} for disc {float(disc):.3g}"
    return None


def bell_to_matrix(x, y, z, alpha):
    half = 0.5 * alpha
    return (half + x / _SQRT2, (y - z) / _SQRT2, (y + z) / _SQRT2, half - x / _SQRT2)


def check_bell(bell, m, beta: float | None = None) -> str | None:
    """Bell coordinates of m: the frame map, and the quadric equation."""
    x, y, z, alpha = bell["x"], bell["y"], bell["z"], bell["alpha"]
    if not mat_close(bell_to_matrix(x, y, z, alpha), m, max(norm(m), abs(alpha))):
        return "bell coordinates do not map back to the matrix"
    if beta is not None:
        lhs = x * x + y * y - z * z
        rhs = 0.5 * alpha * alpha - 2.0 * beta
        if not close(lhs, rhs, x * x + y * y + z * z + abs(rhs) + 0.5 * alpha * alpha):
            return "bell point off the quadric"
    return None


def check_split_quat(qdoc, m) -> str | None:
    a, b, c, d = m
    want = (0.5 * (a + d), 0.5 * (b - c), 0.5 * (b + c), 0.5 * (a - d))
    got = (qdoc["w"], qdoc["x"], qdoc["y"], qdoc["z"])
    if not mat_close(got, want, norm(m)):
        return "split quaternion does not match the matrix"
    return None


def check_causal(label: str, m) -> str | None:
    """sq_classify: the sign of the modulus, which is det m."""
    scale = abs(m[0] * m[3]) + abs(m[1] * m[2])
    if label not in _sign_class(exact_det(m), scale, ("spacelike", "lightlike", "timelike")):
        return f"causal class {label} for det {m[0] * m[3] - m[1] * m[2]:.3g}"
    return None


def check_roots(case, roots, count) -> str | None:
    """sqrt_branches and count_real_roots against the generator's truth."""
    for r in roots:
        if not square_is(r, case.m):
            return "branch root does not square to A"
    got = (count["tag"], count.get("n", 0))
    if case.near:
        if got not in case.allowed:
            return f"root count {got} not in {case.allowed}"
        # a scalar decision enumerates +-sqrt(lam) I2; near cases are positive
        want_len = {"finite": got[1], "zero": 0, "infinite": 2}[got[0]]
        if len(roots) != want_len:
            return f"{len(roots)} branches for count {got}"
        return None
    if got != case.roots:
        return f"root count {got}, expected {case.roots}"
    if len(roots) != case.branches:
        return f"{len(roots)} branches, expected {case.branches}"
    return None


def family_matrix(doc):
    tag, p = doc["tag"], doc.get("params", {})
    if tag == "identity":
        return IDENTITY
    if tag == "neg_identity":
        return NEG_IDENTITY
    if tag == "upper_b_plus_minus":
        return (1.0, p["b"], 0.0, -1.0)
    if tag == "upper_b_minus_plus":
        return (-1.0, p["b"], 0.0, 1.0)
    if tag == "lower_c_plus_minus":
        return (1.0, 0.0, p["c"], -1.0)
    if tag == "lower_c_minus_plus":
        return (-1.0, 0.0, p["c"], 1.0)
    if tag == "general":
        a, b = p["a"], p["b"]
        return (a, b, (1.0 - a * a) / b, -a)
    raise KeyError(tag)


def check_family(doc, m) -> str | None:
    """classify_involution: the reported family member must be m itself."""
    try:
        fm = family_matrix(doc)
    except (KeyError, ZeroDivisionError):
        return f"malformed family {doc!r}"
    if not mat_close(fm, m):
        return f"family {doc['tag']} does not reproduce the matrix"
    return None


def recompose(doc):
    product = IDENTITY
    for factor in doc["factors"]:
        product = mul(product, mat(factor["matrix"]))
    if "additive_part" in doc:
        add = mat(doc["additive_part"]["matrix"])
        product = tuple(p + q for p, q in zip(product, add))
    return product


def check_decomposition(doc, m) -> str | None:
    r = recompose(doc)
    scale = max([1.0] + [norm(mat(f["matrix"])) for f in doc["factors"]]) ** 2
    if m is not None and not mat_close(r, m, max(scale, norm(m))):
        return "factors do not recompose to the matrix"
    if not square_is(r, IDENTITY):
        return "recomposed matrix is not an involution"
    return None


def check_householder(phi, m) -> str | None:
    symmetric = abs(m[1] - m[2]) <= NEAR * norm(m) and not (
        mat_close(m, IDENTITY) or mat_close(m, NEG_IDENTITY))
    if phi is None:
        return "symmetric involution has no Householder angle" if symmetric else None
    h = (math.cos(phi), math.sin(phi), math.sin(phi), -math.cos(phi))
    if not mat_close(h, m, 1.0):
        return "H(phi) does not reproduce the matrix"
    return None


def check_rulings(u, v, a) -> str | None:
    """AU = U, UA = -U, U^2 = 0, AV = -V, VA = V, V^2 = 0; |U| = |V| = 1."""
    scale = 2.0 * max(1.0, norm(a))
    neg = lambda m: tuple(-x for x in m)  # noqa: E731
    zero = (0.0, 0.0, 0.0, 0.0)
    if not (close(norm(u), 1.0, 1.0) and close(norm(v), 1.0, 1.0)):
        return "ruling direction not of unit max-norm"
    for got, want in ((mul(a, u), u), (mul(u, a), neg(u)), (mul(u, u), zero),
                      (mul(a, v), neg(v)), (mul(v, a), v), (mul(v, v), zero)):
        if not mat_close(got, want, scale):
            return "ruling identity broken"
    return None


def on_involution_surface(m) -> bool:
    return square_is(m, IDENTITY) and close(m[0] + m[3], 0.0, 2.0 * norm(m))


# -- CLI documents ----------------------------------------------------------------

def _csv(out: str, header: str) -> list[list[str]]:
    lines = out.split("\n")
    if lines[0] != header or lines[-1] != "":
        raise ValueError("bad csv framing")
    return [line.split(",") for line in lines[1:-1]]


def _cloud_rows(q, out):
    if q.expect == "cloud_json":
        return [((p["bell"]["x"], p["bell"]["y"], p["bell"]["z"], p["bell"]["alpha"]),
                 mat(p["matrix"]), p["tag"]) for p in json.loads(out)]
    return [((float(r[0]), float(r[1]), float(r[2]), None),
             tuple(float(v) for v in r[3:7]), r[7]) for r in _csv(out, "x,y,z,x1,x2,x3,x4,tag")]


def check_cloud_rows(rows, alpha: float, beta: float, locus: str) -> str | None:
    """Every row of a sampled S(alpha, beta): trace, det, frame and quadric."""
    vertices = 0
    for (x, y, z, a), m, tag in rows:
        if a is not None and a != alpha:
            return "row alpha differs from the locus"
        if check_bell({"x": x, "y": y, "z": z, "alpha": alpha}, m) is not None:
            return "row bell coordinates do not match its matrix"
        if tag == "vertex":
            vertices += 1
            if not mat_close(m, (0.5 * alpha, 0.0, 0.0, 0.5 * alpha)):
                return "vertex row is not the apex"
            continue
        if tag != "surface":
            return f"unexpected row tag {tag!r}"
        size = norm(m)
        if not close(m[0] + m[3], alpha, 2.0 * size):
            return "row trace differs from alpha"
        if not close(m[0] * m[3] - m[1] * m[2], beta, 2.0 * size * size + abs(beta)):
            return "row det differs from beta"
        r2 = 0.5 * alpha * alpha - 2.0 * beta
        if not close(x * x + y * y - z * z, r2, x * x + y * y + z * z + abs(r2)):
            return "row off the quadric"
    if vertices != (locus == "cone"):
        return f"{vertices} vertex rows on a {locus} cloud"
    return None


def _check_generators(q, doc):
    a = mat(doc["point"])
    if "m" in q.data and not mat_close(a, q.data["m"]):
        return "point differs from the input"
    if not on_involution_surface(a):
        return "point is not on S(0, -1)"
    return check_rulings(mat(doc["u"]), mat(doc["v"]), a)


def _check_generators_csv(q, out):
    rows = _csv(out, "x,y,z,x1,x2,x3,x4,tag")
    if len(rows) != q.rows:
        return f"{len(rows)} rows, expected {q.rows}"
    for r in rows:
        m = tuple(float(v) for v in r[3:7])
        if r[7] != "generator" or not on_involution_surface(m):
            return "generator row is not a root of I2"
        if check_bell({"x": float(r[0]), "y": float(r[1]), "z": float(r[2]), "alpha": 0.0},
                      m) is not None:
            return "generator row bell coordinates do not match its matrix"
    return None


def _check_quat_root(q, doc):
    w, x, y, z = (doc["quaternion"][k] for k in "wxyz")
    sign = 1.0 if q.data["which"] == "identity" else -1.0
    square = (w * w - x * x + y * y + z * z, 2 * w * x, 2 * w * y, 2 * w * z)
    if not mat_close(square, (sign, 0.0, 0.0, 0.0), 2.0 * (w * w + x * x + y * y + z * z)):
        return "quaternion does not square to +-1"
    m = mat(doc["matrix"])
    if not mat_close(m, (w + z, x + y, y - x, w - z)):
        return "matrix is not the image of the quaternion"
    if "decomposition" in doc:
        dec = doc["decomposition"]
        h, j = mat(dec["householder"]), mat(dec["skew"])
        if not (square_is(h, IDENTITY) and square_is(j, NEG_IDENTITY)):
            return "decomposition parts are not a reflection and a rotation"
        parts = tuple(dec["coef_h"] * p + dec["coef_j"] * s for p, s in zip(h, j))
        if not mat_close(parts, m, abs(dec["coef_h"]) + abs(dec["coef_j"])):
            return "decomposition does not recompose"
    return None


def _check_orbit(q, out):
    x, y = q.data["start"]
    if q.data["fmt"] == "csv":
        pts = [(float(r[1]), float(r[2])) for r in _csv(out, "step,x,y")]
    else:
        pts = [(p["x"], p["y"]) for p in json.loads(out)]
    if len(pts) != q.rows or pts[0] != (x, y):
        return "orbit has the wrong length or start"
    m = q.data["m"]
    for (px, py), (nx, ny) in zip(pts, pts[1:]):
        scale = norm(m) * max(abs(px), abs(py))
        if not (close(nx, m[0] * px + m[1] * py, scale) and close(ny, m[2] * px + m[3] * py, scale)):
            return "orbit step is not the map applied to the previous point"
    return None


def _check_roots_sample(q, doc):
    target = IDENTITY if q.data["sign"] > 0 else NEG_IDENTITY
    if len(doc["samples"]) != q.rows:
        return f"{len(doc['samples'])} samples, expected {q.rows}"
    for s in doc["samples"]:
        if not square_is(mat(s["matrix"]), target):
            return "sampled root does not square to +-I2"
    return None


def _check_roots_one(q, doc):
    r = mat(doc["matrix"])
    if not square_is(r, IDENTITY if q.data["sign"] > 0 else NEG_IDENTITY):
        return "root does not square to +-I2"
    if "family" in doc and check_family(doc["family"], r) is not None:
        return "family does not reproduce the root"
    return None


def _check_matfun_sqrt(q, doc):
    if not square_is(mat(doc["result"]), q.data["case"].m):
        return "sqrt result does not square to A"
    return None


def _check_quat_matrix(q, doc):
    m = q.data["m"]
    if not mat_close(mat(doc["matrix"]), m):
        return "matrix does not round-trip"
    scale = abs(m[0] * m[3]) + abs(m[1] * m[2])
    if not close(doc["modulus"], m[0] * m[3] - m[1] * m[2], scale):
        return "modulus is not det"
    return check_split_quat(doc["quaternion"], m) or check_causal(doc["class"], m)


def _check_quat_to_matrix(q, doc):
    w, x, y, z = q.data["q"]
    m = mat(doc["matrix"])
    if not mat_close(m, (w + z, x + y, y - x, w - z)):
        return "matrix is not the image of the quaternion"
    return check_causal(doc["class"], m)


_JSON_CHECKS = {
    "involution": lambda q, d: check_family(d, q.data["m"]),
    "quadric": lambda q, d: check_quadric(d, q.data["alpha"], q.data["beta"]),
    "bell_forward": lambda q, d: (None if mat_close(mat(d["matrix"]), q.data["m"])
                                  else "matrix echo differs") or check_bell(
        d["bell"], q.data["m"], q.data.get("beta")),
    "bell_inverse": lambda q, d: check_bell(d["bell"], mat(d["matrix"])) or (
        None if mat_close(mat(d["matrix"]), bell_to_matrix(*q.data["bell"]))
        else "matrix differs from the bell point"),
    "generators": _check_generators,
    "quat_matrix": _check_quat_matrix,
    "quat_to_matrix": _check_quat_to_matrix,
    "quat_root": _check_quat_root,
    "matfun_sqrt": _check_matfun_sqrt,
    "matfun_branches": lambda q, d: check_roots(
        q.data["case"], [mat(r) for r in d["roots"]], d["count"]),
    "decompose": lambda q, d: check_decomposition(d, q.data.get("m")) or (
        None if mat_close(mat(d["recomposed"]), recompose(d), max(1.0, norm(recompose(d))))
        else "recomposed field differs from the factors"),
    "roots_one": _check_roots_one,
    "roots_sample": _check_roots_sample,
}

_TEXT_CHECKS = {
    "generators_csv": _check_generators_csv,
    "orbit": _check_orbit,
}


def error_code(err: str) -> str | None:
    """The stable code of a one-line JSON error document, else None."""
    try:
        doc = json.loads(err)
    except json.JSONDecodeError:
        return None
    code = doc.get("error") if isinstance(doc, dict) else None
    return code if code in STABLE_CODES else None


def check_answer(q, out: str) -> str | None:
    if q.expect in _TEXT_CHECKS:
        return _TEXT_CHECKS[q.expect](q, out)
    if q.expect in ("cloud_csv", "cloud_json"):
        rows = _cloud_rows(q, out)
        if len(rows) != q.rows:
            return f"{len(rows)} rows, expected {q.rows}"
        return check_cloud_rows(rows, q.data["alpha"], q.data["beta"], q.data["locus"])
    return _JSON_CHECKS[q.expect](q, json.loads(out))


def check_query(q, rc: int | None, out: str, err: str) -> str | None:
    """Grade one CLI run; None means it passed.

    ``rc`` None means run() raised instead of returning, and ``err`` then
    names the exception.
    """
    if rc is None:
        return f"crashed: {err}"
    if rc == 1:
        code = error_code(err)
        if code is None:
            return "exit 1 without a stable JSON error code"
        if code == q.error:
            return None
        return f"refused with {code}"
    if rc != 0:
        return f"exit status {rc}"
    try:
        reason = check_answer(q, out)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
    if reason is not None and q.error is not None:
        return f"answered where {q.error} was expected, and the answer fails: {reason}"
    return reason


# -- library pipeline ------------------------------------------------------------

class Refused:
    """Placeholder for a step that raised; ``code`` is the error code."""

    __slots__ = ("code", "crash")

    def __init__(self, code: str, crash: bool = False):
        self.code = code
        self.crash = crash


def _jd(obj):
    return obj.to_json_dict()


def check_lib(case, res: dict) -> str | None:
    """Grade one lib-analyze pipeline: ``res`` maps step name to result."""
    for step, value in res.items():
        if isinstance(value, Refused):
            if value.crash:
                return f"{step} crashed: {value.code}"
            if step == "generator_directions" and value.code == "degenerate_seed" and (
                    case.degenerate_seed or case.near):
                continue
            return f"{step} refused: {value.code}"
    m = case.m
    built = res["Mat2"]
    if (built.a, built.b, built.c, built.d) != m:
        return "Mat2 changed the entries"
    reason = (
        check_matrix_quadric(_jd(res["classify_quadric"]), m)
        or check_bell(_jd(res["to_bell"]), m, m[0] * m[3] - m[1] * m[2])
        or (None if mat_close(mat(_jd(res["from_bell"])), m) else "from_bell(to_bell(m)) != m")
        or check_split_quat(_jd(res["from_matrix"]), m)
        or check_causal(res["sq_classify"].value, m)
        or check_roots(case, [mat(_jd(r)) for r in res["sqrt_branches"]],
                       _jd(res["count_real_roots"]))
    )
    if reason or not case.involution:
        return reason
    pair = res["generator_directions"]
    return (
        check_family(_jd(res["classify_involution"]), m)
        or check_decomposition(_jd(res["decompose"]), m)
        or check_householder(res["householder_angle"], m)
        or (None if isinstance(pair, Refused)
            else check_rulings(mat(_jd(pair.u)), mat(_jd(pair.v)), m))
    )

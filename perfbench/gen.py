"""Seeded inputs, with ground truth, for the four benchmark workloads.

Nothing here imports invgeo: the truth attached to each input comes from
how the input was built (its class, its spectrum, its real-root count), so
the checker never trusts the program to grade itself.  Every generator
takes a ``random.Random`` seeded from the workload name and ``--seed``, so
one seed always gives the same inputs.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

# Real square roots of a 2x2 matrix, by spectrum (Higham, Functions of
# Matrices, ch. 1 and 6): ("finite", n), ("zero", 0) or ("infinite", 0).
FOUR = ("finite", 4)
TWO = ("finite", 2)
ZERO = ("zero", 0)
INFINITE = ("infinite", 0)


@dataclass(frozen=True)
class MatCase:
    """One 2x2 input and what is known about it by construction.

    ``roots`` is the count_real_roots answer, ``branches`` the number of
    roots sqrt_branches should enumerate (the scalar families are counted
    as infinite but enumerate only +-sqrt(l) I2), ``primary`` whether the
    real principal square root exists.  In a ``near`` case the input sits
    within rounding of a decision threshold, so ``allowed`` lists every
    count a correct program may give.
    """

    cls: str
    m: tuple[float, float, float, float]
    eig: tuple
    roots: tuple[str, int]
    branches: int
    primary: bool
    involution: bool = False
    near: bool = False
    allowed: tuple = ()
    degenerate_seed: bool = False


# -- matrix classes -----------------------------------------------------------

def _log_uniform(rng: random.Random, lo_exp: float, hi_exp: float) -> float:
    return 10.0 ** rng.uniform(lo_exp, hi_exp)


def _conjugate(rng, core):
    """Z core Z^-1 for a well-conditioned Z = [[1, p], [q, 1]] (cond <= 3)."""
    p, q = rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)
    a, b, c, d = core
    det = 1.0 - p * q
    # Z core
    za, zb = a + p * c, b + p * d
    zc, zd = q * a + c, q * b + d
    # (Z core) Z^-1, with Z^-1 = [[1, -p], [-q, 1]] / det
    return (
        (za - q * zb) / det, (zb - p * za) / det,
        (zc - q * zd) / det, (zd - p * zc) / det,
    )


def _sign(rng):
    return rng.choice((-1.0, 1.0))


def _inv_general(rng):
    if rng.random() < 0.25:  # symmetric: a Householder reflection H(phi)
        phi = rng.uniform(0.2, math.pi - 0.2) * _sign(rng)
        m = (math.cos(phi), math.sin(phi), math.sin(phi), -math.cos(phi))
    else:
        a = rng.uniform(-3.0, 3.0)
        b = _sign(rng) * rng.uniform(0.1, 5.0)
        m = (a, b, (1.0 - a * a) / b, -a)
    return MatCase("inv_general", m, (-1.0, 1.0), ZERO, 0, False, involution=True)


def _inv_triangular(rng):
    s = rng.choice((1.0, -1.0))
    t = _sign(rng) * rng.uniform(0.1, 10.0)
    m = (s, t, 0.0, -s) if rng.random() < 0.5 else (s, 0.0, t, -s)
    # the default generator seed [[1,0],[0,0]] annihilates one ruling of a
    # triangular root exactly: V = (A-I)X(A+I) or U = (A+I)X(A-I) is zero
    return MatCase("inv_triangular", m, (-1.0, 1.0), ZERO, 0, False,
                   involution=True, degenerate_seed=True)


def _inv_b_to_0(rng):
    c = _sign(rng) * rng.uniform(0.1, 3.0)
    b = _sign(rng) * _log_uniform(rng, -14, -8)
    a = _sign(rng) * math.sqrt(1.0 - b * c)
    return MatCase("inv_b_to_0", (a, b, c, -a), (-1.0, 1.0), ZERO, 0, False,
                   involution=True, near=True, allowed=(ZERO,))


def _skew(rng):
    a = rng.uniform(-3.0, 3.0)
    b = _sign(rng) * rng.uniform(0.2, 5.0)
    return MatCase("skew_involution", (a, b, -(1.0 + a * a) / b, -a),
                   (complex(0, -1), complex(0, 1)), TWO, 2, True)


def _pos_distinct(rng):
    s = rng.magnitude()
    l1 = s * rng.uniform(0.1, 0.8)
    l2 = l1 * rng.uniform(1.2, 5.0)
    return MatCase("pos_distinct", _conjugate(rng, (l1, 0.0, 0.0, l2)), (l1, l2), FOUR, 4, True)


def _jordan(rng):
    """lam*I + N with N^2 = 0, every entry an integer times 2^e.

    Rounding a conjugated Jordan block splits its double eigenvalue, so the
    block is built from small integers at one binary scale instead: every
    sum and product the program forms is then exact, and the spectrum is
    exactly {lam, lam} at any scale.
    """
    e = rng.randint(math.floor(rng.mag[0] * 3.32), math.floor(rng.mag[1] * 3.32))
    lam = rng.randint(1, 1024) * 2.0 ** e
    k = rng.randint(1, 1024) * 2.0 ** e
    p, q = rng.randint(-4, 4) or 1, rng.randint(-4, 4)
    m = (lam + k * p * q, -k * p * p, k * q * q, lam - k * p * q)
    return MatCase("jordan_block", m, (lam, lam), TWO, 2, True)


def _scalar(rng):
    lam = _sign(rng) * rng.magnitude()
    return MatCase("scalar", (lam, 0.0, 0.0, lam), (lam, lam), INFINITE,
                   2 if lam > 0 else 0, lam > 0)


def _neg_mixed(rng):
    s = rng.magnitude()
    if rng.random() < 0.5:
        l1 = -s * rng.uniform(1.2, 5.0)
        l2 = -s * rng.uniform(0.1, 1.0)
    else:
        l1 = -s * rng.uniform(0.1, 1.0)
        l2 = s * rng.uniform(0.1, 1.0)
    return MatCase("neg_mixed", _conjugate(rng, (l1, 0.0, 0.0, l2)), (l1, l2), ZERO, 0, False)


def _complex(rng):
    rho = rng.magnitude()
    theta = rng.uniform(0.2, math.pi - 0.2) * _sign(rng)
    core = (rho * math.cos(theta), -rho * math.sin(theta),
            rho * math.sin(theta), rho * math.cos(theta))
    m = _conjugate(rng, core) if rng.random() < 0.5 else core
    eig = (complex(rho * math.cos(theta), -abs(rho * math.sin(theta))),
           complex(rho * math.cos(theta), abs(rho * math.sin(theta))))
    return MatCase("complex", m, eig, TWO, 2, True)


#: The triangular matrix whose spectrum {1e8, 1e8 + 1e-3} is real, kept
#: verbatim in every lib-analyze batch.
TRIANGULAR_1E8 = (1e8, 1.0, 0.0, 1e8 + 1e-3)

_NEAR_ALLOWED = (FOUR, TWO, INFINITE)


def _near_cone(rng):
    s = _log_uniform(rng, 0, 8)
    eps = _log_uniform(rng, -12, -9)
    t = s * rng.uniform(0.5, 2.0)
    m = (s, t, 0.0, s * (1.0 + eps))
    return MatCase("near_cone", m, (m[0], m[3]), FOUR, 4, True,
                   near=True, allowed=_NEAR_ALLOWED)


def triangular_1e8_case() -> MatCase:
    m = TRIANGULAR_1E8
    return MatCase("near_cone", m, (m[0], m[3]), FOUR, 4, True,
                   near=True, allowed=_NEAR_ALLOWED)


MATRIX_CLASSES = {
    "inv_general": _inv_general,
    "inv_triangular": _inv_triangular,
    "inv_b_to_0": _inv_b_to_0,
    "skew_involution": _skew,
    "pos_distinct": _pos_distinct,
    "jordan_block": _jordan,
    "scalar": _scalar,
    "neg_mixed": _neg_mixed,
    "complex": _complex,
    "near_cone": _near_cone,
}

#: Matrices per lib-analyze batch, by class; fixed so that the mix, and
#: with it the per-matrix cost and the failure share, is the same for
#: every seed.  near_cone includes TRIANGULAR_1E8 once.
LIB_BATCH = {
    "inv_general": 120, "inv_triangular": 60, "inv_b_to_0": 60,
    "skew_involution": 80, "pos_distinct": 160, "jordan_block": 100,
    "scalar": 60, "neg_mixed": 100, "complex": 120, "near_cone": 140,
}
LIB_BATCH_SIZE = sum(LIB_BATCH.values())


class Rng(random.Random):
    """random.Random that also knows the decades magnitudes are drawn from."""

    def __init__(self, seed, mag: tuple[float, float] = (-6, 8)):
        super().__init__(seed)
        self.mag = mag

    def magnitude(self) -> float:
        return _log_uniform(self, *self.mag)


def _rng(workload: str, seed: int, mag: tuple[float, float] = (-6, 8)) -> Rng:
    return Rng(f"{workload}:{seed}", mag)


def lib_batch(seed: int) -> list[MatCase]:
    """The lib-analyze batch: LIB_BATCH_SIZE cases in seeded order."""
    rng = _rng("lib-analyze", seed)
    cases = [triangular_1e8_case()]
    for cls, count in LIB_BATCH.items():
        n = count - 1 if cls == "near_cone" else count
        cases += [MATRIX_CLASSES[cls](rng) for _ in range(n)]
    rng.shuffle(cases)
    return cases


# -- CLI queries --------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    """One CLI invocation and what a correct answer looks like.

    ``expect`` names the check to run on stdout; ``error`` is the stable
    error code the input calls for (None when an answer is expected).  An
    exit 1 with that code passes, and so does an answer that verifies, which
    is what lets either decision pass on a near-threshold input.  ``rows``
    is the number of rows or samples a correct document holds.
    """

    sub: str
    argv: tuple[str, ...]
    expect: str
    data: dict = field(default_factory=dict)
    error: str | None = None
    rows: int = 0


def _mat_json(m) -> str:
    return json.dumps({"a": m[0], "b": m[1], "c": m[2], "d": m[3]})


def _scaled_matrix(rng):
    s = rng.magnitude()
    return tuple(s * rng.uniform(-1.0, 1.0) for _ in range(4))


def _q_classify(rng):
    kind = rng.random()
    if kind < 0.3:
        case = MATRIX_CLASSES[rng.choice(("inv_general", "inv_triangular"))](rng)
        return Query("classify", ("classify", "--matrix", _mat_json(case.m)),
                     "involution", {"m": case.m})
    if kind < 0.4:
        m = _scaled_matrix(rng)
        return Query("classify", ("classify", "--matrix", _mat_json(m)),
                     "involution", {"m": m}, error="not_an_involution")
    alpha = _sign(rng) * _log_uniform(rng, -3, 4)
    if kind < 0.6:  # on or within rounding of the cone alpha^2 = 4 beta
        beta = alpha * alpha / 4.0 * (1.0 + rng.choice((0.0, 1e-15, -1e-15)))
    else:
        beta = alpha * alpha / 4.0 * rng.uniform(-3.0, 3.0)
    return Query("classify", ("classify", f"--alpha={alpha!r}", f"--beta={beta!r}"),
                 "quadric", {"alpha": alpha, "beta": beta})


def _q_bell(rng):
    if rng.random() < 0.5:
        m = _scaled_matrix(rng)
        alpha = m[0] + m[3]
        argv = ("bell", "--matrix", _mat_json(m), f"--alpha={alpha!r}")
        if rng.random() < 0.2:
            off = alpha + max(1.0, abs(alpha))
            return Query("bell", ("bell", "--matrix", _mat_json(m), f"--alpha={off!r}"),
                         "bell_forward", {"m": m}, error="not_in_hyperplane")
        beta = m[0] * m[3] - m[1] * m[2]
        return Query("bell", argv + (f"--beta={beta!r}",), "bell_forward",
                     {"m": m, "beta": beta})
    s = rng.magnitude()
    x, y, z, alpha = (s * rng.uniform(-1.0, 1.0) for _ in range(4))
    return Query("bell", ("bell", f"--x={x!r}", f"--y={y!r}", f"--z={z!r}",
                          f"--alpha={alpha!r}"),
                 "bell_inverse", {"bell": (x, y, z, alpha)})


def _q_generators(rng):
    kind = rng.random()
    if kind < 0.4:
        argv = ("generators", f"--phi={rng.uniform(-math.pi, math.pi)!r}")
        data = {}
    elif kind < 0.7:
        case = _inv_general(rng)
        argv = ("generators", "--matrix", _mat_json(case.m))
        data = {"m": case.m}
    elif kind < 0.8:
        case = _inv_triangular(rng)
        return Query("generators", ("generators", "--matrix", _mat_json(case.m)),
                     "generators", {"m": case.m}, error="degenerate_seed")
    else:
        m = _scaled_matrix(rng)
        return Query("generators", ("generators", "--matrix", _mat_json(m)),
                     "generators", {"m": m}, error="not_an_involution")
    if rng.random() < 0.3:
        points = rng.randint(3, 9)
        argv += ("--format", "csv", "--points", str(points),
                 f"--t-max={rng.uniform(0.5, 3.0)!r}")
        return Query("generators", argv, "generators_csv", data, rows=2 * points)
    return Query("generators", argv, "generators", data)


def _q_quat(rng):
    kind = rng.random()
    if kind < 0.4:
        m = _scaled_matrix(rng)
        return Query("quat", ("quat", "--from-matrix", _mat_json(m)), "quat_matrix", {"m": m})
    if kind < 0.5:
        s = rng.magnitude()
        q = tuple(s * rng.uniform(-1.0, 1.0) for _ in range(4))
        text = json.dumps(dict(zip("wxyz", q)))
        return Query("quat", ("quat", "--to-matrix", text), "quat_to_matrix", {"q": q})
    which = rng.choice(("identity", "neg"))
    t = rng.uniform(-2.0, 2.0) if which == "identity" else rng.uniform(-1.4, 1.4)
    phi = rng.uniform(-math.pi, math.pi)
    argv = ("quat", "--root", which, f"--t={t!r}", f"--phi={phi!r}")
    if rng.random() < 0.5:
        argv += ("--decompose",)
    if which == "neg" and rng.random() < 0.1:  # cos t within rounding of 0
        argv = ("quat", "--root", "neg", f"--t={math.pi / 2!r}", f"--phi={phi!r}")
        return Query("quat", argv, "quat_root", {"which": which},
                     error="singular_parameter")
    return Query("quat", argv, "quat_root", {"which": which})


_REAL_SPECTRUM = ("pos_distinct", "jordan_block", "scalar", "neg_mixed", "inv_general")
_MATFUN_CLASSES = _REAL_SPECTRUM + ("complex", "skew_involution")


def _q_matfun(rng, classes=_MATFUN_CLASSES):
    case = MATRIX_CLASSES[rng.choice(classes)](rng)
    if rng.random() < 0.5:
        return Query("matfun", ("matfun", "--matrix", _mat_json(case.m), "--all-branches"),
                     "matfun_branches", {"case": case})
    error = None if case.primary else "function_undefined_at_eigenvalue"
    return Query("matfun", ("matfun", "--matrix", _mat_json(case.m), "--function", "sqrt"),
                 "matfun_sqrt", {"case": case}, error=error)


_FAMILIES = ("upper-b-plus-minus", "upper-b-minus-plus",
             "lower-c-plus-minus", "lower-c-minus-plus")


def _family_argv(rng, sub: str) -> tuple[str, ...]:
    """``sub --family F`` with the parameter that family takes."""
    family = rng.choice(_FAMILIES + ("identity", "neg-identity"))
    argv = (sub, "--family", family)
    if family.startswith("upper"):
        argv += (f"--b={_sign(rng) * rng.uniform(0.1, 10.0)!r}",)
    elif family.startswith("lower"):
        argv += (f"--c={_sign(rng) * rng.uniform(0.1, 10.0)!r}",)
    return argv


def _q_decompose(rng):
    kind = rng.random()
    if kind < 0.4:
        case = _inv_general(rng)
        return Query("decompose", ("decompose", "--matrix", _mat_json(case.m)),
                     "decompose", {"m": case.m})
    if kind < 0.6:
        case = _inv_triangular(rng)
        return Query("decompose", ("decompose", "--matrix", _mat_json(case.m)),
                     "decompose", {"m": case.m})
    if kind < 0.9:
        return Query("decompose", _family_argv(rng, "decompose"), "decompose", {})
    m = _scaled_matrix(rng)
    return Query("decompose", ("decompose", "--matrix", _mat_json(m)),
                 "decompose", {"m": m}, error="not_an_involution")


def _q_orbit(rng):
    if rng.random() < 0.5:
        m = _inv_general(rng).m
    else:
        m = tuple(rng.uniform(-2.0, 2.0) for _ in range(4))
    steps = rng.randint(1, 8)
    x, y = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
    fmt = rng.choice(("csv", "json"))
    return Query("orbit", ("orbit", "--matrix", _mat_json(m), f"--x={x!r}", f"--y={y!r}",
                           "--steps", str(steps), "--format", fmt),
                 "orbit", {"m": m, "fmt": fmt, "start": (x, y)}, rows=steps + 1)


def _q_roots(rng, max_sample: int = 12):
    kind = rng.random()
    if kind < 0.35:
        a = rng.uniform(-5.0, 5.0)
        b = _sign(rng) * _log_uniform(rng, -3, 3)
        of = rng.choice(("identity", "neg-identity"))
        return Query("roots", ("roots", "--of", of, f"--a={a!r}", f"--b={b!r}"),
                     "roots_one", {"sign": 1.0 if of == "identity" else -1.0})
    if kind < 0.45:
        of = rng.choice(("identity", "neg-identity"))
        return Query("roots", ("roots", "--of", of, f"--a={rng.uniform(-2, 2)!r}", "--b", "0"),
                     "roots_one", {"sign": 1.0 if of == "identity" else -1.0},
                     error="degenerate_parameter")
    if kind < 0.75:  # every family member, -I2 included, is a root of I2
        return Query("roots", _family_argv(rng, "roots"), "roots_one", {"sign": 1.0})
    n = rng.randint(1, max_sample)
    of = rng.choice(("identity", "neg-identity"))
    return Query("roots", ("roots", "--of", of, "--sample", str(n),
                           "--seed", str(rng.randrange(10**6)),
                           f"--range={rng.uniform(1.0, 20.0)!r}"),
                 "roots_sample", {"sign": 1.0 if of == "identity" else -1.0}, rows=n)


def _q_sample_small(rng):
    return _cloud_doc(rng, rng.choice(("one_sheet", "two_sheet", "cone")),
                      rng.choice(("csv", "json")), rng.randint(2, 6), 2 * rng.randint(1, 3))


QUERY_KINDS = {
    "classify": _q_classify, "bell": _q_bell, "generators": _q_generators,
    "quat": _q_quat, "matfun": _q_matfun, "decompose": _q_decompose,
    "orbit": _q_orbit, "roots": _q_roots,
}

#: Queries per query-mix cycle, by subcommand.
QUERY_MIX = {"classify": 200, "bell": 150, "generators": 125, "quat": 150,
             "matfun": 200, "decompose": 125, "orbit": 100, "roots": 150}


def query_mix(seed: int) -> list[Query]:
    rng = _rng("query-mix", seed)
    queries = []
    for kind, count in QUERY_MIX.items():
        queries += [QUERY_KINDS[kind](rng) for _ in range(count)]
    rng.shuffle(queries)
    return queries


def cli_cold(seed: int) -> list[Query]:
    """Two shuffled passes over all nine subcommands, small inputs.

    At about 1 s a call, one cycle fits a 20 s run, and every run grades
    every call.  Magnitudes stay within 1e-3..1e3 and matfun gets real
    spectra: this workload times process start.  The defects those choices
    avoid are counted by query-mix and lib-analyze.  The first nine queries
    cover every subcommand once; the traced run uses exactly those.
    """
    rng = _rng("cli-cold", seed, mag=(-3, 3))
    queries = []
    for _ in range(2):
        one = [QUERY_KINDS[k](rng) for k in QUERY_KINDS if k not in ("matfun", "roots")]
        one += [_q_matfun(rng, _REAL_SPECTRUM), _q_roots(rng, max_sample=4),
                _q_sample_small(rng)]
        rng.shuffle(one)
        queries += one
    return queries


# -- point clouds -------------------------------------------------------------

#: Grid of every cloud-bulk ``sample`` document, and rows of every
#: ``roots --sample`` document.
CLOUD_NU = CLOUD_NV = 80
CLOUD_ROOTS = 6400


def _cloud_doc(rng, locus: str, fmt: str, nu: int, nv: int) -> Query:
    alpha = rng.choice((-3.0, -2.0, -1.0, 0.0, 0.5, 1.0, 2.0, 4.0))
    if locus == "cone":
        beta = alpha * alpha / 4.0
    elif locus == "one_sheet":
        beta = alpha * alpha / 4.0 - rng.uniform(0.25, 4.0)
    else:
        beta = alpha * alpha / 4.0 + rng.uniform(0.25, 4.0)
    span = rng.uniform(1.0, 2.5)
    # every caller passes an even nv, which keeps the cone's rho grid off 0,
    # so every row is emitted
    rows = nu * nv + (locus == "cone")
    return Query("sample", ("sample", f"--alpha={alpha!r}", f"--beta={beta!r}",
                            "--nu", str(nu), "--nv", str(nv), f"--span={span!r}",
                            "--format", fmt),
                 "cloud_" + fmt, {"alpha": alpha, "beta": beta, "locus": locus}, rows=rows)


def cloud_bulk(seed: int) -> list[Query]:
    """One cycle: each locus in CSV and JSON, then roots --sample of +-I2."""
    rng = _rng("cloud-bulk", seed)
    docs = [_cloud_doc(rng, locus, fmt, CLOUD_NU, CLOUD_NV)
            for locus in ("one_sheet", "two_sheet", "cone") for fmt in ("csv", "json")]
    for of, sign in (("identity", 1.0), ("neg-identity", -1.0)):
        docs.append(Query("roots", ("roots", "--of", of, "--sample", str(CLOUD_ROOTS),
                                    "--seed", str(rng.randrange(10**6))),
                          "roots_sample", {"sign": sign}, rows=CLOUD_ROOTS))
    rng.shuffle(docs)
    return docs


def build(workload: str, seed: int) -> list:
    """The fixed operation list of one workload cycle."""
    if workload == "cli-cold":
        return cli_cold(seed)
    if workload == "query-mix":
        return query_mix(seed)
    if workload == "cloud-bulk":
        return cloud_bulk(seed)
    if workload == "lib-analyze":
        return lib_batch(seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("cli-cold", "query-mix", "cloud-bulk", "lib-analyze")

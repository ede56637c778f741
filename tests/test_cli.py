import gc
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import invgeo
from invgeo import cli, errors
from invgeo.cli import run
from invgeo.roots import RootTag

import goldens
import oracle

GOLDEN_DIR = goldens.GOLDEN_DIR

SWAP = '{"a": 0, "b": 1, "c": 1, "d": 0}'

GOLDEN_CASES = goldens.CASES
GOLDEN_NAMES = [name for name, _ in GOLDEN_CASES]


def _run(argv, capsys):
    """run(argv) as (exit code, stdout, stderr); argparse's SystemExit code
    is the exit code."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def golden_runs():
    """The in-process pass: {name: (first run, second run, argparse trees
    built)} for each golden line, a run being (exit code, stdout, stderr).
    Each run starts with no tree."""
    runs = {}
    with mock.patch.object(cli, "build_parser", wraps=cli.build_parser) as build:
        for name, argv in GOLDEN_CASES:
            build.reset_mock()
            outcomes = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                with mock.patch.object(cli, "_tree", None), redirect_stdout(out), \
                        redirect_stderr(err):
                    code = run(argv)
                outcomes.append((code, out.getvalue(), err.getvalue()))
            runs[name] = (*outcomes, build.call_count)
    return runs


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_output(name, golden_runs):
    (code, out, err), _, _ = golden_runs[name]
    golden = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDEN"):
        golden.write_text(out, encoding="utf-8")
    assert (code, out, err) == (0, golden.read_text(encoding="utf-8"), "")


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_byte_identical_across_runs(name, golden_runs):
    first, second, _ = golden_runs[name]
    assert second == first


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_lines_are_read_from_the_flag_table(name, golden_runs):
    # a line that fell back to argparse would lose the reader's speed and
    # fail nothing else
    assert golden_runs[name][2] == 0, "built the argparse tree"


def test_malformed_matrix_is_usage_error(capsys):
    # JSON that parses but holds a str, a bool, a null or an int beyond the
    # float range where a number belongs is malformed too
    for argv, detail in [
        (["bell", "--matrix", "not json"], "malformed matrix JSON"),
        (["classify", "--matrix", '{"a": "1", "b": 0, "c": 0, "d": true}'],
         "JSON key 'a' must be a number, got '1'"),
        (["classify", "--matrix", '{"a": 1, "b": 0, "c": null, "d": 1}'],
         "JSON key 'c' must be a number, got None"),
        (["classify", "--matrix", '{"a": 1, "b": 0, "c": 0, "d": 1%s}' % ("0" * 400)],
         "JSON key 'd' is an integer beyond the float range"),
        (["quat", "--to-matrix", '{"w": "2", "x": false, "y": 0, "z": 0}'],
         "JSON key 'w' must be a number, got '2'"),
        (["quat", "--to-matrix", '{"w": 1, "x": false, "y": 0, "z": 0}'],
         "JSON key 'x' must be a number, got False"),
        # an integer literal longer than Python's 4300-digit int-string limit
        (["classify", "--matrix", '{"a": 1%s, "b": 0, "c": 0, "d": 1}' % ("0" * 5000)],
         "malformed matrix JSON"),
        (["quat", "--to-matrix", '{"w": 1%s, "x": 0, "y": 0, "z": 0}' % ("0" * 5000)],
         "malformed quaternion JSON"),
    ]:
        code, out, err = _run(argv, capsys)
        assert code == 2, argv
        doc = json.loads(err)
        assert doc["error"] == "usage"
        assert doc["detail"].startswith(detail)
        assert out == ""


def test_missing_required_input_is_usage_error(capsys, monkeypatch, tmp_path):
    # the handlers' own usage errors, each a line the flag reader takes
    missing = str(tmp_path / "missing.json")
    for env, argv, detail in [
        (None, ["classify"], "classify needs either --matrix or both --alpha and --beta"),
        ("abc", ["classify", "--alpha", "0", "--beta", "-1"], "INVGEO_TOL is not a number"),
        (None, ["classify", "--matrix", SWAP, "--matrix-file", missing],
         "provide exactly one of --matrix or --matrix-file"),
        (None, ["classify", "--matrix-file", missing], f"cannot read {missing}"),
        (None, ["roots", "--of", "identity", "--a", "1"], "roots --of identity needs --a and --b"),
        (None, ["roots", "--of", "neg-identity", "--b", "1"],
         "roots --of neg-identity needs --a and --b"),
        (None, ["bell", "--x", "0"], "bell needs --matrix or all of --x, --y, --z"),
        (None, ["generators"], "generators needs --matrix or --phi"),
        (None, ["quat"], "quat needs one of --root, --to-matrix, --from-matrix"),
    ]:
        if env is None:
            monkeypatch.delenv("INVGEO_TOL", raising=False)
        else:
            monkeypatch.setenv("INVGEO_TOL", env)
        code, out, err = _run(argv, capsys)
        assert (code, out) == (2, ""), argv
        doc = json.loads(err)
        assert doc["error"] == "usage", argv
        assert doc["detail"].startswith(detail), (argv, doc)


def test_seed_is_a_flag_of_roots_alone(capsys):
    seeded = {name for name, (_, _, flags) in cli._COMMANDS.items()
              if any("--seed" in options for options, _ in flags)}
    assert seeded == {"roots"}
    argv = ["classify", "--alpha", "0", "--beta", "-1", "--seed", "1"]
    code, out, err = _run(argv, capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": "unrecognized arguments: --seed 1"}


def test_domain_error_exit_code(capsys):
    code, out, err = _run(["roots", "--of", "identity", "--a", "1", "--b", "0"], capsys)
    assert code == 1
    doc = json.loads(err)
    assert doc["error"] == "degenerate_parameter"
    assert out == ""


def test_not_an_involution_error_code(capsys):
    code, _, err = _run(["classify", "--matrix", '{"a": 0, "b": 1, "c": 0, "d": 0}'], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "not_an_involution"


def test_singular_parameter_error_code(capsys):
    code, _, err = _run(["quat", "--root", "neg", "--t", "1.5707963267948966"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "singular_parameter"


FAMILY_OF_NEG_IDENTITY = ["roots", "--of", "neg-identity", "--family", "upper-b-plus-minus",
                          "--b", "5"]


def test_family_with_neg_identity_is_usage_error(capsys):
    # the families are roots of I2 only
    code, out, err = _run(FAMILY_OF_NEG_IDENTITY, capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    assert out == ""
    proc = subprocess.run([sys.executable, "-m", "invgeo.cli", *FAMILY_OF_NEG_IDENTITY],
                          capture_output=True, text=True)
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "usage"
    assert proc.stdout == ""


def test_matfun_sqrt_of_a_complex_spectrum_is_the_principal_root(capsys):
    c = math.sqrt(0.5)
    code, out, err = _run(["matfun", "--matrix", '{"a": 0, "b": -1, "c": 1, "d": 0}'], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["function"] == "sqrt"
    got = doc["result"]
    assert max(abs(got[k] - want) for k, want in zip("abcd", (c, -c, c, c))) <= 1e-15


@pytest.mark.parametrize("matrix", ['{"a": -1, "b": 0, "c": 0, "d": -4}',
                                    '{"a": -4, "b": 0, "c": 0, "d": 1}',
                                    '{"a": 0, "b": 1, "c": 0, "d": 0}',
                                    '{"a": -2, "b": 0, "c": 0, "d": -2}'])
def test_matfun_sqrt_without_a_principal_root_keeps_its_error_code(matrix, capsys):
    code, out, err = _run(["matfun", "--matrix", matrix, "--function", "sqrt"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "function_undefined_at_eigenvalue"
    assert out == ""


def test_matfun_square_of_a_rotation_is_its_matrix_product(capsys):
    code, out, err = _run(["matfun", "--matrix", '{"a": 0, "b": -1, "c": 1, "d": 0}',
                           "--function", "square"], capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["function"] == "square"
    assert [doc["result"][k] for k in "abcd"] == [-1.0, 0.0, 0.0, -1.0]


def test_matfun_square_beyond_the_float_range_is_a_non_finite_entry(capsys):
    code, out, err = _run(["matfun", "--matrix", '{"a": 1e200, "b": 0, "c": 0, "d": 1}',
                           "--function", "square"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "non_finite_entry"
    assert out == ""


def test_numeric_overflow_is_reported_not_raised(capsys):
    code, _, err = _run(["quat", "--root", "identity", "--t", "1000"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "numeric_error"


@pytest.mark.parametrize("argv, detail", [
    (["bell", "--x", "1e300", "--y", "1e300", "--z", "0", "--alpha", "0", "--beta", "1"],
     "residual is beyond the float range"),
    (["classify", "--alpha", "1e200", "--beta", "0"], "radius_sq is beyond the float range"),
    # one-sheet, but radius_sq = 5e-341 is below the smallest float
    (["classify", "--alpha", "1e-170", "--beta", "0"],
     "radius_sq = alpha^2/2 - 2 beta is below the float range"),
], ids=["bell_residual", "classify_radius_sq", "classify_radius_sq_underflow"])
def test_result_beyond_the_float_range_is_a_numeric_error(argv, detail, capsys):
    # the document would otherwise carry Infinity, which strict JSON parsers reject
    code, out, err = _run(argv, capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "numeric_error", "detail": detail}


def test_sampled_root_whose_square_overflows_keeps_its_error(capsys):
    code, out, err = _run(["roots", "--sample", "50", "--range", "5e153", "--seed", "1"], capsys)
    assert code == 1
    assert json.loads(err) == {"error": "non_finite_entry", "detail": "c must be finite, got nan"}
    assert out == ""


@settings(max_examples=300, deadline=None)
@given(of=st.sampled_from(["identity", "neg-identity"]), n=st.integers(1, 12),
       # every range from the 1e-3 cut on |b| up, and the band just above the
       # cut that keeps fewer than 1 in 1024 draws, 1e-3 * 1024/1023 ~ 1.000978e-3
       param_range=st.floats(-3.0, math.log10(1e308)).map(lambda e: 10.0**e)
       | st.floats(1e-3, 1.002e-3),
       seed=st.integers(0, 2**64))
@example(of="identity", n=50, param_range=5e153, seed=1)  # c*a overflows
@example(of="identity", n=1, param_range=1.5e154, seed=690)  # a*b overflows
@example(of="identity", n=1, param_range=1e-3, seed=0)  # no b at all
@example(of="identity", n=1, param_range=0.00100000001, seed=1)
@example(of="neg-identity", n=12, param_range=1.001e-3, seed=3)  # 1 in 1001 kept
def test_sampled_roots_carry_the_residual_of_their_square(of, n, param_range, seed):
    # each row's residual is _square_residual's bit for bit, and a square
    # with an entry beyond the float range is its first NonFiniteEntry; a
    # range whose draws keep fewer than 1 in 1024 b with |b| >= 1e-3 is
    # refused, and no other
    from invgeo import roots
    from invgeo.mat2 import _square_residual

    refused = 1023 * Fraction(param_range) < 1024 * Fraction(1e-3)
    sign = 1.0 if of == "identity" else -1.0
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(["roots", "--of", of, "--sample", str(n), "--range", repr(param_range),
                    "--seed", str(seed)])
    try:
        rows = roots._sample(sign, n, seed, param_range)
        want = [_square_residual(a, b, c, -a, sign, 0.0, 0.0, sign) for a, b, c, _ in rows]
    except (errors.InvGeoError, OverflowError, ValueError) as exc:
        error = exc.code if isinstance(exc, errors.InvGeoError) else "numeric_error"
        assert (code, out.getvalue()) == (1, "")
        assert json.loads(err.getvalue()) == {"error": error, "detail": str(exc)}
        assert str(exc).startswith("sampling range ") == refused
        return
    assert not refused
    assert (code, err.getvalue()) == (0, "")
    samples = json.loads(out.getvalue())["samples"]
    assert [tuple(s["matrix"][k] for k in "abcd") for s in samples] == rows
    assert [s["residual"].hex() for s in samples] == [r.hex() for r in want]


@pytest.mark.parametrize("of", ["identity", "neg-identity"])
@pytest.mark.parametrize("flags, error, detail", [
    (["--sample", "5", "--range", "1e200", "--seed", "1"],
     "non_finite_entry", "c must be finite, got -inf"),
    (["--sample", "5", "--range", "1e-4"],
     "degenerate_parameter", "sampling range 0.0001 leaves no b with |b| >= 0.001"),
    (["--sample", "5", "--range", "-1"], "numeric_error", "high - low < 0"),
    (["--sample", "5", "--range", "1e308"], "numeric_error", "high - low range exceeds valid bounds"),
    (["--sample", "0", "--range", "1e-4"], "invalid_count", "need n >= 1, got 0"),
], ids=["c_overflows", "no_admissible_b", "negative_range", "range_overflows", "no_rows"])
def test_sampled_roots_report_the_first_error_of_the_draw_loop(of, flags, error, detail, capsys):
    code, out, err = _run(["roots", "--of", of, *flags], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": error, "detail": detail}


@pytest.mark.parametrize("points", [0, -2])
def test_generators_csv_without_points_is_an_invalid_count(points, capsys):
    code, out, err = _run(["generators", "--phi", "0.5", "--format", "csv",
                           "--points", str(points)], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "invalid_count",
                               "detail": f"need points >= 1, got {points}"}
    # the JSON document has no points, so it ignores the flag
    assert _run(["generators", "--phi", "0.5", "--points", str(points)], capsys) == \
        _run(["generators", "--phi", "0.5"], capsys)


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("flags, err_doc", [
    (["--alpha", "1e308", "--beta", "0", "--span", "2"],
     '{"detail": "x must be finite, got inf", "error": "non_finite_entry"}'),
    (["--alpha", "1.7e308", "--beta=-1e308", "--span", "0.5"],
     '{"detail": "a must be finite, got inf", "error": "non_finite_entry"}'),
    (["--alpha=-1.7e308", "--beta=-1e308", "--span", "0.5"],
     '{"detail": "d must be finite, got -inf", "error": "non_finite_entry"}'),
    (["--alpha", "0", "--beta", "-1", "--span", "800"],  # cosh(800) overflows
     '{"detail": "math range error", "error": "numeric_error"}'),
], ids=["bell_x", "matrix_a", "matrix_d", "ring_factor"])
def test_sample_beyond_the_float_range_names_the_first_bad_value(flags, err_doc, fmt, capsys):
    code, out, err = _run(["sample", *flags, "--nu", "4", "--nv", "4", "--format", fmt], capsys)
    assert (code, out, err) == (1, "", err_doc + "\n")


def test_decompose_family_general_is_its_matrix_decomposed(capsys):
    code, out, err = _run(["decompose", "--family", "general", "--a", "0.5", "--b", "2"], capsys)
    assert code == 0, err
    root = invgeo.make_root(invgeo.RootFamily(invgeo.RootTag.GENERAL, a=0.5, b=2.0))
    assert _run(["decompose", "--matrix", json.dumps(root.to_json_dict())], capsys) == (0, out, "")


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "doc.json"
    code, out, _ = _run(["classify", "--alpha", "0", "--beta", "-1", "-o", str(target)], capsys)
    assert code == 0
    assert out == ""
    doc = json.loads(target.read_text())
    assert doc == {"class": "one_sheet", "radius_sq": 2.0}


def test_matrix_file_input(tmp_path, capsys):
    path = tmp_path / "m.json"
    path.write_text(SWAP)
    code, out, _ = _run(["classify", "--matrix-file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["tag"] == "general"


def test_tolerance_env_override(capsys, monkeypatch):
    matrix = '{"a": 1.000001, "b": 0, "c": 0, "d": -1}'
    code, _, err = _run(["classify", "--matrix", matrix], capsys)
    assert code == 1  # residual ~2e-6 exceeds the default 1e-9
    monkeypatch.setenv("INVGEO_TOL", "1e-4")
    code, out, _ = _run(["classify", "--matrix", matrix], capsys)
    assert code == 0
    assert json.loads(out)["tag"] == "lower_c_plus_minus"


def test_a_fine_tolerance_keeps_a_small_genuine_b_general(capsys, monkeypatch):
    matrix = '{"a": 0.5, "b": 1e-13, "c": 7.5e12, "d": -0.5}'
    monkeypatch.setenv("INVGEO_TOL", "1e-14")
    for command in ("classify", "decompose"):
        code, out, err = _run([command, "--matrix", matrix], capsys)
        assert code == 0, err
    code, out, _ = _run(["classify", "--matrix", matrix], capsys)
    assert json.loads(out) == {"params": {"a": 0.5, "b": 1e-13}, "tag": "general"}


@pytest.mark.parametrize("command", ["roots", "decompose"])
def test_a_fine_tolerance_keeps_a_small_genuine_b_general_family(command, capsys, monkeypatch):
    monkeypatch.setenv("INVGEO_TOL", "1e-14")
    code, out, err = _run([command, "--family", "general", "--a", "0.5", "--b", "1e-13"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["recomposed" if command == "decompose" else "matrix"] == {
        "a": 0.5, "b": 1e-13, "c": 7.5e12, "d": -0.5}


def _no_constant(name):
    raise AssertionError(f"non-strict JSON constant {name}")


def test_quat_modulus_beyond_the_float_range_is_a_numeric_error(capsys):
    code, out, err = _run(["quat", "--to-matrix", '{"w": 0, "x": 0, "y": 0, "z": 1e200}'], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "numeric_error",
                               "detail": "modulus is beyond the float range"}


def test_quat_modulus_of_large_entries_is_strict_json(capsys):
    code, out, err = _run(["quat", "--to-matrix", '{"w": 1e200, "x": 0, "y": 1e200, "z": 0}'],
                          capsys)
    assert (code, err) == (0, "")
    doc = json.loads(out, parse_constant=_no_constant)
    assert (doc["modulus"], doc["class"]) == (0.0, "lightlike")


# -- the CLI contract ---------------------------------------------------------

#: The codes a nonzero exit may report: every domain error's, and the two run() adds.
_ERROR_CODES = frozenset(
    {cls.code for cls in vars(errors).values()
     if isinstance(cls, type) and issubclass(cls, errors.InvGeoError)
     and cls is not errors.InvGeoError}
    | {"usage", "numeric_error"})

#: Any finite float, ±0 and subnormals included, with the edges drawn often.
_ANY_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.0, -1.0,
     2.0 ** 1023, 1.7976931348623157e308, -1.7976931348623157e308])
_FEW = st.integers(-1, 4)


@st.composite
def _contract_lines(draw):
    """A command line of any subcommand, its numeric flags drawn from the
    whole finite range."""
    def num():
        return repr(draw(_ANY_FINITE))

    def entries(keys):
        return json.dumps({k: draw(_ANY_FINITE) for k in keys})

    def family():
        line = ["--family", draw(st.sampled_from(cli._FAMILIES))]
        for flag in ("--a", "--b", "--c"):
            if draw(st.booleans()):
                line += [flag, num()]
        return line

    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    form = draw(st.integers(0, 2))
    of = draw(st.sampled_from(["identity", "neg-identity"]))
    if command == "roots":
        line = [["--of", of, "--a", num(), "--b", num()], family(),
                ["--of", of, "--sample", str(draw(_FEW)), "--range", num(),
                 "--seed", str(draw(st.integers(0, 2**32)))]][form]
    elif command == "classify":
        line = ["--matrix", entries("abcd")] if form else ["--alpha", num(), "--beta", num()]
    elif command == "bell":
        if form:
            a, b, c, d = (draw(_ANY_FINITE) for _ in range(4))
            alpha = a + d  # in the hyperplane, where the trace is a float
            if not math.isfinite(alpha) or draw(st.integers(0, 3)) == 0:
                alpha = draw(_ANY_FINITE)
            line = ["--matrix", json.dumps(dict(a=a, b=b, c=c, d=d)), "--alpha", repr(alpha)]
        else:
            line = ["--x", num(), "--y", num(), "--z", num(), "--alpha", num()]
        if draw(st.booleans()):
            line += ["--beta", num()]
    elif command == "generators":
        line = ["--matrix", entries("abcd")] if form else ["--phi", num()]
        if draw(st.booleans()):
            line += ["--seed-matrix", entries("abcd")]
        if draw(st.booleans()):
            line += ["--format", "csv", "--points", str(draw(_FEW)), "--t-max", num()]
    elif command == "quat":
        line = [["--root", draw(st.sampled_from(["identity", "neg"])), "--t", num(),
                 "--phi", num()] + ["--decompose"] * draw(st.integers(0, 1)),
                ["--to-matrix", entries("wxyz")],
                ["--from-matrix", entries("abcd")]][form]
    elif command == "matfun":
        line = ["--matrix", entries("abcd"),
                *[["--function", "sqrt"], ["--function", "square"], ["--all-branches"]][form]]
    elif command == "sample":
        line = ["--alpha", num(), "--beta", num(), "--nu", str(draw(_FEW)),
                "--nv", str(draw(_FEW)), "--span", num(),
                "--format", draw(st.sampled_from(["csv", "json"]))]
    elif command == "decompose":
        line = ["--matrix", entries("abcd")] if form else family()
    else:
        line = ["--matrix", entries("abcd"), "--x", num(), "--y", num(),
                "--steps", str(draw(_FEW)), "--format", draw(st.sampled_from(["csv", "json"]))]
    return [command, *line]


def _contract_outcome(argv):
    """run(argv)'s document, a failure's error code, or None for CSV, once the
    contract is checked: exit 0 writes strict JSON or CSV of finite floats,
    and a nonzero exit one JSON line on stderr with a known error code."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2), (argv, code)
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, out, err)
        doc = json.loads(err, parse_constant=_no_constant)
        assert set(doc) == {"error", "detail"} and doc["error"] in _ERROR_CODES, (argv, err)
        return doc["error"]
    assert err == "", (argv, err)
    if out.startswith(("x,y,z,", "step,")):
        header, *rows = out.splitlines()
        for row in rows:
            fields = row.split(",")
            numbers = fields[:-1] if header.endswith(",tag") else fields
            assert all(math.isfinite(float(f)) for f in numbers), (argv, row)
        return None
    return json.loads(out, parse_constant=_no_constant)


def _assert_normwise(got: dict, want: dict, argv, slack: float = 0.0):
    """got equals want up to slack, 4 ulps of want's largest entry and 4 of
    the smallest subnormal."""
    scale = max(abs(v) for v in want.values())
    error = max(abs(got[k] - want[k]) for k in want)
    assert error <= slack + 4 * 2.0 ** -52 * scale + 4 * 5e-324, (argv, got, want)


@settings(max_examples=2000, deadline=None, derandomize=True)
@given(argv=_contract_lines())
@example(argv=["bell", "--matrix", '{"a": -1.7976931348623157e308, "b": 0.0, "c": 0.0, '
               '"d": 1.8403452450812853e299}', "--alpha=-1.7976931330219705e+308"])
def test_every_command_line_keeps_the_output_contract(argv):
    # The roots -> classify --matrix round trip is left out: classify_involution
    # still reads a triangular family from one negligible off-diagonal entry
    # (ROADMAP item 2), so a general root with a tiny b comes back another family.
    doc = _contract_outcome(argv)
    if not isinstance(doc, dict):
        return
    if argv[:2] == ["quat", "--from-matrix"]:
        assert doc["matrix"] == json.loads(argv[2]), argv
    if argv[:2] == ["quat", "--to-matrix"]:
        back = _contract_outcome(["quat", "--from-matrix", json.dumps(doc["matrix"])])
        assert isinstance(back, dict), (argv, back)
        _assert_normwise(back["quaternion"], json.loads(argv[2]), argv)
    if argv[:2] == ["bell", "--matrix"]:
        point, matrix = doc["bell"], doc["matrix"]
        inverse = [f"--{k}={point[k]!r}" for k in ("x", "y", "z", "alpha")]
        back = _contract_outcome(["bell", *inverse])
        # from_bell's diagonal alpha/2 +- x/sqrt2, exactly, from the floats it adds
        half, x = Fraction(0.5 * point["alpha"]), Fraction(point["x"] / math.sqrt(2.0))
        if max(abs(half + x), abs(half - x)) >= oracle.OVERFLOW:
            assert back == "non_finite_entry", (argv, back)
            return
        assert isinstance(back, dict), (argv, back)
        # the point lies on trace = alpha, which the matrix meets within the
        # tolerance; exactly, since a + d may be beyond the float range
        slack = abs(Fraction(point["alpha"]) - Fraction(matrix["a"]) - Fraction(matrix["d"]))
        _assert_normwise(back["matrix"], matrix, argv, slack=float(slack))


def test_bell_point_at_the_top_of_the_float_range_is_read_back(capsys):
    # y - z = 2.5e308 overflowed, though (y - z)/sqrt2 is the float maximum
    matrix = '{"a": 0, "b": 1.7976931348623157e308, "c": 0, "d": 0}'
    code, out, err = _run(["bell", "--matrix", matrix], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["bell"] == {"x": 0.0, "y": 1.271161006153646e+308,
                                       "z": -1.271161006153646e+308, "alpha": 0.0}
    code, out, err = _run(["bell", "--x", "0", "--y", "1.271161006153646e+308",
                           "--z", "-1.271161006153646e+308"], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["matrix"] == {"a": 0.0, "b": 1.7976931348623153e+308, "c": 0.0, "d": 0.0}


def test_quat_from_matrix_writes_the_matrix_it_was_given(capsys):
    # the round trip through the quaternion would print c = 0.8999999999999999
    matrix = {"a": -1.1, "b": -2.1, "c": 0.9, "d": -2.6}
    code, out, err = _run(["quat", "--from-matrix", json.dumps(matrix)], capsys)
    assert (code, err) == (0, "")
    assert json.loads(out)["matrix"] == matrix
    # the determinant, the quaternion's modulus, is beyond the float range
    matrix = {"a": 8.98846567431158e307, "b": 8.98846567431158e307,
              "c": 8.98846567431158e307, "d": 1.7976931348623157e308}
    code, out, err = _run(["quat", "--from-matrix", json.dumps(matrix)], capsys)
    assert (code, out) == (1, "")
    assert json.loads(err) == {"error": "numeric_error",
                               "detail": "modulus is beyond the float range"}


def test_quat_from_matrix_of_a_lightlike_quaternion_at_the_top_of_the_range(capsys):
    # det is exactly 0: w = y and x = z.  The float sum of the scaled squares
    # leaves a rounding residual, which 4**e scaled back would take past the
    # float range
    matrix = {"a": 8.98846567431158e307, "b": 8.98846567431158e307,
              "c": 1.7976931348623157e308, "d": 1.7976931348623157e308}
    assert _run(["quat", "--from-matrix", json.dumps(matrix)], capsys) == (0, """{
  "class": "lightlike",
  "matrix": {
    "a": 8.98846567431158e+307,
    "b": 8.98846567431158e+307,
    "c": 1.7976931348623157e+308,
    "d": 1.7976931348623157e+308
  },
  "modulus": 0.0,
  "quaternion": {
    "w": 1.348269851146737e+308,
    "x": -4.494232837155789e+307,
    "y": 1.348269851146737e+308,
    "z": -4.494232837155789e+307
  }
}
""", "")


def test_a_root_far_from_order_one_is_read_back_by_every_command(capsys):
    code, out, err = _run(["roots", "--of", "identity", "--a", "6715.3", "--b", "-1344.7"], capsys)
    assert code == 0, err
    matrix = json.dumps(json.loads(out)["matrix"])
    for argv in (["classify", "--matrix", matrix], ["decompose", "--matrix", matrix],
                 ["generators", "--matrix", matrix]):
        code, out, err = _run(argv, capsys)
        assert code == 0, (argv, err)
    code, out, _ = _run(["classify", "--matrix", matrix], capsys)
    assert json.loads(out) == {"params": {"a": 6715.3, "b": -1344.7}, "tag": "general"}


def _perfbench_check():
    """perfbench/check.py, the benchmark's own answer checker."""
    path = Path(__file__).parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("t_max", ["1e8", "1e10"])
def test_a_long_ruling_stays_in_the_hyperplane(t_max, capsys):
    check = _perfbench_check()
    argv = ["generators", "--phi", "0.5", "--format", "csv", "--points", "3", "--t-max", t_max]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    assert check._check_generators_csv(SimpleNamespace(rows=6), out) is None
    for row in out.splitlines()[1:]:
        m = tuple(float(v) for v in row.split(",")[3:7])
        size = check.norm(m)
        assert abs(check.exact_det(m) + 1) <= check.REL * size * size
        assert abs(sum(map(Fraction, m[::3]))) <= check.REL * size


def test_all_branches_far_from_order_one_are_four_distinct_roots(capsys):
    argv = ["matfun", "--matrix", '{"a": 1e200, "b": 1, "c": 0, "d": 1}', "--all-branches"]
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    doc = json.loads(out)
    assert doc["count"] == {"n": 4, "tag": "finite"}
    assert [(r["a"], r["d"]) for r in doc["roots"]] == [(1e100, 1.0), (-1e100, 1.0),
                                                         (1e100, -1.0), (-1e100, -1.0)]


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_invalid_tolerance_env_is_usage_error(value, capsys, monkeypatch):
    monkeypatch.setenv("INVGEO_TOL", value)
    code, out, err = _run(["classify", "--alpha", "0", "--beta", "-1"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    assert out == ""


REPO = Path(__file__).resolve().parent.parent
DEMOS = sorted(path.name for path in (REPO / "demos").glob("*.py"))


def _without_site_packages(*args: str) -> subprocess.CompletedProcess:
    """``python -S ARGS`` with only src/ added to the path.  Without the site
    packages, NumPy, SciPy and hypothesis cannot be imported."""
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("INVGEO_TOL", None)
    return subprocess.run([sys.executable, "-S", *args], capture_output=True, env=env)


def test_no_third_party_package_is_importable_without_site_packages():
    probe = ("import importlib.util, json\n"
             "print(json.dumps([m for m in ('numpy', 'scipy', 'hypothesis')"
             " if importlib.util.find_spec(m)]))")
    proc = _without_site_packages("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


@pytest.fixture(scope="module")
def fresh_report():
    """The fresh-interpreter pass: tests/goldens.py runs every golden line
    through ``python -S -m invgeo.cli``, one new interpreter per line.  Its
    exit status, and {name: None if the line passed, else what it reported}."""
    proc = _without_site_packages(goldens.__file__, sys.executable, "-S", "-m", "invgeo.cli")
    report = {line.removeprefix("ok   "): None for line in proc.stdout.decode().splitlines()}
    for failure in ("\n" + proc.stderr.decode()).split("\nFAIL ")[1:]:
        name, _, problem = failure.partition(": ")
        report[name] = problem
    return proc.returncode, report


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_output_without_site_packages(name, fresh_report):
    problem = fresh_report[1].get(name, "not run")
    assert problem is None, problem


def test_golden_script_checks_a_command_against_every_golden(fresh_report):
    returncode, report = fresh_report
    assert (returncode, report, len(report)) == (0, dict.fromkeys(GOLDEN_NAMES), 25)
    proc = _without_site_packages(goldens.__file__, "--flags")
    assert proc.stdout.decode() == goldens.FLAGS_GOLDEN.read_text(encoding="utf-8")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_without_site_packages(demo):
    proc = _without_site_packages(str(REPO / "demos" / demo))
    assert proc.returncode == 0, proc.stderr.decode()


# imports invgeo.cli, then runs every golden line with stdout discarded;
# sys.modules and the tree after each stage, and what each line returned
FOOTPRINT_PROBE = """
import io, json, sys
from contextlib import redirect_stdout
import invgeo.cli as cli
report = {"import": sorted(sys.modules), "no_tree_after_import": cli._tree is None, "lines": {}}
for name, argv in json.loads(sys.argv[1]):
    had_argparse = "argparse" in sys.modules
    with redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    loads_argparse = "argparse" in sys.modules and not had_argparse
    report["lines"][name] = {"exit": code, "loads_argparse": loads_argparse}
report["after_lines"] = sorted(sys.modules)
report["no_tree_after_lines"] = cli._tree is None
print(json.dumps(report))
"""

_KERNELS = {"invgeo.matfun", "invgeo.xform", "invgeo.splitquat", "invgeo.householder",
            "invgeo.quadric", "invgeo.roots"}
_NEVER_LOADED = {"argparse", "dataclasses", "inspect", "numpy", "scipy"}  # by a golden line


@pytest.fixture(scope="module")
def footprint():
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT_PROBE, json.dumps(GOLDEN_CASES)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_golden_lines_keep_the_footprint(footprint):
    # importing the CLI loads no parser, code generation, array stack or kernel
    assert (_NEVER_LOADED | _KERNELS).isdisjoint(footprint["import"])
    assert footprint["no_tree_after_import"]
    # and the golden lines, closed forms and samplers alike, load no parser,
    # code generation or array stack
    assert [line["exit"] for line in footprint["lines"].values()] == [0] * len(GOLDEN_CASES)
    assert _NEVER_LOADED.isdisjoint(footprint["after_lines"])
    assert footprint["no_tree_after_lines"]


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_golden_line_does_not_import_argparse(name, footprint):
    assert footprint["lines"][name] == {"exit": 0, "loads_argparse": False}


# runs every golden line in one process, with sys.modules before and after
# each: json is dropped again after each line (and after the probe's own
# reading of its input), so that every line starts without it
LINE_LOADS_PROBE = """
import io, json, sys
from contextlib import redirect_stdout

def drop_json():
    for name in [m for m in sys.modules if m == "json" or m.startswith("json.")]:
        del sys.modules[name]

cases = json.loads(sys.argv[1])
drop_json()
import invgeo.cli as cli
report = {"import": sorted(sys.modules), "lines": {}}
for name, argv in cases:
    before = set(sys.modules)
    with redirect_stdout(io.StringIO()):
        code = cli.run(argv)
    report["lines"][name] = {"exit": code, "loads": sorted(set(sys.modules) - before)}
    drop_json()
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def line_loads():
    """The modules that importing invgeo.cli, and then each golden line in
    turn, loads under ``python -S``."""
    proc = _without_site_packages("-c", LINE_LOADS_PROBE, json.dumps(GOLDEN_CASES))
    assert proc.returncode == 0, proc.stderr.decode()
    report = json.loads(proc.stdout)
    assert [line["exit"] for line in report["lines"].values()] == [0] * len(GOLDEN_CASES)
    return report


def test_only_a_line_with_a_json_argument_loads_json(line_loads):
    assert {"json", "typing"}.isdisjoint(line_loads["import"])
    for name, argv in GOLDEN_CASES:
        loads = line_loads["lines"][name]["loads"]
        assert "typing" not in loads, name
        assert ("json" in loads) == any(token.startswith("{") for token in argv), name


def test_each_subcommand_loads_its_kernel_modules(line_loads):
    # loaded on the first golden line that uses it, a line of that
    # subcommand; the generator only on a --sample line, so roots,
    # classify --matrix and decompose build and test roots without it
    first = {}
    for name, argv in GOLDEN_CASES:
        loads = line_loads["lines"][name]["loads"]
        assert "invgeo._pcg64" not in loads or "--sample" in argv, name
        for module in loads:
            if module.startswith("invgeo."):
                first[module] = argv[0]
    assert first == {"invgeo._pcg64": "roots", "invgeo.roots": "roots",
                     "invgeo.quadric": "classify", "invgeo.householder": "generators",
                     "invgeo.splitquat": "quat", "invgeo.matfun": "matfun",
                     "invgeo.xform": "decompose"}


# what ``python -m invgeo.cli ARGS`` runs; an exit handler reports the
# collector's permanent generation and sys.modules
RUN_AS_MAIN = """
import atexit, gc, sys
atexit.register(lambda: print(gc.get_freeze_count(), *sorted(sys.modules), file=sys.stderr))
import runpy
sys.argv = ["invgeo", *sys.argv[1:]]
runpy.run_module("invgeo.cli", run_name="__main__", alter_sys=True)
"""


@pytest.fixture(scope="module")
def classify_as_main():
    """(frozen objects, sys.modules) at the exit of a fresh ``python -S`` that
    runs ``invgeo classify --alpha 0 --beta -1`` as __main__."""
    proc = _without_site_packages("-c", RUN_AS_MAIN, "classify", "--alpha", "0", "--beta", "-1")
    assert proc.returncode == 0, proc.stderr.decode()
    assert json.loads(proc.stdout) == {"class": "one_sheet", "radius_sq": 2.0}
    frozen, *loaded = proc.stderr.decode().splitlines()[-1].split()
    return int(frozen), set(loaded)


def test_classify_as_main_loads_only_the_modules_it_uses(classify_as_main):
    _, loaded = classify_as_main
    assert "invgeo.quadric" in loaded
    assert (_NEVER_LOADED | _KERNELS - {"invgeo.quadric"} | {"json", "typing"}).isdisjoint(loaded)


def test_main_freezes_the_start_up_heap_and_exit_handlers_still_run(classify_as_main):
    frozen, _ = classify_as_main
    assert frozen > 0


@pytest.mark.parametrize("argv", [["classify", "--alpha", "0", "--beta", "-1"],
                                  ["classify", "--matrix", "{"], ["classify", "--bogus"]])
def test_run_leaves_the_collector_as_it_found_it(argv, capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    _run(argv, capsys)
    assert (gc.get_freeze_count(), gc.isenabled()) == before


# every exported name, resolved lazily in a fresh process, against the
# modules that define it
EXPORTS_PROBE = """
import importlib, invgeo
assert not [m for m in sys.modules if m.startswith("invgeo.")]
if sys.argv[1] == "star":
    ns = {}
    exec("from invgeo import *", ns)
    got = {name: ns[name] for name in invgeo.__all__}
else:
    got = {name: getattr(invgeo, name) for name in invgeo.__all__}
homes = [importlib.import_module("invgeo." + m) for m in
         ("errors", "mat2", "roots", "quadric", "householder", "splitquat", "matfun", "xform")]
bad = [name for name, value in got.items()
       if not [m for m in homes if name in vars(m)]
       or any(vars(m)[name] is not value for m in homes if name in vars(m))]
print(json.dumps({"n": len(got), "bad": bad}))
"""


@pytest.mark.parametrize("how", ["getattr", "star"])
def test_every_export_resolves_to_its_home_module_object(how):
    proc = subprocess.run([sys.executable, "-c", "import json, sys\n" + EXPORTS_PROBE, how],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"n": len(invgeo.__all__), "bad": []}


def test_subcommands_call_the_module_bound_on_cli(monkeypatch, capsys):
    # a tracer rebinds cli.<module>; the subcommand must go through it
    calls = []
    real = cli.quadric

    class Spy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(real, name)

    monkeypatch.setattr(cli, "quadric", Spy())
    code, out, _ = _run(["classify", "--alpha", "0", "--beta", "-1"], capsys)
    assert code == 0 and json.loads(out)["class"] == "one_sheet"
    assert "classify_quadric" in calls


def test_package_dir_lists_exports_and_unknown_names_raise():
    assert set(invgeo.__all__) <= set(dir(invgeo))
    assert len(invgeo.__all__) == len(set(invgeo.__all__)) == 72
    assert sorted(invgeo._HOME) == sorted(invgeo.__all__)  # one home per export
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        invgeo.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from invgeo import no_such_name", {})
    with pytest.raises(AttributeError):
        cli.no_such_module  # noqa: B018


def test_console_entry_point_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "invgeo.cli", "quat", "--to-matrix", '{"w": 0, "x": 1, "y": 0, "z": 0}'],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["matrix"] == {"a": 0.0, "b": 1.0, "c": -1.0, "d": 0.0}
    assert doc["class"] == "timelike"


def test_sample_csv_header_schema():
    content = (GOLDEN_DIR / "sample_one_sheet.csv").read_text()
    assert content.splitlines()[0] == "x,y,z,x1,x2,x3,x4,tag"


def test_orbit_csv_header_schema():
    content = (GOLDEN_DIR / "orbit.csv").read_text()
    lines = content.splitlines()
    assert lines[0] == "step,x,y"
    assert lines[1] == "0,1.0,0.0"
    assert lines[-1] == "4,1.0,0.0"


# -- the JSON writer and the reused parser ---------------------------------


class _Int(int):
    def __repr__(self):  # the writer, like json, must not call this
        return f"_Int({int(self)})"


class _Float(float):
    def __repr__(self):
        return f"_Float({float(self)})"


class _Str(str):
    pass


class _List(list):
    pass


class _Dict(dict):
    pass


_SPECIAL_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7e308, -1.7e308,
                   1.7976931348623157e308, math.nan, math.inf, -math.inf]
_SPECIAL_STRINGS = ["", '"', "\\", '"quoted" \\ back', "\x00\x01\x1f\x7f", "\n\t\r\b\f",
                    "é ü ß", "日本語", "\U0001f600", "\ud800", "a\udfffb"]
_ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-2**80, max_value=2**80)
    | st.integers().map(_Int)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.floats(allow_nan=False).map(_Float)
    | st.sampled_from(_SPECIAL_FLOATS)
    | _ANY_TEXT
    | _ANY_TEXT.map(_Str)
    | st.sampled_from(_SPECIAL_STRINGS)
)
_JSON_DOCS = st.recursive(
    _JSON_LEAVES,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.lists(children, max_size=4).map(_List)
        | st.dictionaries(_ANY_TEXT | st.sampled_from(_SPECIAL_STRINGS), children, max_size=4)
        | st.dictionaries(_ANY_TEXT, children, max_size=4).map(_Dict)
    ),
    max_leaves=24,
)


def _refusals(doc) -> set:
    """What the writer may raise on doc: TypeError for a type it refuses or
    a key that is not a str, OverflowError for a float that is not finite."""
    cls = type(doc)
    if cls is dict:
        out = set().union(*map(_refusals, doc.values()))
        return out if all(isinstance(k, str) for k in doc) else out | {TypeError}
    if cls is list:
        return set().union(*map(_refusals, doc))
    if cls is float:
        return set() if math.isfinite(doc) else {OverflowError}
    return set() if cls in (str, bool, int) else {TypeError}


def _strict(doc):
    """doc as the writer takes it: each subclass as its base type, a tuple as
    a list, None and a float that is not finite as False."""
    if isinstance(doc, dict):
        return {key: _strict(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return list(map(_strict, doc))
    if isinstance(doc, str):
        return str(doc)
    if doc is None or isinstance(doc, bool):
        return bool(doc)
    if isinstance(doc, int):
        return int(doc)
    return float(doc) if math.isfinite(doc) else False


@settings(max_examples=400, deadline=None)
@given(doc=_JSON_DOCS)
def test_json_writer_matches_stdlib_indent_encoder(doc):
    refusals = _refusals(doc)
    if refusals:
        with pytest.raises(tuple(refusals)):  # with both in doc, either may be met first
            cli._json_document(doc)
    else:
        assert cli._json_document(doc) == json.dumps(doc, indent=2, sort_keys=True,
                                                     allow_nan=False)
    # most draws hold something the writer refuses; their strict form it writes
    strict = _strict(doc)
    assert not _refusals(strict)
    assert cli._json_document(strict) == json.dumps(strict, indent=2, sort_keys=True,
                                                    allow_nan=False)


# Records like those of the point-cloud documents, drawn from small pools so
# that float values and dict shapes repeat within a document: 0.0 and -0.0 in
# one field, the smallest subnormal, str-subclass keys, every insertion order
# and the same shape at two depths.
_RECORD_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1, 1.0, 2.5,
                                  1e16, 1.7976931348623157e308])
_RECORD_KEYS = st.sampled_from(["x", "y", "z", "tag", _Str("x"), _Str("w")])
_RECORD_LEAVES = _RECORD_FLOATS | st.sampled_from(["one_sheet", "vertex"])
_RECORDS = st.dictionaries(
    _RECORD_KEYS,
    _RECORD_LEAVES | st.dictionaries(_RECORD_KEYS, _RECORD_LEAVES, max_size=4)
    | st.lists(_RECORD_FLOATS, max_size=6),
    max_size=4,
)
_RECORD_LISTS = st.builds(
    lambda pool, n: [pool[i % len(pool)] for i in range(n)],
    st.lists(_RECORDS, min_size=1, max_size=12),
    st.integers(min_value=0, max_value=200),
)


@settings(max_examples=200, deadline=None)
@given(doc=_RECORD_LISTS)
def test_json_writer_matches_stdlib_on_repeating_records(doc):
    got = cli._json_document(doc)
    # compared line by line: a failing report then names the first bad line
    # instead of diffing two long texts
    assert got.split("\n") == json.dumps(doc, indent=2, sort_keys=True).split("\n")


_LOCI = {"one_sheet": ("1", "-1.5"), "two_sheet": ("0.5", "1.2"), "cone": ("2", "1")}


@pytest.mark.parametrize("locus", _LOCI)
def test_sample_json_document_matches_stdlib(locus, capsys):
    alpha, beta = _LOCI[locus]
    code, out, err = _run(["sample", "--alpha", alpha, "--beta", beta, "--nu", "80",
                           "--nv", "80", "--format", "json"], capsys)
    assert code == 0, err
    points = invgeo.sample_surface(invgeo.LocusParams(float(alpha), float(beta)), 80, 80)
    doc = [{"bell": p.bell.to_json_dict(), "matrix": p.matrix.to_json_dict(), "tag": p.tag}
           for p in points]
    assert out.split("\n") == (json.dumps(doc, indent=2, sort_keys=True) + "\n").split("\n")


@pytest.mark.parametrize("of, sign", [("identity", 1.0), ("neg-identity", -1.0)])
def test_roots_sample_document_matches_stdlib(of, sign, capsys):
    code, out, err = _run(["roots", "--of", of, "--sample", "6400", "--seed", "5"], capsys)
    assert code == 0, err
    sampler = invgeo.sample_involutions if sign > 0 else invgeo.sample_skew_involutions
    target = sign * invgeo.Mat2.identity()
    doc = {"seed": 5, "samples": [
        {"matrix": m.to_json_dict(), "residual": (m @ m).max_diff(target)}
        for m in sampler(6400, seed=5, param_range=10.0)
    ]}
    assert out.split("\n") == (json.dumps(doc, indent=2, sort_keys=True) + "\n").split("\n")


def _csv_reference(rows) -> str:
    lines = ["x,y,z,x1,x2,x3,x4,tag"]
    for bell, m, tag in rows:
        values = (bell.x, bell.y, bell.z, m.a, m.b, m.c, m.d)
        lines.append(",".join(map(float.__repr__, values)) + "," + tag)
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("locus", _LOCI)
def test_sample_csv_document_matches_per_row_reference(locus, capsys):
    alpha, beta = _LOCI[locus]
    code, out, err = _run(["sample", "--alpha", alpha, "--beta", beta, "--nu", "80",
                           "--nv", "80", "--format", "csv"], capsys)
    assert code == 0, err
    points = invgeo.sample_surface(invgeo.LocusParams(float(alpha), float(beta)), 80, 80)
    want = _csv_reference([(p.bell, p.matrix, p.tag) for p in points])
    assert out.split("\n") == want.split("\n")


def test_point_csv_keeps_the_sign_of_zero(capsys):
    points = []
    for i in range(8):
        zero = -0.0 if i % 2 else 0.0
        bell = invgeo.BellPoint(zero, 1.5, -zero, 0.0)
        points.append((bell, invgeo.Mat2(zero, 5e-324, -zero, 1.5), "tag"))
    rows = [(bell.x, bell.y, bell.z, m.a, m.b, m.c, m.d, tag) for bell, m, tag in points]
    cli._emit_point_csv(SimpleNamespace(output=None), rows)
    out = capsys.readouterr().out
    assert out == _csv_reference(points)
    assert out.splitlines()[1:3] == ["0.0,1.5,-0.0,0.0,5e-324,-0.0,1.5,tag",
                                     "-0.0,1.5,0.0,-0.0,5e-324,0.0,1.5,tag"]


_NOT_FINITE = [math.nan, math.inf, -math.inf, [1.0, math.inf], {"k": [math.nan]},
               {"k": -math.inf}]


@pytest.mark.parametrize("doc", [
    object(), {1, 2}, b"bytes", {"k": [1, object()]}, {1: "int key"}, {("t",): 1},
    None, {"k": None}, (1.0, 2.0), {"k": (1.0,)}, _Float(1.5), {"k": _Float(1.5)},
    {"k": _Str("v")}, [_Str("v")], *_NOT_FINITE,
])
def test_json_writer_rejects_what_it_cannot_encode(doc):
    # a type it does not take is a TypeError, a float that is not finite an OverflowError
    with pytest.raises(OverflowError if any(doc is d for d in _NOT_FINITE) else TypeError):
        cli._json_document(doc)


REUSE_SEQUENCE = [
    ["roots", "--bogus"],  # argparse usage error, exit 2
    ["classify"],  # usage error raised by the subcommand, exit 2
    ["roots", "--of", "identity", "--a", "1", "--b", "0"],  # domain error, exit 1
    ["roots", "--of", "identity", "--family", "upper-b-plus-minus", "--b", "5"],
]


def test_reused_parser_answers_like_a_fresh_process(capsys):
    fresh = []
    for argv in REUSE_SEQUENCE:
        proc = subprocess.run([sys.executable, "-m", "invgeo.cli", *argv],
                              capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [2, 2, 1, 0]
    assert json.loads(fresh[0][2])["error"] == "usage"  # an unknown flag
    assert fresh[-1][1] == (GOLDEN_DIR / "roots_family.json").read_text(encoding="utf-8")
    for _ in range(2):  # the second pass runs on the parser the first one used
        assert [_run(argv, capsys) for argv in REUSE_SEQUENCE] == fresh


def test_run_builds_the_parser_once_per_process(monkeypatch, capsys):
    build = mock.Mock(wraps=cli.build_parser)
    monkeypatch.setattr(cli, "_tree", None)
    monkeypatch.setattr(cli, "build_parser", build)
    for _ in range(5):
        for argv in REUSE_SEQUENCE + [["bogus"], []]:
            _run(argv, capsys)
        for _, argv in GOLDEN_CASES:
            _run(argv, capsys)
    # one tree for roots --bogus and the bad command lines alike
    assert build.call_count == 1


def test_help_describes_the_command_line_not_the_code():
    text = cli.build_parser().format_help()
    assert "Exit codes: 0 success" in text and "INVGEO_TOL" in text
    assert "__repr__" not in text and "``" not in text


def test_build_parser_returns_a_fresh_parser_and_import_builds_none():
    assert cli.build_parser() is not cli.build_parser()


def test_family_choices_are_the_root_tags():
    assert cli._FAMILIES == tuple(t.value.replace("_", "-") for t in RootTag)


@pytest.mark.parametrize("command", [None, *cli._COMMANDS])
def test_help_matches_the_reference_declarations(command):
    """The tree and each of its subparsers declare what golden/cli_flags.json
    holds."""
    if os.environ.get("UPDATE_GOLDEN"):
        goldens.FLAGS_GOLDEN.write_text(goldens.flags_text(), encoding="utf-8")
    declared = json.loads(goldens.FLAGS_GOLDEN.read_text(encoding="utf-8"))
    parser = _FULL_TREE if command is None else _SUBPARSERS[command]
    assert goldens.declarations(parser) == declared[command or "invgeo"]


# command lines on which run()'s parse must agree with the full argparse tree:
# abbreviations, attached and negative values, "--", repeated flags, help,
# unknown commands and bad values, and the edges of the flag-table read
PARSE_CORPUS = [
    ["roots", "--of", "identity", "--a", "0.3", "--b", "2"],
    ["roots", "--fam", "upper-b-plus-minus", "--b", "5"],
    ["roots", "--of=neg-identity", "--a", "1", "--b", "-2"],
    ["roots", "--of", "neg", "--a", "1", "--b", "2"],
    ["roots", "--sample", "2.5"],
    ["roots", "--seed", "-5", "--sample", "1", "--range", "-3"],
    ["roots", "--bogus"],
    ["roots", "extra"],
    ["roots", "-o"],
    ["roots", "--he"],
    ["classify", "--alpha", "0", "--beta", "-1"],
    ["classify", "--alpha", "0", "--beta", "-1e-3"],
    ["classify", "--alpha=-7", "--beta", "-1e-3"],
    ["classify", "--alpha", "1", "--alpha", "2", "--beta", "3"],
    ["classify", "--alpha", "1e308", "--beta", "inf"],
    ["classify", "--alpha", "nan", "--beta", "-.5"],
    ["classify", "--matrix=" + SWAP],
    ["classify", "--matrix="],
    ["classify", "--alpha=", "--beta", "1"],
    ["classify", "--matrix", "--alpha", "1"],
    ["classify", "--alpha", "1", "--beta"],
    ["classify", "--matrix", SWAP, "--matrix-file", "m.json"],
    ["classify", "--alpha", "0", "--beta", "1", "-o", "doc.json"],
    ["classify", "--alpha", "0", "--beta", "1", "-o=doc.json"],
    ["classify", "--alpha", "0", "--beta", "1", "-o", "-"],
    ["bell", "--x=-7", "--y", "-7", "--z", ".5", "--al", "-0.25"],
    ["bell", "--m", SWAP],
    ["bell", "--matrix-file=m.json", "--matrix=" + SWAP],
    ["generators", "--t-m", "3", "--phi", "0.5", "--format", "csv"],
    ["generators", "--phi", "1", "--seed-matrix", "a=b"],
    ["generators", "--phi=1", "--seed-matrix=x=y"],
    ["quat", "--decompose", "--root", "identity", "--t", "-0.5"],
    ["quat", "--root", "identity", "--decompose=1"],
    ["quat", "--root", "identity", "--decompose="],
    ["quat", "--t", "1", "--to-matrix", '{"w": 1}'],
    ["quat", "--t=2", "--root", "neg", "--phi=-1"],
    ["quat", "--to-matrix", '{"w": 1}', "-o", "-"],
    ["matfun", "--all", "--matrix", SWAP],
    ["matfun", "--all-branches", "--matrix", SWAP, "--all-branches"],
    ["matfun", "--function", "cube", "--matrix", SWAP],
    ["sample", "--alpha", "0"],
    ["sample", "--alpha", "x", "--beta", "0"],
    ["sample", "--alpha", "0", "--beta", "-1", "--nu", "0x10"],
    ["sample", "--alpha=0", "--beta=-1", "--nu=0x10"],
    ["decompose", "--family", "upper-b-plus-minus", "--b", "4", "--c", "1"],
    ["orbit", "--matrix", SWAP, "--x", "1", "--y", "0", "--", "extra"],
    ["orbit", "--", "--x", "1"],
    ["orbit", "--x", "-1", "--y", "-2", "--steps=-3", "--format", "json"],
    ["orbit", "--x", "1", "--", "--y", "2"],
    ["bogus"],
    ["ROOTS", "--a", "1"],
    [],
    ["-h"],
    ["--he"],
    ["--", "roots"],
    ["--seed", "1", "roots"],
]


class _Parsed(Exception):
    """Raised in place of running a handler, to hand the namespace out."""


def _parse_outcome(parse, argv):
    """(namespace without command, exit code, stdout, stderr) of one parse.

    The namespace is compared by the repr of each value, so that nan equals
    nan, and 0.0 differs from -0.0 and 1.0 from 1.
    """
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args, code = parse(list(argv)), None
        except _Parsed as parsed:
            args, code = parsed.args[0], None
        except SystemExit as exc:
            args, code = None, exc.code
    fields = (None if args is None else
              {k: repr(v) for k, v in vars(args).items() if k != "command"})
    return fields, code, out.getvalue(), err.getvalue()


def _run_outcome(argv):
    """_parse_outcome of run(argv), with the namespace taken where run()
    parses, so no handler runs."""
    real_parse = cli._parse

    def parse_and_stop(argv):
        raise _Parsed(real_parse(argv))

    with mock.patch.object(cli, "_parse", parse_and_stop):
        return _parse_outcome(cli.run, argv)


@pytest.mark.parametrize("argv", PARSE_CORPUS, ids=[" ".join(a) or "-" for a in PARSE_CORPUS])
def test_run_parses_like_the_full_tree(argv, monkeypatch):
    expected = _parse_outcome(cli.build_parser().parse_args, argv)
    monkeypatch.setattr(cli, "_tree", None)
    assert _run_outcome(argv) == expected


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_subcommand_help_matches_the_full_tree(command):
    expected = _parse_outcome(cli.build_parser().parse_args, [command, "--help"])
    assert expected[1] == 0 and expected[2].startswith(f"usage: invgeo {command} ")
    assert _parse_outcome(run, [command, "--help"]) == expected


_FULL_TREE = cli.build_parser()
_SUBPARSERS = goldens.subparsers(_FULL_TREE)

# values no flag takes as given, or that argparse reads as an option
_ODD_VALUES = st.sampled_from(["", "x", "-", "--", "-x", "-1e-3", "-1 2", "-1\n", "0x10",
                               "1_0", "=", "a=b", "--alpha", "-o", "nan", "-inf", " 1"])


def _good_value(action):
    """Text the action takes, as a user would write it."""
    if action.choices is not None:
        return st.sampled_from(list(action.choices))
    if action.type is float:
        return (st.floats().map(repr)
                | st.sampled_from(["0", "-1", "-.5", "-2.5", "1e-3", "1E3", "inf", "-0"]))
    if action.type is int:
        return st.integers(-10**6, 10**6).map(str)
    return st.sampled_from([SWAP, '{"w": 1}', "doc.json", "-1", "a=b"])


@st.composite
def _flag_lines(draw):
    """(command, tokens, plain) drawn from a subparser of the tree: each
    flag in the exact, the "=" or an abbreviated form, or with a bad value, a
    missing value or a stray "--" beside it; a required flag is sometimes
    left out.  plain says that every token is an exact flag or its value,
    that no value starts with "-", and that every required flag is there."""
    command = draw(st.sampled_from(sorted(_SUBPARSERS)))
    parser = _SUBPARSERS[command]
    actions = [a for a in parser._actions if a.option_strings]
    required = [a for a in actions if a.required]
    chosen = [a for a in required if draw(st.integers(0, 7))]
    plain = len(chosen) == len(required)
    chosen += draw(st.lists(st.sampled_from(actions), max_size=5))
    line = []
    for action in draw(st.permutations(chosen)):
        option = draw(st.sampled_from(action.option_strings))
        form = draw(st.sampled_from(["exact"] * 4 + ["equals"] * 2
                                    + ["abbreviated", "bad", "bare", "stray"]))
        if form == "abbreviated":
            option = option[:draw(st.integers(2, len(option)))]
        value = draw(_ODD_VALUES if form == "bad" else _good_value(action))
        if form == "equals":
            tokens = [option + "=" + value]
            plain &= action.nargs is None and option.startswith("--")
        elif action.nargs == 0 or form == "bare":
            tokens = [option]
            plain &= action.nargs == 0
        else:
            tokens = [option, value]
            plain &= not value.startswith("-")
        plain &= form in ("exact", "equals") or option in action.option_strings
        plain &= form not in ("bad", "stray") and action.dest != "help"
        if form == "stray":
            tokens.insert(draw(st.integers(0, len(tokens))), "--")
        line += tokens
    return command, line, plain


@settings(max_examples=1000, deadline=None, derandomize=True)
@given(case=_flag_lines())
def test_flag_table_reads_lines_like_the_full_tree(case):
    command, line, plain = case
    argv = [command, *line]
    assert _run_outcome(argv) == _parse_outcome(_FULL_TREE.parse_args, argv)
    if plain:  # a line that fell back here would only lose speed
        assert cli._read_flags(command, line) is not None


@pytest.mark.parametrize("value", ["-1e-3", "-2.5E+10"])
def test_negative_value_in_exponent_notation_is_a_number(value, capsys):
    line = ["--alpha", "0", "--beta", value]
    assert cli._read_flags("classify", line) is not None
    assert _parse_outcome(_FULL_TREE.parse_args, ["classify", *line])[1] is None
    code, out, err = _run(["classify", *line], capsys)
    assert (code, err) == (0, "")
    assert _run(["classify", "--alpha", "0", "--beta=" + value], capsys) == (code, out, err)


@pytest.mark.parametrize("value", ["-inf", "-nan"])
def test_negative_inf_and_nan_stay_usage_errors(value, capsys):
    code, out, err = _run(["classify", "--alpha", "0", "--beta", value], capsys)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "usage", "detail": "argument --beta: expected one argument"}


@pytest.mark.parametrize("of, value", [("identity", "0"), ("neg-identity", "1e-4"),
                                       ("identity", "0.00100000001")])
def test_sample_range_without_admissible_b_fails_fast(of, value):
    proc = subprocess.run(
        [sys.executable, "-m", "invgeo.cli", "roots", "--of", of, "--sample", "2",
         "--range", value],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "degenerate_parameter"
    assert proc.stdout == ""

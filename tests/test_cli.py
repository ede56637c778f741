import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgeo import cli
from invgeo.cli import run

GOLDEN_DIR = Path(__file__).parent / "golden"

SWAP = '{"a": 0, "b": 1, "c": 1, "d": 0}'

GOLDEN_CASES = [
    ("roots_general.json", ["roots", "--of", "identity", "--a", "0.3", "--b", "2"]),
    ("roots_family.json", ["roots", "--of", "identity", "--family", "upper-b-plus-minus", "--b", "5"]),
    ("roots_skew.json", ["roots", "--of", "neg-identity", "--a", "1", "--b", "2"]),
    ("roots_sample.json", ["roots", "--of", "identity", "--sample", "3", "--seed", "0"]),
    ("classify_quadric.json", ["classify", "--alpha", "0", "--beta", "-1"]),
    ("classify_matrix.json", ["classify", "--matrix", SWAP]),
    ("bell_forward.json", ["bell", "--matrix", '{"a": 1, "b": 0, "c": 0, "d": -1}', "--alpha", "0", "--beta", "-1"]),
    ("bell_inverse.json", ["bell", "--x", "0", "--y", "1.4142135623730951", "--z", "0", "--alpha", "0"]),
    ("generators.json", ["generators", "--phi", "1.0471975511965976"]),
    ("generators.csv", ["generators", "--phi", "0.5", "--format", "csv", "--points", "5", "--t-max", "2"]),
    ("quat_from_matrix.json", ["quat", "--from-matrix", '{"a": 0, "b": 1, "c": -1, "d": 0}']),
    ("quat_root.json", ["quat", "--root", "identity", "--t", "1", "--phi", "0.5", "--decompose"]),
    ("matfun_branches.json", ["matfun", "--matrix", '{"a": 1, "b": 0, "c": 0, "d": 4}', "--all-branches"]),
    ("matfun_sqrt.json", ["matfun", "--matrix", '{"a": 1, "b": 1, "c": 0, "d": 1}', "--function", "sqrt"]),
    ("sample_one_sheet.csv", ["sample", "--alpha", "0", "--beta", "-1", "--nu", "4", "--nv", "3", "--format", "csv"]),
    ("sample_cone.csv", ["sample", "--alpha", "0", "--beta", "0", "--nu", "3", "--nv", "3", "--format", "csv"]),
    ("decompose_general.json", ["decompose", "--matrix", '{"a": 0, "b": 2, "c": 0.5, "d": 0}']),
    ("decompose_case.json", ["decompose", "--family", "upper-b-plus-minus", "--b", "4"]),
    ("orbit.csv", ["orbit", "--matrix", SWAP, "--x", "1", "--y", "0", "--steps", "4", "--format", "csv"]),
    ("sample_two_sheet.csv", ["sample", "--alpha", "1", "--beta", "2", "--nu", "4", "--nv", "5", "--format", "csv"]),
    ("sample_one_sheet.json", ["sample", "--alpha", "1", "--beta", "-1", "--nu", "3", "--nv", "2", "--format", "json"]),
    ("roots_sample_skew.json", ["roots", "--of", "neg-identity", "--sample", "3", "--seed", "4"]),
]


def _run(argv, capsys):
    code = run(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[n for n, _ in GOLDEN_CASES])
def test_golden_output(name, argv, capsys):
    code, out, err = _run(argv, capsys)
    assert code == 0, err
    golden = GOLDEN_DIR / name
    if os.environ.get("UPDATE_GOLDEN"):
        golden.write_text(out, encoding="utf-8")
    assert out == golden.read_text(encoding="utf-8")


@pytest.mark.parametrize("name, argv", GOLDEN_CASES, ids=[n for n, _ in GOLDEN_CASES])
def test_byte_identical_across_runs(name, argv, capsys):
    code1, out1, _ = _run(argv, capsys)
    code2, out2, _ = _run(argv, capsys)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()


def test_malformed_matrix_is_usage_error(capsys):
    code, out, err = _run(["bell", "--matrix", "not json"], capsys)
    assert code == 2
    doc = json.loads(err)
    assert doc["error"] == "usage"
    assert out == ""


def test_missing_required_input_is_usage_error(capsys):
    code, _, err = _run(["classify"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_unknown_flag_is_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "invgeo.cli", "roots", "--bogus"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2
    assert json.loads(proc.stderr)["error"] == "usage"


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


def test_numeric_overflow_is_reported_not_raised(capsys):
    code, _, err = _run(["quat", "--root", "identity", "--t", "1000"], capsys)
    assert code == 1
    assert json.loads(err)["error"] == "numeric_error"


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


@pytest.mark.parametrize("value", ["0", "-1", "nan"])
def test_invalid_tolerance_env_is_usage_error(value, capsys, monkeypatch):
    monkeypatch.setenv("INVGEO_TOL", value)
    code, out, err = _run(["classify", "--alpha", "0", "--beta", "-1"], capsys)
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    assert out == ""


IMPORT_PROBE = """
import json, sys
import invgeo, invgeo.cli
heavy = lambda: sorted({"numpy", "scipy"} & set(sys.modules))
print(json.dumps(heavy()))
invgeo.cli.run(["classify", "--alpha", "0", "--beta", "-1"])
print(json.dumps(heavy()))
"""


def test_import_and_closed_form_run_load_neither_numpy_nor_scipy():
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    after_import, *doc, after_run = proc.stdout.splitlines()
    assert json.loads(after_import) == []
    assert json.loads("\n".join(doc)) == {"class": "one_sheet", "radius_sq": 2.0}
    assert json.loads(after_run) == []


SAMPLE_PROBE = """
import json, sys
import invgeo.cli
invgeo.cli.run(["roots", "--of", "neg-identity", "--sample", "2", "--seed", "7"])
print(json.dumps(sorted({"numpy", "scipy"} & set(sys.modules))))
"""


def test_roots_sample_loads_neither_numpy_nor_scipy():
    proc = subprocess.run([sys.executable, "-c", SAMPLE_PROBE], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    *doc, after_run = proc.stdout.splitlines()
    assert len(json.loads("\n".join(doc))["samples"]) == 2
    assert json.loads(after_run) == []


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


@settings(max_examples=400, deadline=None)
@given(doc=_JSON_DOCS)
def test_json_writer_matches_stdlib_indent_encoder(doc):
    assert cli._json_document(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [
    object(), {1, 2}, b"bytes", {"k": [1, object()]}, {1: "int key"}, {("t",): 1},
])
def test_json_writer_rejects_what_it_cannot_encode(doc):
    with pytest.raises(TypeError):
        cli._json_document(doc)


REUSE_SEQUENCE = [
    ["roots", "--bogus"],  # argparse usage error, exit 2
    ["classify"],  # usage error raised by the subcommand, exit 2
    ["roots", "--of", "identity", "--a", "1", "--b", "0"],  # domain error, exit 1
    ["roots", "--of", "identity", "--family", "upper-b-plus-minus", "--b", "5"],
]


def _run_in_process(argv, capsys):
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_reused_parser_answers_like_a_fresh_process(capsys):
    fresh = []
    for argv in REUSE_SEQUENCE:
        proc = subprocess.run([sys.executable, "-m", "invgeo.cli", *argv],
                              capture_output=True, text=True)
        fresh.append((proc.returncode, proc.stdout, proc.stderr))
    assert [code for code, _, _ in fresh] == [2, 2, 1, 0]
    assert fresh[-1][1] == (GOLDEN_DIR / "roots_family.json").read_text(encoding="utf-8")
    for _ in range(2):  # the second pass runs on the parser the first one used
        assert [_run_in_process(argv, capsys) for argv in REUSE_SEQUENCE] == fresh


def test_run_builds_the_parser_once_per_process(monkeypatch, capsys):
    calls = []
    real_build_parser = cli.build_parser

    def counting_build_parser():
        calls.append(1)
        return real_build_parser()

    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "build_parser", counting_build_parser)
    for _ in range(5):
        for argv in REUSE_SEQUENCE:
            _run_in_process(argv, capsys)
        for _, argv in GOLDEN_CASES:
            _run_in_process(argv, capsys)
    assert len(calls) == 1


def test_build_parser_returns_a_fresh_parser_and_import_builds_none():
    assert cli.build_parser() is not cli.build_parser()
    probe = "import invgeo.cli as c; print(c._parser is None)"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.stdout.strip() == "True", proc.stderr


@pytest.mark.parametrize("of, value", [("identity", "0"), ("neg-identity", "1e-4")])
def test_sample_range_without_admissible_b_fails_fast(of, value):
    proc = subprocess.run(
        [sys.executable, "-m", "invgeo.cli", "roots", "--of", of, "--sample", "2",
         "--range", value],
        capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "degenerate_parameter"
    assert proc.stdout == ""

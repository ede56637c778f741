"""Self-tests of the benchmark: generator, checker, metric set, exact counts.

    python3 -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check
import gen
import run

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- generator ----------------------------------------------------------------------

@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.build(workload, 7) == gen.build(workload, 7)
    assert gen.build(workload, 7) != gen.build(workload, 8)


def test_lib_batch_keeps_the_class_mix_and_the_1e8_triangular_input():
    for seed in (1, 2):
        batch = gen.lib_batch(seed)
        assert len(batch) == gen.LIB_BATCH_SIZE
        counts = {cls: sum(c.cls == cls for c in batch) for cls in gen.LIB_BATCH}
        assert counts == gen.LIB_BATCH
        assert sum(c.m == gen.TRIANGULAR_1E8 for c in batch) == 1


def test_cli_cold_covers_every_subcommand_in_the_traced_slice():
    first = gen.cli_cold(3)[:9]
    assert {q.sub for q in first} == {"roots", "classify", "bell", "generators", "quat",
                                      "matfun", "sample", "decompose", "orbit"}


# -- checker --------------------------------------------------------------------------

def _diag_case():
    return gen.MatCase("pos_distinct", (1.0, 0.0, 0.0, 4.0), (1.0, 4.0), gen.FOUR, 4, True)


def test_checker_accepts_the_four_roots_of_diag_1_4():
    roots = [(s1, 0.0, 0.0, s2) for s1 in (1.0, -1.0) for s2 in (2.0, -2.0)]
    assert check.check_roots(_diag_case(), roots, {"tag": "finite", "n": 4}) is None


def test_checker_rejects_a_corrupted_root():
    roots = [(s1, 0.0, 0.0, s2) for s1 in (1.0, -1.0) for s2 in (2.0, -2.0)]
    roots[2] = (roots[2][0], 1e-6, 0.0, roots[2][3])
    assert check.check_roots(_diag_case(), roots, {"tag": "finite", "n": 4}) is not None


def test_checker_rejects_a_wrong_root_count():
    roots = [(s1, 0.0, 0.0, s2) for s1 in (1.0, -1.0) for s2 in (2.0, -2.0)]
    assert check.check_roots(_diag_case(), roots, {"tag": "finite", "n": 2}) is not None
    assert check.check_roots(_diag_case(), roots[:2], {"tag": "finite", "n": 4}) is not None


def _one_sheet_rows():
    # S(0, -1): x^2 + y^2 - z^2 = 2, so (sqrt2, 0, 0) is H(0) = diag(1, -1)
    return [((2 ** 0.5, 0.0, 0.0, None), (1.0, 0.0, 0.0, -1.0), "surface"),
            ((0.0, 2 ** 0.5, 0.0, None), (0.0, 1.0, 1.0, 0.0), "surface")]


def test_checker_accepts_good_cloud_rows():
    assert check.check_cloud_rows(_one_sheet_rows(), 0.0, -1.0, "one_sheet") is None


def test_checker_rejects_a_wrong_cloud_row():
    rows = _one_sheet_rows()
    (bell, m, tag) = rows[1]
    rows[1] = (bell, (m[0], m[1], m[2] * (1 + 1e-6), m[3]), tag)
    assert check.check_cloud_rows(rows, 0.0, -1.0, "one_sheet") is not None


def test_checker_grades_exit_codes():
    q = gen.Query("classify", ("classify",), "quadric", {"alpha": 0.0, "beta": -1.0})
    good = '{"class": "one_sheet", "radius_sq": 2.0}'
    assert check.check_query(q, 0, good, "") is None
    assert check.check_query(q, 0, '{"class": "cone", "radius_sq": 2.0}', "") is not None
    assert check.check_query(q, 1, "", '{"error": "complex_eigenvalues"}') is not None
    assert check.check_query(q, 1, "", "Traceback") is not None
    assert check.check_query(q, 3, good, "") is not None
    expected = gen.Query("classify", ("classify",), "quadric", {"alpha": 0.0, "beta": -1.0},
                         error="not_an_involution")
    assert check.check_query(expected, 1, "", '{"error": "not_an_involution"}') is None


class _CrashingCli:
    @staticmethod
    def run(argv):
        raise TypeError("unsupported operand")


def test_a_crashing_run_is_a_counted_failure():
    q = gen.Query("classify", ("classify", "--alpha=0", "--beta=-1"), "quadric",
                  {"alpha": 0.0, "beta": -1.0})
    runner = run.Runner("query-mix")
    runner.cli = _CrashingCli
    _, work, reason = runner(q)
    assert work == 1
    assert reason == "crashed: TypeError: unsupported operand"
    tally = run.Tally()
    tally.add(0, 0.0, work, reason)
    assert (tally.failed, tally.reasons) == (1, {"crashed": 1})


def test_failures_and_latency_are_per_operation_over_its_passes():
    tally = run.Tally()
    for dt in (1.0, 2.0, 100.0):  # the last pass stalled
        tally.add(0, dt, 1, None)
        tally.add(1, dt, 1, "refused with complex_eigenvalues")
    assert (tally.calls, tally.failed) == (6, 1)
    assert tally.latencies() == [2.0, 2.0]


# -- the command --------------------------------------------------------------------------

def _names_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_every_end_to_end_metric_is_printed_with_its_unit():
    got = _result(_bench("lib-analyze", 1, 0))
    assert got["correct"] is True
    # one count per operation of the seeded cycle, however many passes ran
    assert got["attempted"] == len(gen.build("lib-analyze", 1))
    assert {k: v["unit"] for k, v in got["metrics"].items()} == _names_units("end_to_end")


def test_every_per_layer_metric_is_printed_and_counts_repeat():
    first = _result(_bench("query-mix", 2, 1))
    assert {k: v["unit"] for k, v in first["metrics"].items()} == _names_units("per_layer")
    second = _result(_bench("query-mix", 2, 1))
    exact = [k for k, v in first["metrics"].items()
             if v["unit"] == "count" or k == "import.scipy_loaded"]
    assert "cli.bytes_out" in exact and "import.modules" in exact
    assert {k: first["metrics"][k]["value"] for k in exact} == \
           {k: second["metrics"][k]["value"] for k in exact}
    assert (first["attempted"], first["failed"]) == (second["attempted"], second["failed"])


def test_fails_without_a_program_to_benchmark():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = _bench("query-mix", 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)

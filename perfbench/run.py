"""End-to-end and per-module benchmark for invgeo.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree: the program under test is ``src/invgeo``
next to this directory.  Workloads (inputs come from ``gen.py``):

    cli-cold     one-shot ``python -m invgeo.cli`` subprocesses, all nine
                 subcommands, small inputs, clean environment
    query-mix    small queries through ``invgeo.cli.run(argv)`` in-process
    cloud-bulk   large ``sample`` / ``roots --sample`` documents via run()
    lib-analyze  a batch of matrices through the library API

Load is one caller in a closed loop over a seeded cycle of operations, run
at least once.  Every output is verified (check.py).  ``attempted`` is the
number of operations in the cycle and ``failed`` the number that failed on
any pass, so both depend on the seed alone; ``ok_ratio`` is their
complement as a share.  With
``--trace 0`` the end-to-end metrics are printed; ``--trace 1`` runs a fixed
slice of the workload untraced and then traced and prints the per-module
metrics, writing every span to ``perfbench/out/``.  The last line of stdout
is the JSON result; the lines before it repeat every metric with its unit
and sample count, under the workload-specific names as well.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

import check  # noqa: E402
import gen  # noqa: E402
import spans  # noqa: E402

#: Fresh processes per traced run for the import figures; the median is reported.
PROBES = 3
#: Fresh-process set-ups per untraced run for ``setup_s``; the median is reported.
SET_UPS = 9
#: Tail percentile over the operations of a cycle.  query-mix (1200) and
#: lib-analyze (1000) take the highest one with >= 10 operations beyond it;
#: cli-cold (18) and cloud-bulk (8) have too few for that and take p90.
TAIL = {"cli-cold": 90, "query-mix": 99, "cloud-bulk": 90, "lib-analyze": 99}
#: What one unit of ``throughput_per_s`` is, per workload.
WORK_UNIT = {"cli-cold": "invocations", "query-mix": "queries",
             "cloud-bulk": "rows", "lib-analyze": "matrices"}
#: Issue-facing names of the generic end-to-end metrics, per workload.
ALIASES = {
    "cli-cold": {"latency_p50_ms": "cli_ms_p50", "latency_tail_ms": "cli_ms_p90"},
    "query-mix": {"latency_p50_ms": "query_us_p50", "latency_tail_ms": "query_us_p99"},
    "cloud-bulk": {"throughput_per_s": "cloud_rows_per_s"},
    "lib-analyze": {"throughput_per_s": "analyze_per_s", "latency_tail_ms": "analyze_us_p99"},
}


def child_env() -> dict:
    """A clean environment: no INVGEO_TOL, only this tree's src on the path."""
    return {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": str(SRC),
            "LANG": "C.UTF-8"}


def run_child(argv: list[str]):
    """(rc, stdout, stderr, wall seconds, peak RSS in KiB) of one subprocess.

    stdout is read to the end before stderr; the CLI writes at most one
    short line to stderr, so neither pipe can fill while the other is read.
    """
    start = perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out = proc.stdout.read()
        err = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        proc.stdout.close()
        proc.stderr.close()
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), err.decode(), elapsed, usage.ru_maxrss


def probe(workload: str, seed: int) -> dict:
    rc, out, err, _, _ = run_child([sys.executable, str(HERE / "child.py"), "probe",
                                    workload, str(seed)])
    if rc != 0:
        raise RuntimeError(f"set-up probe failed: {err}")
    return json.loads(out)


def python_floor() -> float:
    return statistics.median(run_child([sys.executable, "-c", "pass"])[3]
                             for _ in range(PROBES))


# -- one operation per workload ---------------------------------------------------

class Runner:
    """Runs and grades single operations; ``tracer`` is None when untraced."""

    def __init__(self, workload: str, traced: bool = False):
        self.workload = workload
        self.tracer = spans.Tracer(Exception) if traced else None
        self.bytes_out = 0
        self.rows_out = 0
        self.rss_kb = 0
        if workload == "cli-cold":
            return
        sys.path.insert(0, str(SRC))
        import invgeo
        import invgeo.cli
        if not Path(invgeo.__file__).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"invgeo imported from {invgeo.__file__}, not {SRC}")
        self.cli = invgeo.cli
        from invgeo import householder, matfun, quadric, roots, splitquat, xform
        from invgeo.errors import InvGeoError
        from invgeo.mat2 import Mat2
        self.refusal = InvGeoError
        mods = dict(householder=householder, matfun=matfun, quadric=quadric,
                    roots=roots, splitquat=splitquat, xform=xform)
        if traced:
            tracer = self.tracer = spans.Tracer(InvGeoError)
            mods = {k: spans.TracedModule(v, tracer) for k, v in mods.items()}
            construct = tracer.wrap("mat2.construct", Mat2)
        else:
            construct = Mat2
        self.api = types.SimpleNamespace(Mat2=construct, LocusParams=quadric.LocusParams,
                                         seed_x=Mat2(1.0, 0.0, 0.0, 0.0), **mods)

    def __call__(self, op) -> tuple[float, int, str | None]:
        """(seconds, units of work, failure reason or None) for one operation."""
        if self.workload == "cli-cold":
            return self._cold(op)
        if self.workload == "lib-analyze":
            return self._analyze(op)
        return self._query(op)

    def _graded(self, q, rc, out, err):
        self.bytes_out += len(out.encode()) + len(err.encode())
        reason = check.check_query(q, rc, out, err)
        if reason is None:
            self.rows_out += q.rows
        return reason

    def _cold(self, q):
        if self.tracer is None:
            rc, out, err, dt, rss = run_child([sys.executable, "-m", "invgeo.cli", *q.argv])
            self.rss_kb = max(self.rss_kb, rss)
            return dt, 1, self._graded(q, rc, out, err)
        rc, doc, err, dt, rss = run_child([sys.executable, str(HERE / "child.py"), "cli",
                                           *q.argv])
        if rc != 0:  # the child died before it could report: grade its exit
            return dt, 1, self._graded(q, rc, "", err)
        doc = json.loads(doc)
        self.tracer.extend(doc["spans"], self.tracer.op)
        return dt, 1, self._graded(q, doc["rc"], doc["out"], doc["err"])

    def _query(self, q):
        rc, out, err, dt = spans.run_cli(self.cli, q.argv, self.tracer)
        # cloud-bulk counts the rows it emits; query-mix counts queries
        work = q.rows if self.workload == "cloud-bulk" else 1
        return dt, work, self._graded(q, rc, out, err)

    def _analyze(self, case):
        api, res = self.api, {}
        refusal = self.refusal

        def step(name, fn, *args):
            try:
                value = fn(*args)
            except refusal as exc:
                value = check.Refused(exc.code)
            except Exception as exc:  # a crash is a counted failure, not an abort
                value = check.Refused(f"{type(exc).__name__}: {exc}", crash=True)
            res[name] = value
            return value

        start = perf_counter()
        m = step("Mat2", api.Mat2, *case.m)
        if not isinstance(m, check.Refused):
            alpha, beta = m.trace(), m.det()
            step("classify_quadric", api.quadric.classify_quadric, api.LocusParams(alpha, beta))
            p = step("to_bell", api.quadric.to_bell, m, alpha)
            if not isinstance(p, check.Refused):
                step("from_bell", api.quadric.from_bell, p)
            q = step("from_matrix", api.splitquat.from_matrix, m)
            if not isinstance(q, check.Refused):
                step("sq_classify", api.splitquat.sq_classify, q)
            step("sqrt_branches", api.matfun.sqrt_branches, m)
            step("count_real_roots", api.matfun.count_real_roots, m)
            if case.involution:
                step("classify_involution", api.roots.classify_involution, m)
                step("decompose", api.xform.decompose, m)
                step("householder_angle", api.householder.householder_angle, m)
                step("generator_directions", api.quadric.generator_directions, m, api.seed_x)
        dt = perf_counter() - start
        return dt, 1, check.check_lib(case, res)


# -- measurement -----------------------------------------------------------------

class Tally:
    """Times, work and failures, per distinct operation of the cycle.

    A run repeats one seeded cycle of operations, so a failure is recorded
    against the operation's place in the cycle, once however many passes
    fail it: ``failed`` then depends on the seed, not on how many passes the
    machine's speed allowed.  Likewise an operation's latency is the median
    over its passes, so a stall of the shared host that hits one pass does
    not land in the tail.
    """

    def __init__(self):
        self.times: dict[int, list[float]] = {}
        self.work = 0
        self.failures: dict[int, str] = {}

    def add(self, op: int, dt: float, work: int, reason: str | None):
        self.times.setdefault(op, []).append(dt)
        self.work += work
        if reason is not None:
            self.failures.setdefault(op, reason)

    @property
    def calls(self) -> int:
        return sum(map(len, self.times.values()))

    @property
    def seconds(self) -> float:
        return sum(map(sum, self.times.values()))

    def latencies(self) -> list[float]:
        """Each operation's median time over its passes."""
        return [statistics.median(t) for t in self.times.values()]

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def reasons(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for reason in self.failures.values():
            key = reason.split(":")[0][:60]
            counts[key] = counts.get(key, 0) + 1
        return counts


def measure(runner: Runner, ops: list, seconds: float, whole_cycles: bool,
            pause, pauses: int) -> Tally:
    """Closed loop over ``ops`` for ``seconds``, and at least one whole cycle.

    With ``whole_cycles`` the loop also ends only at the end of a cycle.

    ``pause`` is called, untimed, after each of ``pauses`` equal slices of
    the measured time; the time it takes does not count towards ``seconds``.
    The heap built during set-up is frozen, and the garbage the checker
    leaves is collected before each operation, untimed: a timed call then
    pays only for the collections its own allocations trigger.
    """
    tally = Tally()
    gc.collect()
    gc.freeze()
    start = perf_counter()
    paused = 0.0
    done = i = 0
    while True:
        gc.collect()
        tally.add(i % len(ops), *runner(ops[i % len(ops)]))
        i += 1
        elapsed = perf_counter() - start - paused
        if done < pauses - 1 and elapsed >= seconds * (done + 1) / pauses:
            before = perf_counter()
            pause()
            paused += perf_counter() - before
            done += 1
        if elapsed >= seconds and i >= len(ops) and (
                not whole_cycles or i % len(ops) == 0):
            break
    for _ in range(done, pauses):
        pause()
    return tally


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, seed: int, seconds: float):
    # set-up is timed in fresh processes, once before the loop and once after
    # each slice of it, so that the median spans the same stretch of machine
    # time as the throughput and is not at the mercy of a few slow seconds
    setups = []

    def set_up():
        setups.append(probe(workload, seed)["setup_s"])

    set_up()
    ops = gen.build(workload, seed)
    runner = Runner(workload)
    tally = measure(runner, ops, seconds, whole_cycles=workload != "cli-cold",
                    pause=set_up, pauses=SET_UPS - 1)
    n, attempted = tally.calls, len(ops)
    latencies = tally.latencies()
    rss_kb = runner.rss_kb or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The p50 is printed but not bounded: on a shared host the speed shifts
    # for minutes at a time, and cli-cold's p50 over its 18 calls spreads
    # nearly as far as the largest bound allows.
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "latency_tail_ms": (percentile(latencies, TAIL[workload]) * 1e3, "ms", attempted),
        "throughput_per_s": (tally.work / tally.seconds, "1/s", n),
        "peak_rss_mb": (rss_kb / 1024.0, "MB", 1),
        "ok_ratio": ((attempted - tally.failed) / attempted, "ratio", attempted),
    }
    extra = {"latency_p50_ms": (statistics.median(latencies) * 1e3, "ms", attempted)}
    return metrics, extra, attempted, tally


def traced_slice(workload: str, ops: list) -> list:
    """The fixed slice a traced run covers, so its counts repeat for one seed."""
    return ops[:len(gen.QUERY_KINDS) + 1] if workload == "cli-cold" else ops


def per_layer(workload: str, seed: int):
    """The traced run: probes, then one fixed slice untraced and traced."""
    probes = [probe(workload, seed) for _ in range(PROBES)]
    floor = python_floor()
    ops = traced_slice(workload, gen.build(workload, seed))

    # each operation runs untraced, then traced, so drift and warm-up fall
    # on both sides alike and the difference is the tracing overhead
    plain, runner = Runner(workload), Runner(workload, traced=True)
    tally = Tally()
    untraced_s = traced_s = 0.0
    gc.collect()
    gc.freeze()
    for i, op in enumerate(ops):
        gc.collect()
        start = perf_counter()
        plain(op)
        untraced_s += perf_counter() - start
        runner.tracer.op = i
        gc.collect()
        start = perf_counter()
        tally.add(i, *runner(op))
        traced_s += perf_counter() - start

    OUT.mkdir(exist_ok=True)
    runner.tracer.dump(OUT / f"spans-{workload}-seed{seed}.jsonl")
    layer = spans.summarize(runner.tracer.spans)
    counts = {p["modules"] for p in probes}
    if len(counts) != 1:
        raise RuntimeError(f"module count differs between probes: {sorted(counts)}")
    units = {"_s": "s", "_us": "us", ".calls": "count", ".refused": "count"}
    metrics = {}
    for name, value in layer.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "us")
        metrics[name] = (value, unit, len(ops))
    metrics.update({
        "import.invgeo_s": (statistics.median(p["import_s"] for p in probes), "s", PROBES),
        "import.modules": (counts.pop(), "count", PROBES),
        "import.scipy_loaded": (max(p["scipy_loaded"] for p in probes), "bool", PROBES),
        "proc.python_floor_s": (floor, "s", PROBES),
        "cli.bytes_out": (runner.bytes_out, "count", len(ops)),
        "cli.rows_out": (runner.rows_out, "count", len(ops)),
        "trace.overhead_s": (traced_s - untraced_s, "s", len(ops)),
    })
    return metrics, {}, len(ops), tally


def report(workload: str, metrics: dict, attempted: int, failed: int, reasons: dict) -> None:
    alias = ALIASES.get(workload, {})
    for name, (value, unit, n) in metrics.items():
        extra = ""
        if name in alias:
            shown = alias[name]
            v = value * 1e3 if shown.endswith(("_us_p50", "_us_p99")) else value
            u = "us" if shown.endswith(("_us_p50", "_us_p99")) else unit
            extra = f"   [{shown} = {v:.6g} {u}]"
        if name == "throughput_per_s":
            extra += f"   ({WORK_UNIT[workload]} per second)"
        print(f"{name:40s} {value:14.6g} {unit:6s} n={n}{extra}")
    print(f"{'fail_ratio':40s} {failed / attempted:14.6g} ratio  n={attempted}")
    for reason, count in sorted(reasons.items(), key=lambda kv: -kv[1]):
        print(f"  failed x{count}: {reason}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "invgeo" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'invgeo'} is missing", file=sys.stderr)
        return 2
    os.environ.pop("INVGEO_TOL", None)
    if args.trace:
        metrics, extra, attempted, tally = per_layer(args.workload, args.seed)
    else:
        metrics, extra, attempted, tally = end_to_end(args.workload, args.seed, args.seconds)
    report(args.workload, {**metrics, **extra}, attempted, tally.failed, tally.reasons)
    # every operation was graded (a checker that cannot run raises and the
    # process exits non-zero before this line); failures are in ``failed``
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

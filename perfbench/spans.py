"""In-memory spans around the public calls the benchmark makes.

A span is (op, id, parent, name, start_ns, end_ns, refused).  Spans of one
benchmark operation share ``op``; ``parent`` is the span that was open when
this one started (-1 at the top).  ``name`` is ``<module>.<function>``, so a
module's self time is the sum over its spans of the duration minus the part
covered by child spans.

Spans are recorded only at boundaries the benchmark can reach from outside
the package: its own calls into invgeo, and the calls ``invgeo.cli`` makes
into the kernel modules, which are seen by swapping cli's module references
for ``TracedModule`` proxies while the traced pass runs.  Calls inside one
module stay inside its span.
"""

from __future__ import annotations

import inspect
import io
import json
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter, perf_counter_ns

MODULES = ("mat2", "roots", "quadric", "householder", "splitquat", "matfun", "xform", "cli")
SUBCOMMANDS = ("roots", "classify", "bell", "generators", "quat", "matfun",
               "sample", "decompose", "orbit")
KERNEL_SPANS = ("quadric.sample_surface", "roots.sample_involutions",
                "roots.sample_skew_involutions")
#: Per-call medians reported in microseconds, as ``<name>_us``.
CALL_US = ("matfun.sqrt_branches", "matfun.count_real_roots", "roots.classify_involution",
           "quadric.to_bell", "quadric.generator_directions", "xform.decompose",
           "splitquat.from_matrix", "mat2.construct")


class Tracer:
    def __init__(self, refusal: type[BaseException]):
        self.refusal = refusal
        self.spans: list[tuple] = []
        self.op = 0
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, refused_if=None, **kwargs):
        """Run fn inside a span; a raised ``refusal`` marks the span refused."""
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id, filled in below
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        refused = False
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
            refused = bool(refused_if and refused_if(result))
            return result
        except self.refusal:
            refused = True
            raise
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (self.op, sid, parent, name, start, end, refused)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def extend(self, spans, op: int):
        """Append spans recorded elsewhere (a child process) under ``op``."""
        base = len(self.spans)
        for _, sid, parent, name, start, end, refused in spans:
            self.spans.append((op, base + sid, base + parent if parent >= 0 else -1,
                               name, start, end, refused))

    def dump(self, path):
        t0 = min((s[4] for s in self.spans), default=0)
        with open(path, "w", encoding="utf-8") as fh:
            for op, sid, parent, name, start, end, refused in self.spans:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start_ns": start - t0, "end_ns": end - t0,
                                     "refused": refused}) + "\n")


class TracedModule:
    """Attribute proxy whose functions record a span per call."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._short = module.__name__.rsplit(".", 1)[-1]

    def __getattr__(self, name):
        value = getattr(self._module, name)
        if inspect.isfunction(value):
            value = self._tracer.wrap(f"{self._short}.{name}", value)
            setattr(self, name, value)
        return value


@contextmanager
def traced_cli(cli, tracer: Tracer):
    """Route invgeo.cli's calls into the kernel modules through spans."""
    names = ("matfun", "quadric", "roots", "splitquat", "xform")
    saved = {n: getattr(cli, n) for n in names + ("build_parser",)}
    try:
        for n in names:
            setattr(cli, n, TracedModule(saved[n], tracer))
        cli.build_parser = tracer.wrap("cli.build_parser", saved["build_parser"])
        yield
    finally:
        for n, value in saved.items():
            setattr(cli, n, value)


def run_cli(cli, argv, tracer: Tracer | None = None):
    """(rc, stdout, stderr, seconds) of one in-process ``cli.run(argv)``.

    stdout and stderr are captured in memory.  With a tracer the run and the
    kernel calls it makes are recorded as spans.  A usage error that argparse
    raises as SystemExit gives its exit code; any other exception escaping
    run() is a crash, reported as rc None with ``<type>: <message>`` as stderr.
    """
    out, err = io.StringIO(), io.StringIO()
    real = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        if tracer is None:
            rc = cli.run(list(argv))
        else:
            with traced_cli(cli, tracer):
                rc = tracer.call(f"cli.run.{argv[0]}", cli.run, list(argv),
                                 refused_if=lambda code: code == 1)
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is graded, not raised
        rc = None
        err = io.StringIO(f"{type(exc).__name__}: {exc}")
    finally:
        seconds = perf_counter() - start
        sys.stdout, sys.stderr = real
    return rc, out.getvalue(), err.getvalue(), seconds


def _median_us(durations) -> float:
    return statistics.median(durations) / 1e3 if durations else 0.0


def summarize(spans) -> dict[str, float]:
    """Per-module calls, self time and refusals, plus the named span metrics."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s[2] >= 0:
            child_ns[s[2]] += s[5] - s[4]
    out: dict[str, float] = {}
    for mod in MODULES:
        out[f"{mod}.calls"] = 0
        out[f"{mod}.self_s"] = 0.0
        out[f"{mod}.refused"] = 0
    by_name: dict[str, list[int]] = {}
    for s in spans:
        mod = s[3].split(".", 1)[0]
        dur = s[5] - s[4]
        out[f"{mod}.calls"] += 1
        out[f"{mod}.self_s"] += (dur - child_ns[s[1]]) / 1e9
        out[f"{mod}.refused"] += s[6]
        by_name.setdefault(s[3], []).append(dur)
    out["cli.build_parser_us"] = _median_us(by_name.get("cli.build_parser", []))
    for sub in SUBCOMMANDS:
        out[f"cli.run_us.{sub}"] = _median_us(by_name.get(f"cli.run.{sub}", []))
    for name in KERNEL_SPANS:
        out[f"{name}_s"] = sum(by_name.get(name, [])) / 1e9
    for name in CALL_US:
        out[f"{name}_us"] = _median_us(by_name.get(name, []))
    # what a bulk run spends around its kernel: argument parsing and output
    emit = 0
    for s in spans:
        if s[3] in ("cli.run.sample", "cli.run.roots"):
            emit += (s[5] - s[4]) - child_ns[s[1]]
    out["cli.emit_s"] = emit / 1e9
    return out

"""Subprocess side of the benchmark; prints one JSON document.

    python perfbench/child.py probe <workload> <seed>
        Import invgeo.cli from this tree's src/ and build the workload's
        inputs: reports the import time, the module count, whether scipy got
        loaded, and the set-up time (import plus input generation).

    python perfbench/child.py cli <argv...>
        One traced CLI run: the same ``invgeo.cli.run`` a shell user gets,
        with spans around the kernel calls and stdout/stderr captured.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))


def main() -> None:
    mode, rest = sys.argv[1], sys.argv[2:]
    before = perf_counter()
    import invgeo.cli as cli
    imported = perf_counter()
    doc = {"import_s": imported - before, "modules": len(sys.modules),
           "scipy_loaded": int("scipy" in sys.modules)}
    if mode == "probe":
        import gen
        gen.build(rest[0], int(rest[1]))
        doc["setup_s"] = perf_counter() - before
    else:
        from spans import Tracer, run_cli
        from invgeo.errors import InvGeoError
        tracer = Tracer(InvGeoError)
        rc, out, err, _ = run_cli(cli, rest, tracer)
        doc.update(rc=rc, out=out, err=err, spans=tracer.spans)
    sys.stdout.write(json.dumps(doc) + "\n")


if __name__ == "__main__":
    main()

"""The golden command lines, and the declarations of the command line.

``golden/cases.json`` maps each golden file under ``golden/`` to the
command line that writes it.  Run

    python tests/goldens.py invgeo
    python tests/goldens.py /path/to/venv/bin/invgeo
    python tests/goldens.py python -m invgeo.cli
    PYTHONPATH=src python tests/goldens.py python -S -m invgeo.cli

to run every line through that command and compare its stdout with the
golden file, byte for byte; the last form runs the source tree without the
site packages, so NumPy, SciPy and hypothesis cannot be imported.  The
stdout of each ``.json`` golden's line must also be strict JSON: ``NaN``,
``Infinity`` and ``-Infinity`` fail it.  Each line that fails is reported on
stderr with its golden's name and either its exit status and stderr or its
first line that differs from the golden, expected and got.  The exit status
is 1 if any line fails.

``python tests/goldens.py --flags`` prints what ``golden/cli_flags.json``
holds: for the ``invgeo`` parser that ``invgeo.cli.build_parser`` builds and
for each of its subparsers, the prog, the description, each subcommand's
help line, and each action's option strings, dest, nargs, type, default,
choices, required, help and metavar.  Unlike the help text,
which argparse lays out differently from one Python to the next, these are
the same on every Python the package supports.

The script needs only the standard library (and ``invgeo`` for --flags).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

GOLDEN_DIR = Path(__file__).parent / "golden"
#: (golden file name, command line) for every golden
CASES = list(json.loads((GOLDEN_DIR / "cases.json").read_text(encoding="utf-8")).items())
FLAGS_GOLDEN = GOLDEN_DIR / "cli_flags.json"


def _action(action) -> dict:
    choices = action.choices
    return {
        "option_strings": action.option_strings,
        "dest": action.dest,
        "nargs": action.nargs,
        "type": getattr(action.type, "__name__", None),
        "default": repr(action.default),
        "choices": None if choices is None else list(choices),
        "required": action.required,
        "help": action.help,
        "metavar": action.metavar,
    }


def declarations(parser) -> dict:
    """What one argparse parser declares."""
    out = {
        "prog": parser.prog,
        "description": parser.description,
        "defaults": {key: value.__name__ for key, value in parser._defaults.items()},
        "actions": [_action(action) for action in parser._actions],
    }
    for action in parser._actions:
        if hasattr(action, "_choices_actions"):  # the subcommands
            out["commands"] = {choice.dest: choice.help for choice in action._choices_actions}
    return out


def subparsers(parser) -> dict:
    """The subcommand name -> subparser map of an argparse parser."""
    return next(a for a in parser._actions if a.dest == "command").choices


def flag_declarations() -> dict:
    """declarations() of the full parser, keyed "invgeo", and of each of its
    subparsers, keyed by its name."""
    from invgeo import cli

    parser = cli.build_parser()
    out = {"invgeo": declarations(parser)}
    for name, sub in subparsers(parser).items():
        out[name] = declarations(sub)
    return out


def flags_text() -> str:
    return json.dumps(flag_declarations(), indent=2) + "\n"


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _first_difference(want: bytes, got: bytes) -> str:
    """Where got first departs from want, by line."""
    want_lines = want.decode(errors="replace").splitlines(keepends=True)
    got_lines = got.decode(errors="replace").splitlines(keepends=True)
    n = next((i for i, pair in enumerate(zip(want_lines, got_lines)) if pair[0] != pair[1]),
             min(len(want_lines), len(got_lines)))
    expected = repr(want_lines[n]) if n < len(want_lines) else "the end of the output"
    actual = repr(got_lines[n]) if n < len(got_lines) else "the end of the output"
    return f"line {n + 1}: expected {expected}, got {actual}"


def check(command: list[str]) -> int:
    """Run every golden line through command; the number that fail."""
    failed = 0
    for name, argv in CASES:
        proc = subprocess.run([*command, *argv], capture_output=True)
        golden = (GOLDEN_DIR / name).read_bytes()
        problem = None
        if proc.returncode != 0:
            problem = f"exit {proc.returncode} {proc.stderr.decode(errors='replace')}"
        elif proc.stdout != golden:
            problem = _first_difference(golden, proc.stdout)
        elif name.endswith(".json"):
            try:
                json.loads(proc.stdout, parse_constant=_refuse_constant)
            except ValueError as exc:
                problem = str(exc)
        if problem is None:
            print(f"ok   {name}")
            continue
        failed += 1
        print(f"FAIL {name}: {problem}", file=sys.stderr)
    return failed


def main(argv: list[str]) -> int:
    if argv == ["--flags"]:
        sys.stdout.write(flags_text())
        return 0
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    return 1 if check(argv) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

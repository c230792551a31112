"""The argv parse that ``supred.cli.run`` made before it handed an argv
straight to the parser its leading command words pick (a subcommand's,
or a ``verify`` check's or ``compare`` mode's): one ``parse_args`` of the
top-level parser over the whole argv, which picks the subcommand and runs
the parsers below it inside its own pass.

``outcome`` states what a parse gives in a form two parses can be
compared by: the namespace's attributes, the ``UsageError`` message, or
the ``SystemExit`` code with what was printed.  ``tests/test_cli.py``
checks that ``run`` parses every argv it is given as this oracle does, and
that where the oracle prints help and exits, ``run`` writes that help to
its ``stdout`` and returns.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout

from supred import cli


def parse(argv: list[str]):
    return cli._build_parser().parse_args(argv)


def outcome(parse, argv: list[str]) -> tuple:
    """("args", attributes), ("usage", message) or ("exit", code, stdout,
    stderr) for ``parse(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            namespace = parse(list(argv))
    except cli.UsageError as exc:
        return ("usage", str(exc))
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    return ("args", vars(namespace))

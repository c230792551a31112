"""Command-line front end.

Every library operation is reachable from one subcommand working on
``.aut`` files.  An argument of the form ``path`` names a file holding a
single automaton; ``path:name`` selects one automaton out of a multi-block
file.  Inputs are read as bytes and decoded as UTF-8; ``-o`` writes the
UTF-8 bytes of its automaton through one descriptor.  An argv is parsed
in one pass, by the parser its leading command words pick.  Exit
codes: 0 success (and any verdict true), 1 well-formed run with a false
verdict, 2 usage or parse error (an unreadable or undecodable input or an
unwritable ``-o`` file included), 3 precondition violation
(alphabet mismatch, infeasible supervisor, nondeterminism), 4 search cap
exceeded (the exact search's ``--cap`` or recursion limit, or the
equivalent-supervisor draw's cap).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import stat
import sys
from dataclasses import dataclass, field
from typing import Optional

from . import automata as am
from . import ordering, reduction, supervision
from .errors import (
    AlphabetMismatchError,
    CoverError,
    InfeasibleSupervisorError,
    ParseError,
    PreconditionError,
    SearchCapError,
    SupredError,
)

__all__ = ["CommandResult", "run", "main"]


class UsageError(SupredError):
    pass


@dataclass
class CommandResult:
    command: str
    verdict: Optional[bool] = None
    sizes: dict[str, int] = field(default_factory=dict)
    witness: Optional[str] = None
    output_path: Optional[str] = None
    exit_code: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "command": self.command,
                "verdict": self.verdict,
                "sizes": self.sizes,
                "witness": self.witness,
                "output_file": self.output_path,
            }
        )


class _Parser(argparse.ArgumentParser):
    commands: dict = {}  # the parsers of this parser's subcommand words

    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls and fills a fresh namespace each time.  Each
    parser's ``commands`` map its subcommand words to their parsers.  Each
    ``verify`` check and ``compare`` mode has its own parser, declaring
    only the options it reads."""
    parser = _Parser(prog="supred", description="supervisor reduction toolkit")

    def group(p, dest):
        sub = p.add_subparsers(dest=dest, required=True)
        p.commands = sub.choices
        return sub

    def add(sub, name, about, *specs, **names):
        """The parser of ``name``, with ``--json`` and the required spec
        options ``specs``.  It sets ``names`` on every namespace it fills,
        so a parse may start at it."""
        p = sub.add_parser(name, help=about)
        p.set_defaults(**names)
        p.add_argument("--json", action="store_true", help="emit a JSON result object")
        for spec in specs:
            p.add_argument(spec, required=True, metavar="SPEC")
        return p

    sub = group(parser, "command")
    add(sub, "parse", "validate an .aut file", command="parse").add_argument("file")
    for name, about in (("product", "synchronous product of two automata"),
                        ("super", "finest control-equivalent supervisor"),
                        ("reduce", "reduce a supervisor")):
        p = add(sub, name, about, "-g", "-s", command=name)
        p.add_argument("-o", metavar="OUT")
    how = p.add_mutually_exclusive_group()  # reduce's
    how.add_argument("--exact", action="store_true")
    p.add_argument("--mode", choices=("partition", "cover"))  # these two need --exact
    p.add_argument("--cap", type=int)
    how.add_argument("--seed", type=int, default=None,
                     help="sample a random control-equivalent supervisor instead")

    checks = group(sub.add_parser("verify", help="boolean checks"), "check")
    for check, specs in (("equiv", ("-g", "-s1", "-s2")), ("feasible", ("-s",)),
                         ("existence", ("-s",)), ("normal", ("-g", "-s", "-sp")),
                         ("cover", ("-g", "-s"))):
        p = add(checks, check, None, *specs, command="verify", check=check)
    p.add_argument("--cells", required=True, metavar="CELLS",
                   help="cover cells: states comma-separated, cells ';'-separated")

    modes = group(sub.add_parser("compare", help="fineness and reduction-size comparisons"),
                  "what")
    for what, specs in (("order", ("-g", "-s1", "-s2")), ("reductions", ("-g", "-s1", "-s2")),
                        ("fullpartial", ("-g", "-sf", "-sp"))):
        p = add(modes, what, None, *specs, command="compare", what=what)
        if what != "fullpartial":
            p.add_argument("--ref", metavar="SPEC", help="reference supervisor (defaults to -s1)")
        if what != "order":
            p.add_argument("--cap", type=int, default=reduction.DEFAULT_EXACT_CAP)

    p = add(sub, "iso", "DES-isomorphism check", command="iso")
    p.add_argument("a", metavar="SPEC")
    p.add_argument("b", metavar="SPEC")

    add(sub, "data", "print the control-data table of a supervisor", "-g", "-s", command="data")

    return parser


def _read(path: str) -> str:
    """The text of ``path``: its bytes decoded as UTF-8, line breaks as
    they are (the parser takes every one ``str.splitlines`` knows)."""
    try:
        with open(path, "rb", buffering=0) as fh:
            return fh.readall().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path!r}: {exc}") from None


def _load(spec: str) -> am.Automaton:
    path, _, selector = spec.rpartition(":")
    if not (path and selector):
        path, selector = spec, ""
    try:
        text = _read(path)
    except UsageError as first:
        if not selector:
            raise
        # maybe the whole spec was a path containing ':'; the error names
        # the file tried first
        try:
            text = _read(spec)
        except UsageError:
            raise first from None
        selector = ""
    blocks = am.parse_automaton(text)
    if selector:
        for a in blocks:
            if a.name == selector:
                return a
        raise UsageError(f"no automaton named {selector!r} in {path!r}")
    if len(blocks) != 1:
        names = ", ".join(a.name for a in blocks)
        raise UsageError(f"{spec!r} holds several automata ({names}); select one with path:name")
    return blocks[0]


def _emit_artifact(a: am.Automaton, out: Optional[str], emit) -> Optional[str]:
    text = am.serialize_automaton(a)
    if out:
        # Overwrite in place, then cut the stale tail: O_TRUNC on a file
        # holding data makes ext4 (auto_da_alloc) start writeback on close,
        # which costs more than a small reduction.  A pipe, tty or
        # /dev/null cannot be truncated.  The bytes go straight to the
        # descriptor; a write that a signal interrupts may take only part
        # of them, hence the loop.  The descriptor is closed whatever is
        # raised.  Not atomic, not synced.
        data = text.encode("utf-8")
        try:
            fd = os.open(out, os.O_WRONLY | os.O_CREAT, 0o666)
            try:
                done = 0
                while done < len(data):
                    done += os.write(fd, data[done:])
                if stat.S_ISREG(os.fstat(fd).st_mode):
                    os.ftruncate(fd, len(data))
            finally:
                os.close(fd)
        except OSError as exc:
            raise UsageError(f"cannot write {out!r}: {exc}") from None
        return out
    emit(text.rstrip("\n"))
    return None


def render_string(string: Optional[list[str]]) -> str:
    return " ".join(string) if string else "<empty>"


def control_data_table(g: am.Automaton, s: am.Automaton) -> str:
    """Canonical control-data table: one row per supervisor state, event
    sets in alphabet order."""
    data = supervision.control_data(g, s)

    def fmt(mask: int) -> str:
        return "{" + ",".join(g.alphabet.names_of(mask)) + "}"

    rows = []
    for z in range(s.n):
        rows.append(
            f"{s.states[z]}: En={fmt(data.enabled[z])} D={fmt(data.disabled[z])} "
            f"M={str(data.marked_s[z]).lower()} T={str(data.marked_g[z]).lower()}"
        )
    return "\n".join(rows)


def _parse_cells(s: am.Automaton, cells_arg: str) -> reduction.Cover:
    cells = []
    for chunk in cells_arg.split(";"):
        names = [t for t in chunk.split(",") if t]
        if not names:
            raise UsageError("empty cell in --cells")
        cells.append(frozenset(s.state_index(nm) for nm in names))
    return reduction.Cover.from_cells(cells)


def _dispatch(args, emit) -> CommandResult:
    cmd = args.command

    if cmd == "parse":
        blocks = am.parse_automaton(_read(args.file))
        sizes = {a.name: a.n for a in blocks}
        emit("\n".join(f"{a.name}: {a.n} states, {a.n_trans} transitions" for a in blocks))
        return CommandResult(cmd, verdict=True, sizes=sizes)

    if cmd in ("product", "super", "reduce"):
        if cmd == "reduce" and not args.exact and (args.mode, args.cap) != (None, None):
            raise UsageError("--mode and --cap need --exact")
        g, s = _require(args, "g", "s")
        if cmd == "product":
            built = am.sync_product(g, s)
        elif cmd == "super":
            built = reduction.build_super(g, s)
        elif args.exact:
            cap = reduction.DEFAULT_EXACT_CAP if args.cap is None else args.cap
            built, _ = reduction.reduce_exact_minimum(g, s, args.mode or "cover", cap)
        elif args.seed is not None:
            built = reduction.generate_equivalent_supervisor(g, s, args.seed)
        else:
            built, _ = reduction.reduce_heuristic(g, s)
        sizes = {"input": s.n, "output": built.n} if cmd == "reduce" else {"output": built.n}
        out = _emit_artifact(built, args.o, emit)
        return CommandResult(cmd, sizes=sizes, output_path=out)

    if cmd == "verify":
        return _verify(args, emit)

    if cmd == "compare":
        return _compare(args, emit)

    if cmd == "iso":
        a, b = _require(args, "a", "b")
        result = am.is_des_isomorphic(a, b)
        emit("true" if result.verdict else "false")
        return CommandResult(
            cmd, verdict=result.verdict, sizes={"a": a.n, "b": b.n},
            exit_code=0 if result.verdict else 1)

    if cmd == "data":
        g, s = _require(args, "g", "s")
        table = control_data_table(g, s)
        emit(table)
        return CommandResult(cmd, sizes={"states": s.n})

    raise UsageError(f"unknown command {cmd!r}")  # pragma: no cover


def _require(args, *names: str) -> list:
    """The automata the spec options ``names`` name.  Each distinct spec is
    read once, so a spec named twice is one automaton."""
    specs = [getattr(args, n) for n in names]
    loaded = {spec: _load(spec) for spec in dict.fromkeys(specs)}
    return [loaded[spec] for spec in specs]


def _verify(args, emit) -> CommandResult:
    check = args.check
    cmd = f"verify {check}"
    if check == "equiv":
        g, s1, s2 = _require(args, "g", "s1", "s2")
        verdict, counterexample = supervision.control_equivalent(g, s1, s2)
        witness = None if verdict else render_string(counterexample)
    elif check == "feasible":
        (s,) = _require(args, "s")
        verdict, w = supervision.check_control_feasibility(s)
        witness = None if verdict else "{} --{}--> {}".format(*w)
    elif check == "existence":
        (s,) = _require(args, "s")
        verdict, w = supervision.check_control_existence(s)
        witness = None if verdict else w
    elif check == "normal":
        g, s, sp = _require(args, "g", "s", "sp")
        verdict, w = supervision.is_normal(g, s, sp)
        witness = None if verdict else " ".join(str(part) for part in w)
    else:  # cover
        g, s = _require(args, "g", "s")
        data = supervision.control_data(g, s)
        cover = _parse_cells(s, args.cells)
        verdict, w = reduction.validate_cover(s, data, cover)
        witness = None if verdict else " ".join(str(part) for part in w)
    emit("true" if verdict else f"false ({witness})")
    return CommandResult(cmd, verdict=verdict, witness=witness,
                         exit_code=0 if verdict else 1)


def _compare(args, emit) -> CommandResult:
    what = args.what
    cmd = f"compare {what}"
    if what == "fullpartial":
        g, sf, sp = _require(args, "g", "sf", "sp")
        size_f, size_p, ordered = ordering.compare_full_vs_partial(g, sf, sp, cap_states=args.cap)
        emit(f"full: {size_f} states, partial: {size_p} states, ordered: {str(ordered).lower()}")
        return CommandResult(cmd, verdict=ordered, sizes={"full": size_f, "partial": size_p},
                             exit_code=0 if ordered else 1)
    # --ref defaults to -s1
    g, s1, s2, ref = _require(args, "g", "s1", "s2", "ref" if args.ref else "s1")
    if what == "order":
        result = ordering.finer_than(g, ref, s1, s2)
        if result.verdict:
            emit("true")
            return CommandResult(cmd, verdict=True)
        string, clause = result.counterexample
        witness = f"{render_string(string)} [{clause}]"
        emit(f"false ({witness})")
        return CommandResult(cmd, verdict=False, witness=witness, exit_code=1)
    # reductions
    size1, size2, ordered = ordering.compare_reductions(g, ref, s1, s2, cap_states=args.cap)
    emit(f"s1: {size1} states, s2: {size2} states, ordered: {str(ordered).lower()}")
    return CommandResult(cmd, verdict=ordered, sizes={"s1": size1, "s2": size2},
                         exit_code=0 if ordered else 1)


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, UsageError):
        return 2
    if isinstance(exc, ParseError):
        return 3 if exc.kind == "nondeterministic" else 2
    if isinstance(exc, SearchCapError):
        return 4
    if isinstance(exc, (AlphabetMismatchError, InfeasibleSupervisorError,
                        PreconditionError, CoverError, ValueError)):
        return 3
    raise exc


def run(argv: list[str], stdout=None, stderr=None) -> CommandResult:
    """Execute one command line; returns the result without exiting, also
    for help.  Help goes to ``stdout``, or under ``--json`` to ``stderr``,
    with the JSON result on ``stdout``."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    human_lines: list[str] = []

    def emit(text: str) -> None:
        human_lines.append(text)

    parser = _build_parser()
    command = "?"
    json_mode = "--json" in argv
    try:
        # One argparse pass: the argv's leading command words pick the
        # parser the top-level parse would hand the rest to; anything else
        # (help, an unknown word, an option) goes to the last parser picked.
        sub, rest = parser, argv
        while rest and rest[0] in sub.commands:
            sub, rest = sub.commands[rest[0]], rest[1:]
        try:
            # where argparse prints help: stdout, or stderr under --json
            with contextlib.redirect_stdout(err if json_mode else out):
                args = sub.parse_args(rest)
        except SystemExit:  # help printed; any other parse failure raises UsageError
            result = CommandResult(command)
        else:
            json_mode = args.json
            command = args.command
            result = _dispatch(args, emit)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code_for(exc)
        result = CommandResult(command, witness=str(exc), exit_code=code)
        human_lines.clear()
        print(f"error: {exc}", file=err)
    if json_mode:
        print(result.to_json(), file=out)
    else:
        for line in human_lines:
            print(line, file=out)
    return result


def main() -> None:
    sys.exit(run(sys.argv[1:]).exit_code)


if __name__ == "__main__":
    main()

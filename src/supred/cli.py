"""Command-line front end.

Every library operation is reachable from one subcommand working on
``.aut`` files.  An argument of the form ``path`` names a file holding a
single automaton; ``path:name`` selects one automaton out of a multi-block
file.  Exit codes: 0 success (and any verdict true), 1 well-formed run with
a false verdict, 2 usage or parse error, 3 precondition violation
(alphabet mismatch, infeasible supervisor, nondeterminism), 4 search cap
exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
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
    def error(self, message):  # argparse would sys.exit(2); raise instead
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls and fills a fresh namespace each time."""
    parser = _Parser(prog="supred", description="supervisor reduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--json", action="store_true", help="emit a JSON result object")
        return p

    p = add("parse", help="validate an .aut file")
    p.add_argument("file")

    p = add("product", help="synchronous product of two automata")
    p.add_argument("-g", required=True, metavar="SPEC")
    p.add_argument("-s", required=True, metavar="SPEC")
    p.add_argument("-o", metavar="OUT")

    p = add("super", help="finest control-equivalent supervisor")
    p.add_argument("-g", required=True, metavar="SPEC")
    p.add_argument("-s", required=True, metavar="SPEC")
    p.add_argument("-o", metavar="OUT")

    p = add("reduce", help="reduce a supervisor")
    p.add_argument("-g", required=True, metavar="SPEC")
    p.add_argument("-s", required=True, metavar="SPEC")
    p.add_argument("--exact", action="store_true")
    p.add_argument("--mode", choices=("partition", "cover"), default="cover")
    p.add_argument("--cap", type=int, default=reduction.DEFAULT_EXACT_CAP)
    p.add_argument("--seed", type=int, default=None,
                   help="sample a random control-equivalent supervisor instead")
    p.add_argument("-o", metavar="OUT")

    p = add("verify", help="boolean checks")
    p.add_argument("check", choices=("equiv", "feasible", "existence", "normal", "cover"))
    p.add_argument("-g", metavar="SPEC")
    p.add_argument("-s", metavar="SPEC")
    p.add_argument("-s1", metavar="SPEC")
    p.add_argument("-s2", metavar="SPEC")
    p.add_argument("-sp", metavar="SPEC")
    p.add_argument("--cells", metavar="CELLS",
                   help="cover cells: states comma-separated, cells ';'-separated")

    p = add("compare", help="fineness and reduction-size comparisons")
    p.add_argument("what", choices=("order", "reductions", "fullpartial"))
    p.add_argument("-g", metavar="SPEC")
    p.add_argument("-s1", metavar="SPEC")
    p.add_argument("-s2", metavar="SPEC")
    p.add_argument("-sf", metavar="SPEC")
    p.add_argument("-sp", metavar="SPEC")
    p.add_argument("--ref", metavar="SPEC", help="reference supervisor (defaults to -s1)")
    p.add_argument("--cap", type=int, default=reduction.DEFAULT_EXACT_CAP)

    p = add("iso", help="DES-isomorphism check")
    p.add_argument("a", metavar="SPEC")
    p.add_argument("b", metavar="SPEC")

    p = add("data", help="print the control-data table of a supervisor")
    p.add_argument("-g", required=True, metavar="SPEC")
    p.add_argument("-s", required=True, metavar="SPEC")

    return parser


def _load(spec: str) -> am.Automaton:
    path, _, selector = spec.rpartition(":")
    if not path:
        path, selector = spec, ""
    try:
        with open(path if selector else spec, encoding="utf-8") as fh:
            text = fh.read()
    except OSError:
        if selector:
            # maybe the whole spec was a path containing ':'
            try:
                with open(spec, encoding="utf-8") as fh:
                    text = fh.read()
                selector = ""
            except OSError as exc:
                raise UsageError(f"cannot read {spec!r}: {exc}") from None
        else:
            raise UsageError(f"cannot read {spec!r}") from None
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
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
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
        try:
            with open(args.file, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise UsageError(f"cannot read {args.file!r}: {exc}") from None
        blocks = am.parse_automaton(text)
        sizes = {a.name: a.n for a in blocks}
        emit("\n".join(f"{a.name}: {a.n} states, {len(a.trans)} transitions" for a in blocks))
        return CommandResult(cmd, verdict=True, sizes=sizes)

    if cmd == "product":
        g, s = _load(args.g), _load(args.s)
        product = am.sync_product(g, s)
        out = _emit_artifact(product, args.o, emit)
        return CommandResult(cmd, sizes={"output": product.n}, output_path=out)

    if cmd == "super":
        g, s = _load(args.g), _load(args.s)
        sup = reduction.build_super(g, s)
        out = _emit_artifact(sup, args.o, emit)
        return CommandResult(cmd, sizes={"output": sup.n}, output_path=out)

    if cmd == "reduce":
        g, s = _load(args.g), _load(args.s)
        if args.seed is not None and not args.exact:
            reduced = reduction.generate_equivalent_supervisor(g, s, args.seed)
            sizes = {"input": s.n, "output": reduced.n}
        elif args.exact:
            reduced, report = reduction.reduce_exact_minimum(
                g, s, mode=args.mode, cap_states=args.cap)
            sizes = {"input": report.input_size, "output": report.output_size}
        else:
            reduced, report = reduction.reduce_heuristic(g, s)
            sizes = {"input": report.input_size, "output": report.output_size}
        out = _emit_artifact(reduced, args.o, emit)
        return CommandResult(cmd, sizes=sizes, output_path=out)

    if cmd == "verify":
        return _verify(args, emit)

    if cmd == "compare":
        return _compare(args, emit)

    if cmd == "iso":
        a, b = _load(args.a), _load(args.b)
        result = am.is_des_isomorphic(a, b)
        emit("true" if result.verdict else "false")
        return CommandResult(
            cmd, verdict=result.verdict, sizes={"a": a.n, "b": b.n},
            exit_code=0 if result.verdict else 1)

    if cmd == "data":
        g, s = _load(args.g), _load(args.s)
        table = control_data_table(g, s)
        emit(table)
        return CommandResult(cmd, sizes={"states": s.n})

    raise UsageError(f"unknown command {cmd!r}")  # pragma: no cover


def _require(args, *names) -> list:
    values = []
    for n in names:
        v = getattr(args, n.replace("-", "_"))
        if v is None:
            raise UsageError(f"missing -{n} for this subcommand")
        values.append(v)
    return values


def _verify(args, emit) -> CommandResult:
    check = args.check
    cmd = f"verify {check}"
    if check == "equiv":
        gspec, s1spec, s2spec = _require(args, "g", "s1", "s2")
        g, s1, s2 = _load(gspec), _load(s1spec), _load(s2spec)
        verdict, counterexample = supervision.control_equivalent(g, s1, s2)
        witness = None if verdict else render_string(counterexample)
    elif check == "feasible":
        (sspec,) = _require(args, "s")
        s = _load(sspec)
        verdict, w = supervision.check_control_feasibility(s)
        witness = None if verdict else "{} --{}--> {}".format(*w)
    elif check == "existence":
        (sspec,) = _require(args, "s")
        s = _load(sspec)
        verdict, w = supervision.check_control_existence(s)
        witness = None if verdict else w
    elif check == "normal":
        gspec, sspec, spspec = _require(args, "g", "s", "sp")
        g, s, sp = _load(gspec), _load(sspec), _load(spspec)
        verdict, w = supervision.is_normal(g, s, sp)
        witness = None if verdict else " ".join(str(part) for part in w)
    else:  # cover
        gspec, sspec, cells = _require(args, "g", "s", "cells")
        g, s = _load(gspec), _load(sspec)
        data = supervision.control_data(g, s)
        cover = _parse_cells(s, cells)
        verdict, w = reduction.validate_cover(s, data, cover)
        witness = None if verdict else " ".join(str(part) for part in w)
    emit("true" if verdict else f"false ({witness})")
    return CommandResult(cmd, verdict=verdict, witness=witness,
                         exit_code=0 if verdict else 1)


def _compare(args, emit) -> CommandResult:
    what = args.what
    cmd = f"compare {what}"
    if what == "order":
        gspec, s1spec, s2spec = _require(args, "g", "s1", "s2")
        g, s1, s2 = _load(gspec), _load(s1spec), _load(s2spec)
        ref = _load(args.ref) if args.ref else s1
        result = ordering.finer_than(g, ref, s1, s2)
        if result.verdict:
            emit("true")
            return CommandResult(cmd, verdict=True)
        string, clause = result.counterexample
        witness = f"{render_string(string)} [{clause}]"
        emit(f"false ({witness})")
        return CommandResult(cmd, verdict=False, witness=witness, exit_code=1)
    if what == "reductions":
        gspec, s1spec, s2spec = _require(args, "g", "s1", "s2")
        g, s1, s2 = _load(gspec), _load(s1spec), _load(s2spec)
        ref = _load(args.ref) if args.ref else s1
        size1, size2, ordered = ordering.compare_reductions(g, ref, s1, s2, cap_states=args.cap)
        emit(f"s1: {size1} states, s2: {size2} states, ordered: {str(ordered).lower()}")
        return CommandResult(cmd, verdict=ordered, sizes={"s1": size1, "s2": size2},
                             exit_code=0 if ordered else 1)
    # fullpartial
    gspec, sfspec, spspec = _require(args, "g", "sf", "sp")
    g, sf, sp = _load(gspec), _load(sfspec), _load(spspec)
    size_f, size_p, ordered = ordering.compare_full_vs_partial(g, sf, sp, cap_states=args.cap)
    emit(f"full: {size_f} states, partial: {size_p} states, ordered: {str(ordered).lower()}")
    return CommandResult(cmd, verdict=ordered, sizes={"full": size_f, "partial": size_p},
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
    """Execute one command line; returns the result without exiting."""
    out = stdout if stdout is not None else sys.stdout
    err = stderr if stderr is not None else sys.stderr
    human_lines: list[str] = []

    def emit(text: str) -> None:
        human_lines.append(text)

    parser = _build_parser()
    command = "?"
    json_mode = "--json" in argv
    try:
        args = parser.parse_args(argv)
        json_mode = args.json
        command = args.command
        result = _dispatch(args, emit)
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        code = _exit_code_for(exc)
        result = CommandResult(command, witness=str(exc), exit_code=code)
        print(f"error: {exc}", file=err)
        if json_mode:
            print(result.to_json(), file=out)
        return result
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

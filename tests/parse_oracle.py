"""Reference ``.aut`` parser, constructor and serialiser, kept as a
differential oracle.

This is the tokenizer that ``supred.automata`` used before it stopped
computing a column for every token: it records ``(token, line, column)``
for each token up front, finding the column with ``str.index``.  The block
parser and ``parse_automaton`` are unchanged apart from reading that token
stream: the transition section fills a ``trans`` dict token by token.
:class:`DictAutomaton` is ``Automaton.__init__`` from while that dict was
the stored transition relation, and :func:`serialize_automaton` the
serialiser that sorted it.  ``tests/test_parse_oracle.py`` checks that the
library returns the same automata (names, states, marking, dense table,
enabled masks, ``trans`` and text) and raises the same ``ParseError``
(message, line, column and kind).
"""

from __future__ import annotations

from typing import Iterable, Optional

from supred import automata
from supred.automata import Alphabet, Event
from supred.errors import ParseError


class DictAutomaton:
    """The automaton as ``Automaton.__init__`` built it from a ``trans``
    dict, which it copied and kept: the same checks in the same order with
    the same messages, then the dense table ``succ`` and the enabled
    masks filled from the dict."""

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        states: Iterable[str],
        initial: int,
        marked: Iterable[int],
        trans: dict[tuple[int, int], int],
    ):
        self.name = name
        self.alphabet = alphabet
        self.states: tuple[str, ...] = tuple(states)
        self.initial = initial
        self.marked: frozenset[int] = frozenset(marked)
        self.trans: dict[tuple[int, int], int] = dict(trans)
        n = len(self.states)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        self.index: dict[str, int] = dict(zip(self.states, range(n)))
        tokens = [name, *self.states]
        joined = " ".join(tokens)
        if len(self.index) != n or "#" in joined or joined.split() != tokens:
            if name.split() != [name] or "#" in name:
                raise ValueError(f"bad automaton name {name!r}")
            seen: set[str] = set()
            for s in self.states:
                if s.split() != [s] or "#" in s:
                    raise ValueError(f"bad state name {s!r}")
                if s in seen:
                    raise ValueError(f"duplicate state name {s!r}")
                seen.add(s)
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        if self.marked and not (0 <= min(self.marked) and max(self.marked) < n):
            raise ValueError("marked state out of range")
        m = len(self.alphabet)
        enabled = [0] * n
        succ = [-1] * (n * m)
        for (q, e), t in self.trans.items():
            if not (0 <= q < n and 0 <= t < n and 0 <= e < m):
                raise ValueError(f"transition ({q},{e})->{t} out of range")
            enabled[q] |= 1 << e
            succ[q * m + e] = t
        self.succ: list[int] = succ
        self.enabled: tuple[int, ...] = tuple(enabled)

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def out_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        out: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for (q, e), t in self.trans.items():
            out[q].append((e, t))
        return tuple(tuple(sorted(row)) for row in out)


def serialize_automaton(a: DictAutomaton) -> str:
    """Canonical ``.aut`` text, transitions sorted by ``(state, event)``."""
    lines = [f"automaton {a.name}", f"events {len(a.alphabet)}"]
    for ev in a.alphabet:
        lines.append(f"{ev.name} {'c' if ev.controllable else 'u'} {'o' if ev.observable else 'n'}")
    lines.append(f"states {a.n}")
    lines.append(" ".join(a.states))
    lines.append(f"initial {a.states[a.initial]}")
    marked = sorted(a.marked)
    lines.append(" ".join(["marked", str(len(marked))] + [a.states[q] for q in marked]))
    items = sorted(a.trans.items())
    lines.append(f"trans {len(items)}")
    states, events = a.states, a.alphabet.names
    for (q, e), t in items:
        lines.append(f"{states[q]} {events[e]} {states[t]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def differences(a, old: DictAutomaton) -> list[str]:
    """What the library automaton ``a`` holds differently from ``old``,
    by field: name, alphabet, states and their index, initial and marked
    states, the dense table, the enabled masks, ``trans``, the rows, the
    transition count and the text.  Empty when they agree."""
    fields = {
        "name": (a.name, old.name),
        "alphabet": (a.alphabet, old.alphabet),
        "states": (a.states, old.states),
        "index": ({s: a.state_index(s) for s in a.states}, old.index),
        "initial": (a.initial, old.initial),
        "marked": (a.marked, old.marked),
        "succ": (a.succ, old.succ),
        "enabled": (tuple(a.enabled(q) for q in range(a.n)), old.enabled),
        "trans": (a.trans, old.trans),
        "out_rows": (a.out_rows, old.out_rows),
        "n_trans": (a.n_trans, len(old.trans)),
        "text": (automata.serialize_automaton(a), serialize_automaton(old)),
    }
    return [name for name, (new, ref) in fields.items() if new != ref]


class _TokenStream:
    def __init__(self, text: str):
        self.tokens: list[tuple[str, int, int]] = []
        text = text.lstrip("﻿")
        for ln, line in enumerate(text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            col = 0
            for tok in body.split():
                col = body.index(tok, col)
                self.tokens.append((tok, ln, col + 1))
                col += len(tok)
        self.pos = 0

    def peek(self) -> Optional[tuple[str, int, int]]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> tuple[str, int, int]:
        if self.pos >= len(self.tokens):
            raise ParseError(f"unexpected end of input, expected {what}")
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, literal: str) -> None:
        tok, ln, col = self.next(f"'{literal}'")
        if tok != literal:
            raise ParseError(f"expected '{literal}', found '{tok}'", ln, col)

    def count(self, what: str) -> int:
        tok, ln, col = self.next(what)
        try:
            value = int(tok)
        except ValueError:
            raise ParseError(f"expected a count for {what}, found '{tok}'", ln, col) from None
        if value < 0:
            raise ParseError(f"negative count for {what}", ln, col)
        return value


def _parse_block(ts: _TokenStream) -> DictAutomaton:
    ts.expect("automaton")
    name, _, _ = ts.next("automaton name")

    ts.expect("events")
    n_events = ts.count("events")
    events: list[Event] = []
    names_seen: set[str] = set()
    for _ in range(n_events):
        ev_name, ln, col = ts.next("event name")
        if ev_name in names_seen:
            raise ParseError(f"duplicate event name '{ev_name}'", ln, col, kind="duplicate")
        names_seen.add(ev_name)
        c_tok, ln, col = ts.next("controllability flag")
        if c_tok not in ("c", "u"):
            raise ParseError(f"expected 'c' or 'u', found '{c_tok}'", ln, col)
        o_tok, ln, col = ts.next("observability flag")
        if o_tok not in ("o", "n"):
            raise ParseError(f"expected 'o' or 'n', found '{o_tok}'", ln, col)
        events.append(Event(ev_name, c_tok == "c", o_tok == "o"))
    alphabet = Alphabet(events)

    ts.expect("states")
    n_states = ts.count("states")
    if n_states == 0:
        tok = ts.peek()
        raise ParseError("automaton must have at least one state",
                         tok[1] if tok else None, tok[2] if tok else None)
    state_names: list[str] = []
    state_index: dict[str, int] = {}
    for _ in range(n_states):
        s, ln, col = ts.next("state name")
        if s in state_index:
            raise ParseError(f"duplicate state name '{s}'", ln, col, kind="duplicate")
        state_index[s] = len(state_names)
        state_names.append(s)

    def resolve_state(what: str) -> int:
        s, ln, col = ts.next(what)
        if s not in state_index:
            raise ParseError(f"unknown state '{s}'", ln, col, kind="unknown")
        return state_index[s]

    ts.expect("initial")
    initial = resolve_state("initial state")

    ts.expect("marked")
    n_marked = ts.count("marked states")
    marked = [resolve_state("marked state") for _ in range(n_marked)]

    ts.expect("trans")
    n_trans = ts.count("transitions")
    trans: dict[tuple[int, int], int] = {}
    for _ in range(n_trans):
        src = resolve_state("transition source")
        ev, ln, col = ts.next("transition event")
        if ev not in alphabet:
            raise ParseError(f"unknown event '{ev}'", ln, col, kind="unknown")
        e = alphabet.index(ev)
        dst = resolve_state("transition target")
        if (src, e) in trans:
            raise ParseError(
                f"nondeterministic transitions from '{state_names[src]}' on '{ev}'",
                ln, col, kind="nondeterministic")
        trans[(src, e)] = dst

    ts.expect("end")
    return DictAutomaton(name, alphabet, state_names, initial, marked, trans)


def parse_automaton(text: str) -> list[DictAutomaton]:
    """Parse all ``automaton`` blocks of an ``.aut`` document, in file order."""
    ts = _TokenStream(text)
    automata: list[DictAutomaton] = []
    names: set[str] = set()
    while ts.peek() is not None:
        a = _parse_block(ts)
        if a.name in names:
            raise ParseError(f"duplicate automaton name '{a.name}'", kind="duplicate")
        names.add(a.name)
        automata.append(a)
    if not automata:
        raise ParseError("no automaton block found")
    return automata

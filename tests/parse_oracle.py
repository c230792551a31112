"""Reference ``.aut`` parser, kept as a differential oracle.

This is the tokenizer that ``supred.automata`` used before it stopped
computing a column for every token: it records ``(token, line, column)``
for each token up front, finding the column with ``str.index``.  The block
parser and ``parse_automaton`` are unchanged apart from reading that token
stream.  ``tests/test_parse_oracle.py`` checks that the library returns
the same automata and raises the same ``ParseError`` (message, line,
column and kind).
"""

from __future__ import annotations

from typing import Optional

from supred.automata import Alphabet, Automaton, Event
from supred.errors import ParseError


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


def _parse_block(ts: _TokenStream) -> Automaton:
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
    return Automaton(name, alphabet, state_names, initial, marked, trans)


def parse_automaton(text: str) -> list[Automaton]:
    """Parse all ``automaton`` blocks of an ``.aut`` document, in file order."""
    ts = _TokenStream(text)
    automata: list[Automaton] = []
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

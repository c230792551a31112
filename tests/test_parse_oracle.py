"""Differential tests: the ``.aut`` parser, which works out a token's
column only when it raises, against the reference in
``tests/parse_oracle.py``, which records every column up front.  On the
fixtures and on every single-token mutation of them, both must return the
same automata or raise the same error with the same line, column and
kind."""

import re

from supred.automata import parse_automaton, serialize_automata
from supred.errors import ParseError

from tests import parse_oracle
from tests.conftest import FIXTURES

FIXTURE_NAMES = ("tank.aut", "ordering.aut", "nontransitive.aut")


def _outcome(parse, text):
    try:
        return "parsed", serialize_automata(parse(text))
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.column, exc.kind
    except ValueError as exc:
        return "ValueError", str(exc)


def _mutations(text):
    """Each token dropped, duplicated, and replaced by zero, a number, a
    negative count, a fresh word and the token before it on its line (which puts a
    repeated token on the line, so a column search must skip the first)."""
    lines = text.split("\n")
    for ln, line in enumerate(lines):
        body = line.split("#", 1)[0]
        spans = [m.span() for m in re.finditer(r"\S+", body)]
        for k, (a, b) in enumerate(spans):
            tok = line[a:b]
            previous = [line[spans[k - 1][0]:spans[k - 1][1]]] if k else []
            for repl in ["", f"{tok} {tok}", "0", "3", "-1", "zz", *previous]:
                yield "\n".join(lines[:ln] + [line[:a] + repl + line[b:]] + lines[ln + 1:])


def test_fixtures_parse_alike():
    for name in FIXTURE_NAMES:
        text = (FIXTURES / name).read_text()
        for variant in (text, "\ufeff" + text, text.replace(" ", "  \t")):
            outcome = _outcome(parse_automaton, variant)
            assert outcome[0] == "parsed"
            assert outcome == _outcome(parse_oracle.parse_automaton, variant)


def test_single_token_mutations_match_oracle():
    kinds = set()
    for name in FIXTURE_NAMES:
        for variant in _mutations((FIXTURES / name).read_text()):
            outcome = _outcome(parse_automaton, variant)
            assert outcome == _outcome(parse_oracle.parse_automaton, variant)
            kinds.add(outcome[4] if outcome[0] == "ParseError" else outcome[0])
    assert kinds >= {"parsed", "syntax", "duplicate", "unknown", "nondeterministic"}


def test_error_columns_on_repeated_tokens():
    text = ("automaton A\nevents 1\na c o\nstates 2\nq r\ninitial q\nmarked 0\n"
            "trans 2\nq a q   # comment q a\n  q a r\nend\n")
    outcome = _outcome(parse_automaton, text)
    assert outcome == _outcome(parse_oracle.parse_automaton, text)
    assert outcome[2:] == (10, 5, "nondeterministic")

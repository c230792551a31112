"""Differential tests: the ``.aut`` parser, which reads sections in bulk,
fills the dense successor table directly and works out a token's line and
column only when it raises, against the reference in
``tests/parse_oracle.py``, which reads token by token, records every line
and column up front and builds a ``trans`` dict for the constructor of
that time.  On the fixtures, on every single-token mutation of them with
and without their comments, and on token soups drawn from them, both must
return the same automata (every field, and the text each side's
serialiser writes) or raise the same error with the same line, column and
kind."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from supred.automata import parse_automaton, serialize_automata
from supred.errors import ParseError

from tests import parse_oracle
from tests.conftest import FIXTURES

FIXTURE_NAMES = ("tank.aut", "ordering.aut", "nontransitive.aut")


def _outcome(text):
    """The library's outcome on ``text``, after checking that the oracle
    parses the same automata: the text the library writes, or the error."""
    outcome = _parsed(parse_automaton, text)
    reference = _parsed(parse_oracle.parse_automaton, text)
    if outcome[0] == "parsed":
        assert reference[0] == "parsed"
        automata, olds = outcome[1], reference[1]
        assert [a.name for a in automata] == [old.name for old in olds]
        for a, old in zip(automata, olds):
            assert parse_oracle.differences(a, old) == []
        outcome = "parsed", serialize_automata(automata)
    else:
        assert outcome == reference
    return outcome


def _parsed(parse, text):
    try:
        return "parsed", parse(text)
    except ParseError as exc:
        return "ParseError", str(exc), exc.line, exc.column, exc.kind
    except ValueError as exc:
        return "ValueError", str(exc)


def _without_comments(text):
    """``text`` with every ``#`` comment cut off its line, so the parser
    splits the whole document at once."""
    return "\n".join(line.split("#", 1)[0] for line in text.split("\n"))


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
            assert _outcome(variant)[0] == "parsed"


def test_single_token_mutations_match_oracle():
    for strip in (False, True):
        kinds = set()
        for name in FIXTURE_NAMES:
            text = (FIXTURES / name).read_text()
            assert "#" in text
            if strip:
                text = _without_comments(text)
                assert "#" not in text
            for variant in _mutations(text):
                outcome = _outcome(variant)
                kinds.add(outcome[4] if outcome[0] == "ParseError" else outcome[0])
        assert kinds >= {"parsed", "syntax", "duplicate", "unknown", "nondeterministic"}


FIXTURE_TOKENS = [_without_comments((FIXTURES / name).read_text()).split()
                  for name in FIXTURE_NAMES]
VOCABULARY = sorted({tok for toks in FIXTURE_TOKENS for tok in toks} | {"0", "-1", "99"})
SEPARATORS = [" ", "  ", "\t", "\n", "\r\n", " # note q a\n", "\n#\n", "\x0c", "\u2028"]


@st.composite
def token_soups(draw):
    """A fixture's tokens under a few edits (drop, insert, replace or
    repeat a token, drawn from all fixtures' tokens and some counts),
    joined by whitespace, line breaks and comments."""
    tokens = list(draw(st.sampled_from(FIXTURE_TOKENS)))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, len(tokens)))
        edit = draw(st.sampled_from(["drop", "insert", "replace", "repeat"]))
        word = draw(st.sampled_from(VOCABULARY))
        if edit == "insert":
            tokens.insert(at, word)
        elif at < len(tokens):
            if edit == "drop":
                del tokens[at]
            elif edit == "replace":
                tokens[at] = word
            else:
                tokens.insert(at, tokens[at])
    if draw(st.booleans()):
        tokens += tokens  # a second block with the same names
    rng = random.Random(draw(st.integers(0, 2**32)))
    return "".join(rng.choice(SEPARATORS) + tok for tok in tokens) + rng.choice(SEPARATORS)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(token_soups())
def test_token_soups_match_oracle(text):
    outcome = _outcome(text)
    assert outcome[0] in ("parsed", "ParseError")
    if outcome[0] == "parsed":
        assert serialize_automata(parse_automaton(outcome[1])) == outcome[1]


def test_error_columns_on_repeated_tokens():
    text = ("automaton A\nevents 1\na c o\nstates 2\nq r\ninitial q\nmarked 0\n"
            "trans 2\nq a q   # comment q a\n  q a r\nend\n")
    outcome = _outcome(text)
    assert outcome[2:] == (10, 5, "nondeterministic")

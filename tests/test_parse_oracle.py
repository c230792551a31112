"""Differential tests: the ``.aut`` parser, which reads sections in bulk,
fills the dense successor table directly and works out a token's line and
column only when it raises, against the reference in
``tests/parse_oracle.py``, which reads token by token, records every line
and column up front and builds a ``trans`` dict for the constructor of
that time.  On the fixtures, on every single-token mutation of them with
and without their comments, and on token soups drawn from them, both must
return the same automata (every field, and the text each side's
serialiser writes) or raise the same error with the same line, column and
kind.  The library shares one alphabet object between token-identical
events sections, of one document or of documents parsed with one
``alphabets`` map; its automata must hold one object exactly where the
oracle's alphabets are equal, so a mutated or truncated section never
reuses another section's alphabet."""

import random
import re

from hypothesis import given, settings
from hypothesis import strategies as st

from supred.automata import parse_automaton, serialize_automata
from supred.errors import ParseError

from tests import parse_oracle
from tests.conftest import FIXTURES

FIXTURE_NAMES = ("tank.aut", "ordering.aut", "nontransitive.aut")


def _outcome(text, alphabets=None, before=()):
    """The library's outcome on ``text``, parsed with the map ``alphabets``
    that parsed the automata ``before``, after checking that the oracle
    parses the same automata from ``text`` alone and that the library's
    automata share alphabet objects exactly where they are equal: the text
    the library writes, or the error."""
    outcome = _parsed(lambda t: parse_automaton(t, alphabets), text)
    reference = _parsed(parse_oracle.parse_automaton, text)
    if outcome[0] == "parsed":
        assert reference[0] == "parsed"
        automata, olds = outcome[1], reference[1]
        assert [a.name for a in automata] == [old.name for old in olds]
        for a, old in zip(automata, olds):
            assert parse_oracle.differences(a, old) == []
        everyone = [*before, *automata]
        for a in everyone:
            assert [b for b in everyone if b.alphabet is a.alphabet] == \
                [b for b in everyone if b.alphabet == a.alphabet]
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


FLIPS = {"c": "u", "u": "c", "o": "n", "n": "o"}


def _mutations(text, lines_from=0, lines_to=None):
    """Each token dropped, duplicated, and replaced by zero, a number, a
    negative count, a fresh word and the token before it on its line (which puts a
    repeated token on the line, so a column search must skip the first),
    and each event flag by the other one; only on the lines ``lines_from``
    to ``lines_to`` (0-based, end excluded) when given."""
    lines = text.split("\n")
    for ln, line in enumerate(lines):
        if not lines_from <= ln < (len(lines) if lines_to is None else lines_to):
            continue
        body = line.split("#", 1)[0]
        spans = [m.span() for m in re.finditer(r"\S+", body)]
        for k, (a, b) in enumerate(spans):
            tok = line[a:b]
            previous = [line[spans[k - 1][0]:spans[k - 1][1]]] if k else []
            flipped = [FLIPS[tok]] if tok in FLIPS else []
            for repl in ["", f"{tok} {tok}", "0", "3", "-1", "zz", *previous, *flipped]:
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


def _second_events_lines(text):
    """The lines (0-based, end excluded) of the second block's ``events``
    section, its count line included."""
    lines = text.split("\n")
    starts = [ln for ln, line in enumerate(lines) if line.split()[:1] == ["events"]]
    end = next(ln for ln in range(starts[1], len(lines)) if lines[ln].split()[:1] == ["states"])
    return starts[1], end


def test_mutations_of_a_second_events_section_match_oracle():
    """Every fixture's blocks share one events section; a mutation inside
    the second block's section must give the oracle's outcome and, where
    it still parses, an alphabet of the second block's own unless the
    section reads as the first one does."""
    for strip in (False, True):
        shared = own = 0
        for name in FIXTURE_NAMES:
            text = (FIXTURES / name).read_text()
            if strip:
                text = _without_comments(text)
            for variant in _mutations(text, *_second_events_lines(text)):
                outcome = _outcome(variant)
                if outcome[0] == "parsed":
                    first, second = parse_automaton(variant)[:2]
                    shared += first.alphabet is second.alphabet
                    own += first.alphabet is not second.alphabet
        assert shared and own


def test_mutations_parsed_after_their_fixture_with_one_map_match_oracle():
    """Each fixture is parsed first; every single-token mutation of it is
    then parsed with the same ``alphabets`` map.  Each must give the
    oracle's outcome on the mutation alone, sharing the fixture's
    alphabet only where its own section reads the same."""
    for strip in (False, True):
        for name in FIXTURE_NAMES:
            text = (FIXTURES / name).read_text()
            if strip:
                text = _without_comments(text)
            alphabets = {}
            before = parse_automaton(text, alphabets)
            for variant in _mutations(text):
                _outcome(variant, dict(alphabets), before)


def test_truncated_section_matching_a_shorter_one_read_before_is_not_reused():
    """Blocks over the first ``k`` events of a fixture's section fill the
    map; a second document that announces all its events but ends (or
    runs on into the next keyword) after ``k`` of them holds the same
    ``3 * k`` tokens there, and must raise what the oracle raises rather
    than reuse the shorter alphabet.  Every token prefix of the fixture is
    parsed the same way."""
    for name in FIXTURE_NAMES:
        text = _without_comments((FIXTURES / name).read_text())
        tokens = text.split()
        n_events = int(tokens[3])
        alphabets, before = {}, []
        for k in range(n_events):
            short = " ".join(["automaton", f"short{k}", "events", str(k),
                              *tokens[4:4 + 3 * k], "states 1 q initial q marked 0 trans 0 end"])
            before += parse_automaton(short, alphabets)
        assert len({id(a.alphabet) for a in before}) == n_events
        for k in range(n_events):
            cut = tokens[:4 + 3 * k]
            for rest in ([], ["states"], tokens[4 + 3 * n_events:]):
                outcome = _outcome(" ".join(cut + rest), dict(alphabets), before)
                assert outcome[0] == "ParseError"
        for end in range(len(tokens) + 1):
            _outcome(" ".join(tokens[:end]), dict(alphabets), before)


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

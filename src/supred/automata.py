"""Deterministic finite automata over attributed event alphabets.

Provides the shared representation (events carry controllable/observable
bits; transition maps are partial and deterministic), the ``.aut`` text
format, synchronous product over a common alphabet, reachability trimming,
natural projection of strings, structure-preserving morphism checks, the
lockstep walk of a plant with two automata, and control and language
equivalence with shortest counterexamples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Iterable, Iterator, Optional

from .errors import AlphabetMismatchError, ParseError, PreconditionError

__all__ = [
    "Event",
    "Alphabet",
    "Automaton",
    "MorphismResult",
    "check_same_alphabet",
    "distinct_names",
    "parse_automaton",
    "serialize_automaton",
    "serialize_automata",
    "sync_product",
    "trim_reachable",
    "project_string",
    "is_des_epimorphic",
    "is_des_isomorphic",
    "Lockstep",
    "separating_string",
    "control_equivalent",
    "language_equivalent",
]


@dataclass(frozen=True)
class Event:
    """An alphabet symbol with its control and observation attributes."""

    name: str
    controllable: bool
    observable: bool


class Alphabet:
    """Ordered event list; the order is the canonical event order.

    Event names must be unique, nonempty, whitespace-free and free of
    ``#``, which starts a comment in the ``.aut`` format.  Operations
    over automaton pairs require the two alphabets to agree in names,
    attribute bits and order.  Event sets are ``int`` bitmasks over event
    indices (bit ``e`` stands for event ``e``); ``uncontrollable_mask``
    and ``unobservable_mask`` are two of them, computed once.
    """

    def __init__(self, events: Iterable[Event]):
        self.events: tuple[Event, ...] = tuple(events)
        self._index: dict[str, int] = {}
        self.uncontrollable_mask = self.unobservable_mask = 0
        for i, ev in enumerate(self.events):
            if _bad_token(ev.name):
                raise ValueError(f"bad event name {ev.name!r}")
            if ev.name in self._index:
                raise ValueError(f"duplicate event name {ev.name!r}")
            self._index[ev.name] = i
            if not ev.controllable:
                self.uncontrollable_mask |= 1 << i
            if not ev.observable:
                self.unobservable_mask |= 1 << i

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        return isinstance(other, Alphabet) and self.events == other.events

    def __hash__(self) -> int:
        return hash(self.events)

    def __repr__(self) -> str:
        return f"Alphabet({[e.name for e in self.events]})"

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown event {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def name(self, i: int) -> str:
        return self.events[i].name

    def names_of(self, mask: int) -> list[str]:
        """The names of the events in bitmask ``mask``, in alphabet order."""
        return [ev.name for i, ev in enumerate(self.events) if mask >> i & 1]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(e.name for e in self.events)


def _bad_token(name: str) -> bool:
    """Whether ``name`` is not one whitespace-free token without ``#``."""
    return name.split() != [name] or "#" in name


def check_same_alphabet(a: "Automaton", b: "Automaton") -> None:
    """Raise :class:`AlphabetMismatchError`, naming both automata, unless
    ``a`` and ``b`` carry the identical alphabet."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"automata {a.name!r} and {b.name!r} have different alphabets"
        )


class Automaton:
    """A named deterministic finite automaton with a partial transition map.

    States are addressed by index; ``states`` holds their names.  The
    automaton's name and its state names are, as event names are, single
    whitespace-free tokens without ``#``, so that
    :func:`serialize_automaton` writes text that parses back.  The
    transition relation is stored once, as a dense table: ``succ[q * m +
    e]`` is the target of state ``q`` on event ``e`` for ``m`` events, or
    -1 where undefined.  Every other view is derived from it on first
    read: the ``trans`` dict from ``(state, event)`` pairs to targets and
    the per-state rows ``out_rows``.  The constructor validates and takes
    ``trans``; :meth:`from_table` takes the table and trusts its caller.
    Neither ``succ`` nor a derived view may be edited after construction.
    """

    def __init__(
        self,
        name: str,
        alphabet: Alphabet,
        states: Iterable[str],
        initial: int,
        marked: Iterable[int],
        trans: dict[tuple[int, int], int],
    ):
        states = tuple(states)
        marked = frozenset(marked)
        trans = dict(trans)
        n = len(states)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        # bulk checks; the per-item loops run only to name the first fault
        index = dict(zip(states, range(n)))
        tokens = [name, *states]
        joined = " ".join(tokens)
        if len(index) != n or "#" in joined or joined.split() != tokens:
            if _bad_token(name):
                raise ValueError(f"bad automaton name {name!r}")
            seen: set[str] = set()
            for s in states:
                if _bad_token(s):
                    raise ValueError(f"bad state name {s!r}")
                if s in seen:
                    raise ValueError(f"duplicate state name {s!r}")
                seen.add(s)
        if not (0 <= initial < n):
            raise ValueError("initial state out of range")
        if marked and not (0 <= min(marked) and max(marked) < n):
            raise ValueError("marked state out of range")
        m = len(alphabet)
        # the dense table and the enabled masks; the range check rides along
        # and raises for the first bad item
        enabled = [0] * n
        succ = [-1] * (n * m)
        for (q, e), t in trans.items():
            if not (0 <= q < n and 0 <= t < n and 0 <= e < m):
                raise ValueError(f"transition ({q},{e})->{t} out of range")
            enabled[q] |= 1 << e
            succ[q * m + e] = t
        self._set_up(name, alphabet, states, initial, marked, succ, enabled)
        self._index = index

    @classmethod
    def from_table(cls, name: str, alphabet: Alphabet, states: Iterable[str], initial: int,
                   marked: Iterable[int], succ: list[int],
                   enabled: Optional[Iterable[int]] = None) -> "Automaton":
        """An automaton over the dense table ``succ``, which it keeps.  The
        caller vouches for what the constructor would check: distinct
        well-formed names, states and targets in range, and, when given,
        ``enabled`` as the per-state masks of the events ``succ`` defines.
        The name index is built on first use."""
        a = cls.__new__(cls)
        a._set_up(name, alphabet, states, initial, marked, succ, enabled)
        return a

    def _set_up(self, name, alphabet, states, initial, marked, succ, enabled) -> None:
        self.name = name
        self.alphabet = alphabet
        self.states: tuple[str, ...] = tuple(states)
        self.initial = initial
        self.marked: frozenset[int] = frozenset(marked)
        self.succ: list[int] = succ
        if enabled is None:
            m = len(alphabet)
            enabled = [sum(1 << e for e, t in enumerate(succ[q * m:(q + 1) * m]) if t >= 0)
                       for q in range(len(self.states))]
        self._enabled: tuple[int, ...] = tuple(enabled)
        self._enabled_in: dict[int, int] = {}

    @cached_property
    def _index(self) -> dict[str, int]:
        return dict(zip(self.states, range(len(self.states))))

    @cached_property
    def trans(self) -> dict[tuple[int, int], int]:
        """The map from ``(state, event)`` pairs to targets, in key order,
        built from ``succ`` on first read; no library path reads it."""
        keys = product(range(self.n), range(len(self.alphabet)))
        return {k: t for k, t in zip(keys, self.succ) if t >= 0}

    @cached_property
    def out_rows(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Per-state (event, target) lists in canonical (alphabet) event
        order, built on first read: the walks that read an automaton as their
        plant need them, but no supervisor-side reader."""
        m, succ = len(self.alphabet), self.succ
        return tuple(tuple((e, t) for e, t in enumerate(succ[q * m:(q + 1) * m]) if t >= 0)
                     for q in range(self.n))

    @property
    def n(self) -> int:
        return len(self.states)

    @property
    def n_trans(self) -> int:
        """The number of transitions."""
        return len(self.succ) - self.succ.count(-1)

    def step(self, state: int, event: int) -> Optional[int]:
        """The target of ``state`` on ``event``; None if it is undefined."""
        m = len(self.alphabet)
        t = self.succ[state * m + event] if 0 <= event < m and 0 <= state < self.n else -1
        return t if t >= 0 else None

    def enabled(self, state: int) -> int:
        """Bitmask of the events defined at ``state``, computed once."""
        return self._enabled[state]

    def enabled_in(self, states: int) -> int:
        """Bitmask of the events defined at some state of the bitmask
        ``states``, computed once per bitmask of two states or more."""
        if not states & (states - 1):  # no state or one
            return self._enabled[states.bit_length() - 1] if states else 0
        union = self._enabled_in.get(states)
        if union is None:
            union, rest, enabled = 0, states, self._enabled
            while rest:
                low = rest & -rest
                union |= enabled[low.bit_length() - 1]
                rest ^= low
            self._enabled_in[states] = union
        return union

    def state_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown state {name!r} in automaton {self.name!r}") from None

    def run(self, string: Iterable[int], start: Optional[int] = None) -> Optional[int]:
        """Follow ``string`` (event indices); None if a step is undefined."""
        q = self.initial if start is None else start
        for e in string:
            nxt = self.step(q, e)
            if nxt is None:
                return None
            q = nxt
        return q

    def renamed(self, name: str) -> "Automaton":
        if _bad_token(name):
            raise ValueError(f"bad automaton name {name!r}")
        return Automaton.from_table(name, self.alphabet, self.states, self.initial, self.marked,
                                    self.succ, self._enabled)

    def with_alphabet(self, alphabet: Alphabet) -> "Automaton":
        """Same structure over an alphabet with identical names and order
        but possibly different attribute bits (e.g. to reread a system with
        an event turned unobservable)."""
        if alphabet.names != self.alphabet.names:
            raise ValueError("replacement alphabet must keep event names and order")
        return Automaton.from_table(self.name, alphabet, self.states, self.initial, self.marked,
                                    self.succ, self._enabled)

    def is_reachable(self) -> bool:
        return len(_reachable_set(self)) == self.n

    def __repr__(self) -> str:
        return f"Automaton({self.name!r}, {self.n} states, {self.n_trans} transitions)"


@dataclass
class MorphismResult:
    """Verdict of a DES-morphism check plus the state map when it exists."""

    verdict: bool
    mapping: Optional[dict[int, int]] = None

    def __bool__(self) -> bool:
        return self.verdict


# ---------------------------------------------------------------------------
# .aut text format


class _TokenStream:
    """The tokens of an ``.aut`` document.  Lines and columns are worked
    out only for the token an error names."""

    def __init__(self, text: str):
        self.text = text = text.lstrip("\ufeff")
        if "#" in text:
            text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
        # every line break str.splitlines knows is whitespace to str.split
        self.tokens: list[str] = text.split()
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> str:
        """The next token; :meth:`error` with ``back=1`` names it."""
        pos = self.pos
        if pos >= len(self.tokens):
            raise ParseError(f"unexpected end of input, expected {what}")
        self.pos = pos + 1
        return self.tokens[pos]

    def error(self, message: str, back: int = 1, kind: str = "syntax") -> ParseError:
        """A :class:`ParseError` at the token ``back`` places before the
        read position (``back=0`` is the next token, if there is one)."""
        at = self.pos - back
        if at >= len(self.tokens):
            return ParseError(message, kind=kind)
        for ln, line in enumerate(self.text.splitlines(), start=1):
            body = line.split("#", 1)[0]
            toks = body.split()
            if at < len(toks):
                col = 0
                for tok in toks[: at + 1]:
                    col = body.index(tok, col) + len(tok)
                return ParseError(message, ln, col - len(tok) + 1, kind=kind)
            at -= len(toks)
        raise AssertionError("token index past the last line")  # pragma: no cover

    def expect(self, literal: str) -> None:
        tok = self.next(f"'{literal}'")
        if tok != literal:
            raise self.error(f"expected '{literal}', found '{tok}'")

    def count(self, what: str) -> int:
        tok = self.next(what)
        try:
            value = int(tok)
        except ValueError:
            raise self.error(f"expected a count for {what}, found '{tok}'") from None
        if value < 0:
            raise self.error(f"negative count for {what}")
        return value


def _parse_block(ts: _TokenStream) -> Automaton:
    ts.expect("automaton")
    name = ts.next("automaton name")

    ts.expect("events")
    n_events = ts.count("events")
    events: list[Event] = []
    names_seen: set[str] = set()
    for _ in range(n_events):
        ev_name = ts.next("event name")
        if ev_name in names_seen:
            raise ts.error(f"duplicate event name '{ev_name}'", kind="duplicate")
        names_seen.add(ev_name)
        c_tok = ts.next("controllability flag")
        if c_tok not in ("c", "u"):
            raise ts.error(f"expected 'c' or 'u', found '{c_tok}'")
        o_tok = ts.next("observability flag")
        if o_tok not in ("o", "n"):
            raise ts.error(f"expected 'o' or 'n', found '{o_tok}'")
        events.append(Event(ev_name, c_tok == "c", o_tok == "o"))
    alphabet = Alphabet(events)

    ts.expect("states")
    n_states = ts.count("states")
    if n_states == 0:
        raise ts.error("automaton must have at least one state", back=0)
    # Read the section in one go.  A short or repeating list leaves fewer
    # than n_states names; it is then reread token by token, which raises
    # at the first bad token.
    start = ts.pos
    state_names = ts.tokens[start:start + n_states]
    state_index = {s: i for i, s in enumerate(state_names)}
    if len(state_index) == n_states:
        ts.pos = start + n_states
    else:
        state_names, state_index = [], {}
        for _ in range(n_states):
            s = ts.next("state name")
            if s in state_index:
                raise ts.error(f"duplicate state name '{s}'", kind="duplicate")
            state_index[s] = len(state_names)
            state_names.append(s)

    def resolve_state(what: str) -> int:
        s = ts.next(what)
        if s not in state_index:
            raise ts.error(f"unknown state '{s}'", kind="unknown")
        return state_index[s]

    ts.expect("initial")
    initial = resolve_state("initial state")

    ts.expect("marked")
    n_marked = ts.count("marked states")
    # Likewise: a short list or an unknown name leaves it to the token loop.
    start = ts.pos
    chunk = ts.tokens[start:start + n_marked]
    try:
        marked = [state_index[s] for s in chunk]
    except KeyError:
        marked = []
    if len(marked) == n_marked:
        ts.pos = start + n_marked
    else:
        marked = [resolve_state("marked state") for _ in range(n_marked)]

    ts.expect("trans")
    n_trans = ts.count("transitions")
    # Likewise: a missing or unknown token leaves fewer than n_trans
    # targets, and a repeated (source, event) fewer than n_trans entries.
    m = len(alphabet)
    succ = [-1] * (n_states * m)
    enabled = [0] * n_states
    start = ts.pos
    chunk = ts.tokens[start:start + 3 * n_trans]
    try:
        sources = [state_index[s] for s in chunk[0::3]]
        labels = [alphabet._index[ev] for ev in chunk[1::3]]
        targets = [state_index[s] for s in chunk[2::3]]
    except KeyError:
        targets = []
    if len(targets) == n_trans:
        for q, e, t in zip(sources, labels, targets):
            succ[q * m + e] = t
            enabled[q] |= 1 << e
    if len(succ) - succ.count(-1) == n_trans:
        ts.pos = start + 3 * n_trans
    else:
        succ = [-1] * (n_states * m)
        enabled = [0] * n_states
        for _ in range(n_trans):
            src = resolve_state("transition source")
            ev = ts.next("transition event")
            if ev not in alphabet:
                raise ts.error(f"unknown event '{ev}'", kind="unknown")
            e = alphabet.index(ev)
            dst = resolve_state("transition target")
            if succ[src * m + e] >= 0:
                raise ts.error(
                    f"nondeterministic transitions from '{state_names[src]}' on '{ev}'",
                    back=2, kind="nondeterministic")
            succ[src * m + e] = dst
            enabled[src] |= 1 << e

    ts.expect("end")
    return Automaton.from_table(name, alphabet, state_names, initial, marked, succ, enabled)


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


def serialize_automaton(a: Automaton) -> str:
    """Render one automaton in canonical ``.aut`` form.

    The form is a fixed point: parsing and re-serialising reproduces it
    byte for byte.
    """
    lines = [f"automaton {a.name}", f"events {len(a.alphabet)}"]
    for ev in a.alphabet:
        lines.append(f"{ev.name} {'c' if ev.controllable else 'u'} {'o' if ev.observable else 'n'}")
    lines.append(f"states {a.n}")
    lines.append(" ".join(a.states))
    lines.append(f"initial {a.states[a.initial]}")
    marked = sorted(a.marked)
    lines.append(" ".join(["marked", str(len(marked))] + [a.states[q] for q in marked]))
    lines.append(f"trans {a.n_trans}")
    # the table in index order is the (state, event) order
    states, events, m, succ = a.states, a.alphabet.names, len(a.alphabet), a.succ
    lines += [f"{src} {ev} {states[t]}" for q, src in enumerate(states)
              for ev, t in zip(events, succ[q * m:(q + 1) * m]) if t >= 0]
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_automata(automata: Iterable[Automaton]) -> str:
    """Render several automata as one canonical ``.aut`` document."""
    return "\n".join(serialize_automaton(a) for a in automata)


# ---------------------------------------------------------------------------
# Constructions


def distinct_names(names: list[str]) -> list[str]:
    """Composite state names (product pairs, member lists) made distinct;
    they coincide when component names contain the separators.  Distinct
    names come back unchanged; otherwise each repeat of a name gets the
    suffix ``~k`` with the least ``k >= 1`` not yet taken."""
    taken = set(names)
    if len(taken) == len(names):
        return names
    out: list[str] = []
    seen: set[str] = set()
    for name in names:
        if name in seen:
            k = 1
            while f"{name}~{k}" in taken:
                k += 1
            name = f"{name}~{k}"
            taken.add(name)
        seen.add(name)
        out.append(name)
    return out


def _reachable_set(a: Automaton) -> list[int]:
    """States reachable from the initial state, in BFS discovery order
    (events taken in alphabet order)."""
    m, succ = len(a.alphabet), a.succ
    order = [a.initial]
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        q = queue.popleft()
        for t in succ[q * m:(q + 1) * m]:
            if t >= 0 and t not in seen:
                seen.add(t)
                order.append(t)
                queue.append(t)
    return order


def trim_reachable(a: Automaton) -> Automaton:
    """Restrict to the part reachable from the initial state.

    States are re-listed in BFS discovery order, so the result is a fixed
    point of this operation.
    """
    order = _reachable_set(a)
    m, succ = len(a.alphabet), a.succ
    # one slot past the states, so that remap[-1] keeps an undefined entry -1
    remap = [-1] * (a.n + 1)
    for new, old in enumerate(order):
        remap[old] = new
    table: list[int] = []
    for q in order:
        table += [remap[t] for t in succ[q * m:(q + 1) * m]]
    return Automaton.from_table(a.name, a.alphabet, [a.states[q] for q in order], 0,
                                [remap[q] for q in a.marked if remap[q] >= 0], table,
                                [a._enabled[q] for q in order])


def sync_product(a: Automaton, b: Automaton, name: Optional[str] = None) -> Automaton:
    """Reachable synchronous product of two automata over one alphabet.

    Both operands must carry the identical alphabet; a transition exists in
    the product exactly when both components define it, and a product state
    is marked exactly when both components are marked.  The product is
    reachable by construction and its state order is BFS discovery order,
    so it is already trim.
    """
    check_same_alphabet(a, b)
    m, nb = len(a.alphabet), b.n
    a_out, b_succ = a.out_rows, b.succ
    a_states, b_states = a.states, b.states
    # a pair is coded as the int qa * nb + qb; order doubles as the queue
    index = {a.initial * nb + b.initial: 0}
    order = [(a.initial, b.initial)]
    names = [f"({a_states[a.initial]},{b_states[b.initial]})"]
    succ: list[int] = []
    for qa, qb in order:
        base = qb * m
        row = [-1] * m
        for e, ta in a_out[qa]:
            tb = b_succ[base + e]
            if tb < 0:
                continue
            code = ta * nb + tb
            dst = index.get(code)
            if dst is None:
                dst = index[code] = len(order)
                order.append((ta, tb))
                names.append(f"({a_states[ta]},{b_states[tb]})")
            row[e] = dst
        succ += row
    marked = [i for i, (qa, qb) in enumerate(order) if qa in a.marked and qb in b.marked]
    enabled = [a._enabled[qa] & b._enabled[qb] for qa, qb in order]
    return Automaton.from_table(name or f"{a.name}||{b.name}", a.alphabet,
                                distinct_names(names), 0, marked, succ, enabled)


def project_string(string: Iterable[str], alphabet: Alphabet) -> list[str]:
    """Natural projection: erase unobservable events, keep the rest in order."""
    out: list[str] = []
    for name in string:
        i = alphabet.index(name)
        if alphabet.events[i].observable:
            out.append(name)
    return out


# ---------------------------------------------------------------------------
# Morphisms and language equivalence


def _require_reachable(a: Automaton, op: str) -> None:
    if not a.is_reachable():
        raise PreconditionError("reachable", f"{op}: automaton {a.name!r} has unreachable states")


def is_des_epimorphic(a: Automaton, b: Automaton) -> MorphismResult:
    """Check for a DES-epimorphism from ``a`` onto ``b``.

    For deterministic reachable automata the only candidate map is forced
    by following transitions from the pairing of initial states, so the
    check is a synchronized traversal plus the final structural conditions
    (surjectivity, exact marked-set correspondence, and every b-transition
    being witnessed by some preimage).
    """
    check_same_alphabet(a, b)
    _require_reachable(a, "is_des_epimorphic")
    _require_reachable(b, "is_des_epimorphic")
    m, a_succ, b_succ = len(a.alphabet), a.succ, b.succ
    theta: dict[int, int] = {a.initial: b.initial}
    queue = deque([a.initial])
    while queue:
        x = queue.popleft()
        base = theta[x] * m
        for e, x2 in enumerate(a_succ[x * m:(x + 1) * m]):
            if x2 < 0:
                continue
            y2 = b_succ[base + e]
            if y2 < 0:
                return MorphismResult(False)
            if x2 in theta:
                if theta[x2] != y2:
                    return MorphismResult(False)
            else:
                theta[x2] = y2
                queue.append(x2)
    if set(theta.values()) != set(range(b.n)):
        return MorphismResult(False)
    if {theta[x] for x in a.marked} != set(b.marked):
        return MorphismResult(False)
    # every b-transition is witnessed: the events of a state of b are among
    # those of its preimages
    witnessed = [0] * b.n
    for x, y in theta.items():
        witnessed[y] |= a._enabled[x]
    if any(en & ~w for en, w in zip(b._enabled, witnessed)):
        return MorphismResult(False)
    return MorphismResult(True, theta)


def is_des_isomorphic(a: Automaton, b: Automaton) -> MorphismResult:
    """DES-epimorphism with a bijective state map: an epimorphism's map is
    onto ``b`` and total on ``a``, so equal sizes make it a bijection."""
    if a.n != b.n:
        return MorphismResult(False)
    return is_des_epimorphic(a, b)


class Lockstep:
    """Breadth-first walk of the triples ``(x, qa, qb)`` that the plant
    ``g`` and the automata ``a`` and ``b`` reach together on the events all
    three define, in the order of the reachable pairs of ``(g||a)||b``; no
    product automaton is built, successors are read from ``succ``.

    Each pair ``(qa, qb)`` the walk reaches gets an id ``p``, in order of
    first reach: ``pair_a[p]`` and ``pair_b[p]`` are its states and
    ``reached[p]`` is the bitmask of the plant states walked with it.  Node
    ``i`` is the triple ``(xs[i], pair_a[pairs[i]], pair_b[pairs[i]])``
    (``qas`` and ``qbs`` list those states per node), first reached from
    node ``parent[i]`` by ``event[i]``.  Facts that depend on the pair
    alone are read once per pair, and facts about the plant once per
    distinct ``reached`` set.  Events go in alphabet order, so
    :meth:`string` rebuilds a shortest string, ties broken by alphabet
    order.  :meth:`levels` walks afresh, one BFS level at a time; ``starts``
    holds the first node of each level handed over, so a node's depth is the
    index of the last start not above it.  After :meth:`run` the arrays hold
    every triple, and readers scan them.
    """

    def __init__(self, g: Automaton, a: Automaton, b: Automaton):
        check_same_alphabet(g, a)
        check_same_alphabet(g, b)
        self.g, self.a, self.b = g, a, b
        self.xs: list[int] = []
        self.pairs: list[int] = []
        self.parent: list[int] = []
        self.event: list[int] = []
        self.starts: list[int] = []
        self.pair_a: list[int] = []
        self.pair_b: list[int] = []
        self.reached: list[int] = []

    @property
    def qas(self) -> list[int]:
        """The ``a`` state of each node."""
        pair_a = self.pair_a
        return [pair_a[p] for p in self.pairs]

    @property
    def qbs(self) -> list[int]:
        """The ``b`` state of each node."""
        pair_b = self.pair_b
        return [pair_b[p] for p in self.pairs]

    def levels(self) -> Iterator[tuple[int, int]]:
        """Walk afresh, yielding the node range ``(lo, hi)`` of each level
        once it is complete and before it is expanded."""
        g, a, b = self.g, self.a, self.b
        m, ng, nb = len(g.alphabet), g.n, b.n
        g_out, a_succ, b_succ = g.out_rows, a.succ, b.succ
        a_enabled, b_enabled = a._enabled, b._enabled
        xs, pairs, parent, event, starts = (self.xs, self.pairs, self.parent, self.event,
                                            self.starts)
        pair_a, pair_b, reached = self.pair_a, self.pair_b, self.reached
        xs[:], pairs[:], parent[:], event[:], starts[:] = [g.initial], [0], [-1], [-1], []
        pair_a[:], pair_b[:], reached[:] = [a.initial], [b.initial], [1 << g.initial]
        # Per pair: its successor pair per event, in one flat row filled on
        # first use (-1 until then), and the table of the plant's steps on
        # the events both its states define, per plant state x (None until
        # x meets such a pair): (event, target, target's bit).  Pairs that
        # share the same events share a table.  A pair (qa, qb) is coded as
        # qa * nb + qb.
        tables = {a_enabled[a.initial] & b_enabled[b.initial]: [None] * ng}
        pair_steps = list(tables.values())
        unset = [-1] * m
        succ = unset[:]
        index = {a.initial * nb + b.initial: 0}
        lo, hi = 0, 1
        while lo < hi:
            starts.append(lo)
            yield lo, hi
            for node, x, p in zip(range(lo, hi), xs[lo:hi], pairs[lo:hi]):
                steps = pair_steps[p]
                out = steps[x]
                if out is None:
                    shared = a_enabled[pair_a[p]] & b_enabled[pair_b[p]]
                    out = steps[x] = [(e, xt, 1 << xt) for e, xt in g_out[x]
                                      if shared >> e & 1]
                base = p * m
                for e, xt, bit in out:
                    t = succ[base + e]
                    if t < 0:
                        ta = a_succ[pair_a[p] * m + e]
                        tb = b_succ[pair_b[p] * m + e]
                        code = ta * nb + tb
                        t = index.get(code)
                        if t is None:
                            t = index[code] = len(pair_a)
                            pair_a.append(ta)
                            pair_b.append(tb)
                            reached.append(0)
                            shared = a_enabled[ta] & b_enabled[tb]
                            steps = tables.get(shared)
                            if steps is None:
                                steps = tables[shared] = [None] * ng
                            pair_steps.append(steps)
                            succ += unset
                        succ[base + e] = t
                    if not reached[t] & bit:
                        reached[t] |= bit
                        xs.append(xt)
                        pairs.append(t)
                        parent.append(node)
                        event.append(e)
            lo, hi = hi, len(xs)

    def run(self) -> "Lockstep":
        """Walk to the end; the arrays then hold every triple."""
        deque(self.levels(), maxlen=0)
        return self

    def string(self, node: int) -> tuple[int, ...]:
        """The first string (event indices) reaching ``node``."""
        parent, event = self.parent, self.event
        back = []
        while node:
            back.append(event[node])
            node = parent[node]
        return tuple(reversed(back))


def separating_string(walk: Lockstep) -> Optional[list[str]]:
    """A shortest string, ties broken by alphabet order, that separates the
    closed loops of the two automata of ``walk`` with its plant: marking
    disagrees inside the plant after it, or the plant offers an event after
    it that just one of them defines.  None when there is none.  The walk
    is driven level by level and left one level past the first witness, so
    it is complete when None comes back."""
    g, a, b = walk.g, walk.a, walk.b
    # per state, its events over its marking bit: a and b clash where they
    # differ inside the plant's
    gm, am, bm = ([en << 1 | (q in aut.marked) for q, en in enumerate(aut._enabled)]
                  for aut in (g, a, b))
    xs, pairs, pair_a, pair_b = walk.xs, walk.pairs, walk.pair_a, walk.pair_b
    split: list[int] = []  # per pair, where the rows of its two states differ
    # The walk meets strings of one length in shortlex order, so the first
    # witness of each kind and length is the least of its kind and length.
    witnesses: dict[tuple[int, bool], tuple[int, tuple[int, ...]]] = {}
    for d, (lo, hi) in enumerate(walk.levels()):
        if witnesses and d > min(witnesses)[0]:
            break  # no later level gives a shorter witness
        known = len(split)
        split += [am[qa] ^ bm[qb] for qa, qb in zip(pair_a[known:], pair_b[known:])]
        clashes = [gm[x] & split[p] for x, p in zip(xs[lo:hi], pairs[lo:hi])]
        if not any(clashes):
            continue
        for node, clash in enumerate(clashes, lo):
            if clash & 1:
                witnesses.setdefault((d, False), (node, ()))
            differ = clash >> 1
            if differ:
                witnesses.setdefault((d + 1, True), (node, ((differ & -differ).bit_length() - 1,)))
    if not witnesses:
        return None
    least = min((len(w), w) for w in (walk.string(node) + tail
                                       for node, tail in witnesses.values()))[1]
    return [g.alphabet.name(e) for e in least]


def control_equivalent(
    g: Automaton, a: Automaton, b: Automaton
) -> tuple[bool, Optional[list[str]]]:
    """Whether L(g||a) = L(g||b) and Lm(g||a) = Lm(g||b), read off
    :class:`Lockstep`: marking must agree inside the plant at every triple,
    and no event the plant offers may be defined by just one of ``a`` and
    ``b``.  On failure returns the :func:`separating_string`."""
    walk = Lockstep(g, a, b)
    if a is b:
        return True, None
    string = separating_string(walk)
    return string is None, string


def language_equivalent(
    a: Automaton, b: Automaton
) -> tuple[bool, Optional[list[str]]]:
    """Decide L(a)=L(b) and Lm(a)=Lm(b) for deterministic reachable
    automata: :func:`control_equivalent` under a one-state plant that
    allows and marks every string.  On failure returns a shortest witness
    string (ties broken by alphabet order) in exactly one of the languages."""
    check_same_alphabet(a, b)
    _require_reachable(a, "language_equivalent")
    _require_reachable(b, "language_equivalent")
    m = len(a.alphabet)
    universal = Automaton.from_table("*", a.alphabet, ["*"], 0, [0], [0] * m, [(1 << m) - 1])
    return control_equivalent(universal, a, b)

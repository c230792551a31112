"""Deterministic finite automata over attributed event alphabets.

Provides the shared representation (events carry controllable/observable
bits; transition maps are partial and deterministic), the ``.aut`` text
format, synchronous product over a common alphabet, reachability trimming,
natural projection of strings, subset construction under partial
observation, structure-preserving morphism checks, and language
equivalence with shortest counterexamples.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from .errors import AlphabetMismatchError, ParseError, PreconditionError

__all__ = [
    "Event",
    "Alphabet",
    "Automaton",
    "MorphismResult",
    "check_same_alphabet",
    "parse_automaton",
    "serialize_automaton",
    "serialize_automata",
    "sync_product",
    "sync_product_pairs",
    "trim_reachable",
    "project_string",
    "subset_construction",
    "subset_construction_with_members",
    "is_des_epimorphic",
    "is_des_isomorphic",
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

    Event names must be unique, nonempty and whitespace-free.  Operations
    over automaton pairs require the two alphabets to agree in names,
    attribute bits and order.  Event sets are ``int`` bitmasks over event
    indices (bit ``e`` stands for event ``e``).
    """

    def __init__(self, events: Iterable[Event]):
        self.events: tuple[Event, ...] = tuple(events)
        self._index: dict[str, int] = {}
        for i, ev in enumerate(self.events):
            if ev.name.split() != [ev.name]:
                raise ValueError(f"bad event name {ev.name!r}")
            if ev.name in self._index:
                raise ValueError(f"duplicate event name {ev.name!r}")
            self._index[ev.name] = i

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

    @property
    def controllable(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.events) if e.controllable)

    @property
    def uncontrollable(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.events) if not e.controllable)

    @property
    def observable(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.events) if e.observable)

    @property
    def unobservable(self) -> frozenset[int]:
        return frozenset(i for i, e in enumerate(self.events) if not e.observable)


def check_same_alphabet(a: "Automaton", b: "Automaton") -> None:
    """Raise :class:`AlphabetMismatchError`, naming both automata, unless
    ``a`` and ``b`` carry the identical alphabet."""
    if a.alphabet != b.alphabet:
        raise AlphabetMismatchError(
            f"automata {a.name!r} and {b.name!r} have different alphabets"
        )


class Automaton:
    """A named deterministic finite automaton with a partial transition map.

    States are addressed by index; ``states`` holds their names.  The map
    ``trans`` sends ``(state, event)`` pairs to target states and is
    deterministic by construction.
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
        self.name = name
        self.alphabet = alphabet
        self.states: tuple[str, ...] = tuple(states)
        self.initial = initial
        self.marked: frozenset[int] = frozenset(marked)
        self.trans: dict[tuple[int, int], int] = dict(trans)
        n = len(self.states)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        seen: set[str] = set()
        for s in self.states:
            if s.split() != [s]:
                raise ValueError(f"bad state name {s!r}")
            if s in seen:
                raise ValueError(f"duplicate state name {s!r}")
            seen.add(s)
        if not (0 <= self.initial < n):
            raise ValueError("initial state out of range")
        if any(not (0 <= q < n) for q in self.marked):
            raise ValueError("marked state out of range")
        m = len(self.alphabet)
        for (q, e), t in self.trans.items():
            if not (0 <= q < n and 0 <= t < n and 0 <= e < m):
                raise ValueError(f"transition ({q},{e})->{t} out of range")
        # per-state transition lists in canonical (alphabet) event order
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        enabled = [0] * n
        for (q, e), t in self.trans.items():
            out[q].append((e, t))
            enabled[q] |= 1 << e
        for row in out:
            row.sort()
        self._out: tuple[tuple[tuple[int, int], ...], ...] = tuple(tuple(r) for r in out)
        self._enabled: tuple[int, ...] = tuple(enabled)

    @property
    def n(self) -> int:
        return len(self.states)

    def step(self, state: int, event: int) -> Optional[int]:
        return self.trans.get((state, event))

    def out(self, state: int) -> tuple[tuple[int, int], ...]:
        """Outgoing (event, target) pairs at ``state``, in event order."""
        return self._out[state]

    def enabled(self, state: int) -> int:
        """Bitmask of the events defined at ``state``, computed once."""
        return self._enabled[state]

    def state_index(self, name: str) -> int:
        try:
            return self.states.index(name)
        except ValueError:
            raise ValueError(f"unknown state {name!r} in automaton {self.name!r}") from None

    def run(self, string: Iterable[int], start: Optional[int] = None) -> Optional[int]:
        """Follow ``string`` (event indices); None if a step is undefined."""
        q = self.initial if start is None else start
        for e in string:
            nxt = self.trans.get((q, e))
            if nxt is None:
                return None
            q = nxt
        return q

    def renamed(self, name: str) -> "Automaton":
        return Automaton(name, self.alphabet, self.states, self.initial, self.marked, self.trans)

    def with_alphabet(self, alphabet: Alphabet) -> "Automaton":
        """Same structure over an alphabet with identical names and order
        but possibly different attribute bits (e.g. to reread a system with
        an event turned unobservable)."""
        if alphabet.names != self.alphabet.names:
            raise ValueError("replacement alphabet must keep event names and order")
        return Automaton(self.name, alphabet, self.states, self.initial, self.marked, self.trans)

    def is_reachable(self) -> bool:
        return len(_reachable_set(self)) == self.n

    def __repr__(self) -> str:
        return f"Automaton({self.name!r}, {self.n} states, {len(self.trans)} transitions)"


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
    """The tokens of an ``.aut`` document with their line numbers.  Columns
    are worked out only for the token an error names."""

    def __init__(self, text: str):
        self.lines = text.lstrip("\ufeff").splitlines()
        self.tokens: list[str] = []
        self.line_of: list[int] = []
        for ln, line in enumerate(self.lines, start=1):
            toks = line.split("#", 1)[0].split()
            self.tokens += toks
            self.line_of += [ln] * len(toks)
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
        ln = self.line_of[at]
        first = at
        while first and self.line_of[first - 1] == ln:
            first -= 1
        body = self.lines[ln - 1].split("#", 1)[0]
        col = 0
        for tok in body.split()[: at - first + 1]:
            col = body.index(tok, col) + len(tok)
        return ParseError(message, ln, col - len(tok) + 1, kind=kind)

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
    state_names: list[str] = []
    state_index: dict[str, int] = {}
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
    marked = [resolve_state("marked state") for _ in range(n_marked)]

    ts.expect("trans")
    n_trans = ts.count("transitions")
    trans: dict[tuple[int, int], int] = {}
    for _ in range(n_trans):
        src = resolve_state("transition source")
        ev = ts.next("transition event")
        if ev not in alphabet:
            raise ts.error(f"unknown event '{ev}'", kind="unknown")
        e = alphabet.index(ev)
        dst = resolve_state("transition target")
        if (src, e) in trans:
            raise ts.error(
                f"nondeterministic transitions from '{state_names[src]}' on '{ev}'",
                back=2, kind="nondeterministic")
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
    items = sorted(a.trans.items())
    lines.append(f"trans {len(items)}")
    for (q, e), t in items:
        lines.append(f"{a.states[q]} {a.alphabet.name(e)} {a.states[t]}")
    lines.append("end")
    return "\n".join(lines) + "\n"


def serialize_automata(automata: Iterable[Automaton]) -> str:
    """Render several automata as one canonical ``.aut`` document."""
    return "\n".join(serialize_automaton(a) for a in automata)


# ---------------------------------------------------------------------------
# Constructions


def _reachable_set(a: Automaton) -> list[int]:
    """States reachable from the initial state, in BFS discovery order
    (events taken in alphabet order)."""
    order = [a.initial]
    seen = {a.initial}
    queue = deque([a.initial])
    while queue:
        q = queue.popleft()
        for _, t in a.out(q):
            if t not in seen:
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
    remap = {old: new for new, old in enumerate(order)}
    trans = {
        (remap[q], e): remap[t]
        for (q, e), t in a.trans.items()
        if q in remap and t in remap
    }
    return Automaton(
        a.name,
        a.alphabet,
        [a.states[q] for q in order],
        remap[a.initial],
        [remap[q] for q in a.marked if q in remap],
        trans,
    )


def sync_product(a: Automaton, b: Automaton, name: Optional[str] = None) -> Automaton:
    """Reachable synchronous product of two automata over one alphabet.

    Both operands must carry the identical alphabet; a transition exists in
    the product exactly when both components define it, and a product state
    is marked exactly when both components are marked.
    """
    product, _ = sync_product_pairs(a, b, name)
    return product


def sync_product_pairs(
    a: Automaton, b: Automaton, name: Optional[str] = None
) -> tuple[Automaton, list[tuple[int, int]]]:
    """Synchronous product plus the (a-state, b-state) pair behind each
    product state.  The product is reachable by construction and its state
    order is BFS discovery order, so it is already trim."""
    check_same_alphabet(a, b)
    start = (a.initial, b.initial)
    index: dict[tuple[int, int], int] = {start: 0}
    order = [start]
    names = [f"({a.states[start[0]]},{b.states[start[1]]})"]
    trans: dict[tuple[int, int], int] = {}
    queue = deque([start])
    while queue:
        qa, qb = queue.popleft()
        src = index[(qa, qb)]
        for e, ta in a.out(qa):
            tb = b.step(qb, e)
            if tb is None:
                continue
            key = (ta, tb)
            if key not in index:
                index[key] = len(order)
                order.append(key)
                names.append(f"({a.states[ta]},{b.states[tb]})")
                queue.append(key)
            trans[(src, e)] = index[key]
    marked = [
        index[(qa, qb)]
        for (qa, qb) in order
        if qa in a.marked and qb in b.marked
    ]
    product = Automaton(name or f"{a.name}||{b.name}", a.alphabet, names, 0, marked, trans)
    return product, order


def project_string(string: Iterable[str], alphabet: Alphabet) -> list[str]:
    """Natural projection: erase unobservable events, keep the rest in order."""
    out: list[str] = []
    for name in string:
        i = alphabet.index(name)
        if alphabet.events[i].observable:
            out.append(name)
    return out


def _unobservable_closure(a: Automaton, seed: frozenset[int], unobs: frozenset[int]) -> frozenset[int]:
    reached = set(seed)
    queue = list(seed)
    while queue:
        q = queue.pop()
        for e, t in a.out(q):
            if e in unobs and t not in reached:
                reached.add(t)
                queue.append(t)
    return frozenset(reached)


def subset_construction_with_members(
    a: Automaton, name: Optional[str] = None
) -> tuple[Automaton, list[frozenset[int]]]:
    """Subset construction plus the member set behind each subset state.

    See :func:`subset_construction`; the member lists are needed by callers
    that characterise subset states in terms of the original automaton.
    """
    unobs = a.alphabet.unobservable
    obs = sorted(a.alphabet.observable)
    start = _unobservable_closure(a, frozenset([a.initial]), unobs)
    index: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    trans: dict[tuple[int, int], int] = {}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        src = index[subset]
        for e in obs:
            move = {a.step(q, e) for q in subset}
            move.discard(None)
            if not move:
                continue
            target = _unobservable_closure(a, frozenset(move), unobs)
            if target not in index:
                index[target] = len(order)
                order.append(target)
                queue.append(target)
            trans[(src, e)] = index[target]
        # unobservable events reappear as selfloops wherever some member
        # state of the subset is a source of that event
        for u in sorted(unobs):
            if any(a.step(q, u) is not None for q in subset):
                trans[(src, u)] = src
    names = ["+".join(sorted(a.states[q] for q in subset)) for subset in order]
    marked = [i for i, subset in enumerate(order) if subset & a.marked]
    out = Automaton(name or f"det({a.name})", a.alphabet, names, 0, marked, trans)
    return out, order


def subset_construction(a: Automaton, name: Optional[str] = None) -> Automaton:
    """Determinise over the observable events, with unobservable events
    reinserted as selfloops at every subset state containing one of their
    source states.

    The input must be reachable.  The output is deterministic, every
    transition between distinct states is observable, and a subset state is
    marked exactly when it contains a marked input state.
    """
    out, _ = subset_construction_with_members(a, name)
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
    theta: dict[int, int] = {a.initial: b.initial}
    queue = deque([a.initial])
    while queue:
        x = queue.popleft()
        for e, x2 in a.out(x):
            y2 = b.step(theta[x], e)
            if y2 is None:
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
    preimage: dict[int, list[int]] = {}
    for x, y in theta.items():
        preimage.setdefault(y, []).append(x)
    for (y, e) in b.trans:
        if not any(a.step(x, e) is not None for x in preimage[y]):
            return MorphismResult(False)
    return MorphismResult(True, theta)


def is_des_isomorphic(a: Automaton, b: Automaton) -> MorphismResult:
    """DES-epimorphism with a bijective state map."""
    if a.n != b.n:
        return MorphismResult(False)
    result = is_des_epimorphic(a, b)
    if not result.verdict:
        return result
    assert result.mapping is not None
    if len(set(result.mapping.values())) != a.n:
        return MorphismResult(False)
    return result


def language_equivalent(
    a: Automaton, b: Automaton
) -> tuple[bool, Optional[list[str]]]:
    """Decide L(a)=L(b) and Lm(a)=Lm(b) for deterministic reachable automata.

    Walks the synchronized pair graph demanding equal enabled sets and equal
    marking at every reached pair.  On failure returns a shortest witness
    string (ties broken by alphabet order) that lies in exactly one of the
    languages concerned.
    """
    check_same_alphabet(a, b)
    _require_reachable(a, "language_equivalent")
    _require_reachable(b, "language_equivalent")
    start = (a.initial, b.initial)
    paths: dict[tuple[int, int], tuple[int, ...]] = {start: ()}
    queue = deque([start])
    witnesses: list[tuple[int, tuple[int, ...]]] = []
    while queue:
        qa, qb = queue.popleft()
        path = paths[(qa, qb)]
        if (qa in a.marked) != (qb in b.marked):
            witnesses.append((len(path), path))
        eb = b.enabled(qb)
        differ = a.enabled(qa) ^ eb
        if differ:
            witnesses.append((len(path) + 1, path + ((differ & -differ).bit_length() - 1,)))
        for e, ta in a.out(qa):
            if eb >> e & 1:
                nxt = (ta, b.trans[(qb, e)])
                if nxt not in paths:
                    paths[nxt] = path + (e,)
                    queue.append(nxt)
    if not witnesses:
        return True, None
    _, best = min(witnesses)
    return False, [a.alphabet.name(e) for e in best]

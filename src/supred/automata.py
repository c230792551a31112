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
    indices (bit ``e`` stands for event ``e``).
    """

    def __init__(self, events: Iterable[Event]):
        self.events: tuple[Event, ...] = tuple(events)
        self._index: dict[str, int] = {}
        for i, ev in enumerate(self.events):
            if ev.name.split() != [ev.name] or "#" in ev.name:
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

    States are addressed by index; ``states`` holds their names.  The
    automaton's name and its state names are, as event names are, single
    whitespace-free tokens without ``#``, so that
    :func:`serialize_automaton` writes text that parses back.  The map
    ``trans`` sends ``(state, event)`` pairs to target states and is
    deterministic by construction.  ``succ`` is the same map as one dense
    table, built once: ``succ[q * m + e]`` is the target of state ``q`` on
    event ``e`` for ``m`` events, or -1 where undefined.
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
        # bulk checks; the per-item loops run only to name the first fault
        self._index: dict[str, int] = dict(zip(self.states, range(n)))
        tokens = [name, *self.states]
        joined = " ".join(tokens)
        if len(self._index) != n or "#" in joined or joined.split() != tokens:
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
        # per-state transition lists in canonical (alphabet) event order and
        # the dense table; the range check rides along and raises for the
        # first bad item
        out: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        enabled = [0] * n
        succ = [-1] * (n * m)
        for (q, e), t in self.trans.items():
            if not (0 <= q < n and 0 <= t < n and 0 <= e < m):
                raise ValueError(f"transition ({q},{e})->{t} out of range")
            out[q].append((e, t))
            enabled[q] |= 1 << e
            succ[q * m + e] = t
        self.succ: list[int] = succ
        for row in out:
            row.sort()  # one linear pass when trans arrives in key order
        self._out: tuple[tuple[tuple[int, int], ...], ...] = tuple(map(tuple, out))
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
            return self._index[name]
        except KeyError:
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
    marked = [resolve_state("marked state") for _ in range(n_marked)]

    ts.expect("trans")
    n_trans = ts.count("transitions")
    # Likewise: a missing, unknown or repeated token leaves fewer than
    # n_trans transitions.
    start = ts.pos
    chunk = ts.tokens[start:start + 3 * n_trans]
    trans: dict[tuple[int, int], int] = {}
    try:
        sources = [state_index[s] for s in chunk[0::3]]
        labels = [alphabet._index[ev] for ev in chunk[1::3]]
        targets = [state_index[s] for s in chunk[2::3]]
        trans = dict(zip(zip(sources, labels), targets))
    except KeyError:
        pass
    if len(trans) == n_trans:
        ts.pos = start + 3 * n_trans
    else:
        trans = {}
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
    is marked exactly when both components are marked.  The product is
    reachable by construction and its state order is BFS discovery order,
    so it is already trim.
    """
    check_same_alphabet(a, b)
    m, nb = len(a.alphabet), b.n
    a_out, b_succ = a._out, b.succ
    a_states, b_states = a.states, b.states
    # a pair is coded as the int qa * nb + qb; order doubles as the queue
    index = {a.initial * nb + b.initial: 0}
    order = [(a.initial, b.initial)]
    names = [f"({a_states[a.initial]},{b_states[b.initial]})"]
    trans: dict[tuple[int, int], int] = {}
    for src, (qa, qb) in enumerate(order):
        base = qb * m
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
            trans[(src, e)] = dst
    marked = [i for i, (qa, qb) in enumerate(order) if qa in a.marked and qb in b.marked]
    return Automaton(name or f"{a.name}||{b.name}", a.alphabet, distinct_names(names), 0,
                     marked, trans)


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
        for e, x2 in a.out(x):
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
    preimage: dict[int, list[int]] = {}
    for x, y in theta.items():
        preimage.setdefault(y, []).append(x)
    for (y, e) in b.trans:
        if not any(a_succ[x * m + e] >= 0 for x in preimage[y]):
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

    Node ``i`` is the triple ``(xs[i], qas[i], qbs[i])``, first reached from
    node ``parent[i]`` by ``event[i]``.  Events go in alphabet order, so
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
        self.qas: list[int] = []
        self.qbs: list[int] = []
        self.parent: list[int] = []
        self.event: list[int] = []
        self.starts: list[int] = []

    def levels(self) -> Iterator[tuple[int, int]]:
        """Walk afresh, yielding the node range ``(lo, hi)`` of each level
        once it is complete and before it is expanded."""
        g, a, b = self.g, self.a, self.b
        m, na, nb = len(g.alphabet), a.n, b.n
        g_out, a_succ, b_succ = g._out, a.succ, b.succ
        a_enabled, b_enabled = a._enabled, b._enabled
        # a triple is coded as the int (x * na + qa) * nb + qb
        seen = {(g.initial * na + a.initial) * nb + b.initial}
        xs, qas, qbs = self.xs, self.qas, self.qbs
        parent, event, starts = self.parent, self.event, self.starts
        xs[:], qas[:], qbs[:] = [g.initial], [a.initial], [b.initial]
        parent[:], event[:], starts[:] = [-1], [-1], []
        lo, hi = 0, 1
        while lo < hi:
            starts.append(lo)
            yield lo, hi
            for node, x, qa, qb in zip(range(lo, hi), xs[lo:hi], qas[lo:hi], qbs[lo:hi]):
                shared = a_enabled[qa] & b_enabled[qb]
                if shared:
                    base_a, base_b = qa * m, qb * m
                    for e, xt in g_out[x]:
                        if shared >> e & 1:
                            ta = a_succ[base_a + e]
                            tb = b_succ[base_b + e]
                            code = (xt * na + ta) * nb + tb
                            if code not in seen:
                                seen.add(code)
                                xs.append(xt)
                                qas.append(ta)
                                qbs.append(tb)
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
    # The walk meets strings of one length in shortlex order, so the first
    # witness of each kind and length is the least of its kind and length.
    witnesses: dict[tuple[int, bool], tuple[int, tuple[int, ...]]] = {}
    for d, (lo, hi) in enumerate(walk.levels()):
        if witnesses and d > min(witnesses)[0]:
            break  # no later level gives a shorter witness
        clashes = [gm[x] & (am[qa] ^ bm[qb])
                   for x, qa, qb in zip(walk.xs[lo:hi], walk.qas[lo:hi], walk.qbs[lo:hi])]
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
    universal = Automaton("*", a.alphabet, ["*"], 0, [0],
                          {(0, e): 0 for e in range(len(a.alphabet))})
    return control_equivalent(universal, a, b)

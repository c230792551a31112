"""Deterministic finite automata over attributed event alphabets.

Provides the shared representation (events carry controllable/observable
bits; transition maps are partial and deterministic), the ``.aut`` text
format, the breadth-first walk of the reachable state pairs of two
automata and the synchronous product built on it, reachability trimming,
natural projection of strings, structure-preserving morphism checks, the
lockstep walk of a plant with two automata, and control and language
equivalence with shortest counterexamples.
"""

from __future__ import annotations

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
    "closed_loop_pairs",
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
    read: the ``trans`` dict from ``(state, event)`` pairs to targets, the
    per-state rows ``out_rows`` and the reachable states' BFS order.  The
    constructor validates and takes ``trans``; :meth:`from_table` takes the
    table and trusts its caller.
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
        n = len(states)
        if n == 0:
            raise ValueError("automaton needs at least one state")
        if _bad_token(name):
            raise ValueError(f"bad automaton name {name!r}")
        index: dict[str, int] = {}
        for i, s in enumerate(states):
            if _bad_token(s):
                raise ValueError(f"bad state name {s!r}")
            if s in index:
                raise ValueError(f"duplicate state name {s!r}")
            index[s] = i
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
                   marked: Iterable[int], succ: list[int], enabled: Iterable[int]) -> "Automaton":
        """An automaton over the dense table ``succ``, which it keeps.  The
        caller vouches for what the constructor would check: distinct
        well-formed names, states and targets in range, and ``enabled`` as
        the per-state masks of the events ``succ`` defines.  The name index
        is built on first use."""
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

    @cached_property
    def _reach_order(self) -> list[int]:
        """The states reachable from the initial state, in BFS discovery
        order, walked once per automaton: :meth:`is_reachable` and
        :func:`trim_reachable` read it."""
        return _reachable_set(self)

    def is_reachable(self) -> bool:
        return len(self._reach_order) == self.n

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
    order = [a.initial]  # it doubles as the queue
    seen = {a.initial}
    for q in order:
        for t in succ[q * m:(q + 1) * m]:
            if t >= 0 and t not in seen:
                seen.add(t)
                order.append(t)
    return order


def trim_reachable(a: Automaton) -> Automaton:
    """Restrict to the part reachable from the initial state.

    States are re-listed in BFS discovery order, so the result is a fixed
    point of this operation.
    """
    order = a._reach_order
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
    is marked exactly when both components are marked.  Its states are the
    pairs of :func:`closed_loop_pairs`, in that order (breadth first), so
    the product is already trim.
    """
    xs, zs, _ = closed_loop_pairs(a, b)
    m, nb = len(a.alphabet), b.n
    a_out, b_succ = a.out_rows, b.succ
    # a pair is coded as the int qa * nb + qb
    index = dict(zip([qa * nb + qb for qa, qb in zip(xs, zs)], range(len(xs))))
    succ = [-1] * (len(xs) * m)
    row = 0
    for qa, qb in zip(xs, zs):
        base = qb * m
        for e, ta in a_out[qa]:
            tb = b_succ[base + e]
            if tb >= 0:
                succ[row + e] = index[ta * nb + tb]
        row += m
    marked = [i for i, (qa, qb) in enumerate(zip(xs, zs)) if qa in a.marked and qb in b.marked]
    enabled = [a._enabled[qa] & b._enabled[qb] for qa, qb in zip(xs, zs)]
    names = [f"({a.states[qa]},{b.states[qb]})" for qa, qb in zip(xs, zs)]
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


def _require_comparable(a: Automaton, b: Automaton, op: str) -> None:
    check_same_alphabet(a, b)
    for aut in (a, b):
        if not aut.is_reachable():
            raise PreconditionError("reachable",
                                    f"{op}: automaton {aut.name!r} has unreachable states")


def is_des_epimorphic(a: Automaton, b: Automaton) -> MorphismResult:
    """Check for a DES-epimorphism from ``a`` onto ``b``.

    For deterministic reachable automata the only candidate map is forced
    by following transitions from the pairing of initial states, so the
    check is a synchronized traversal plus the final structural conditions
    (surjectivity, exact marked-set correspondence, and every b-transition
    being witnessed by some preimage).
    """
    _require_comparable(a, b, "is_des_epimorphic")
    m, a_succ, b_succ = len(a.alphabet), a.succ, b.succ
    theta: dict[int, int] = {a.initial: b.initial}
    order = [a.initial]  # it doubles as the queue
    for x in order:
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
                order.append(x2)
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
    onto ``b`` and total on ``a``, so equal sizes make it a bijection.
    The preconditions of :func:`is_des_epimorphic` are checked before the
    sizes are compared."""
    if a.n == b.n:
        return is_des_epimorphic(a, b)
    _require_comparable(a, b, "is_des_epimorphic")
    return MorphismResult(False)


def closed_loop_pairs(
    g: Automaton, s: Automaton
) -> tuple[list[int], list[int], list[int]]:
    """The reachable pairs of plant and supervisor states of ``g||s``, as
    two parallel lists: pair ``i`` is ``(xs[i], zs[i])``, breadth first,
    events in alphabet order.  They are the states of
    :func:`sync_product`, which is built on them; here no product
    automaton is built.  The third list holds, per supervisor state ``z``,
    the bitmask of the plant states paired with it (0 where the loop never
    visits ``z``); it is also the walk's visited test."""
    # Its own pair walk, not Lockstep(g, s, s): over the 16 bench reduce
    # supervisors, control data takes 13.2-13.7 ms against 14.7-15.5 ms when
    # read off Lockstep's pairs (best of 9, interleaved in one process,
    # three processes, 2-vCPU VM).
    check_same_alphabet(g, s)
    m = len(s.alphabet)
    g_out, succ = g.out_rows, s.succ
    sets = [0] * s.n
    sets[s.initial] = 1 << g.initial
    xs, zs = [g.initial], [s.initial]  # they double as the queue
    for x, z in zip(xs, zs):
        base = z * m
        for e, xt in g_out[x]:
            zt = succ[base + e]
            if zt >= 0:
                bit = 1 << xt
                if not sets[zt] & bit:
                    sets[zt] |= bit
                    xs.append(xt)
                    zs.append(zt)
    return xs, zs, sets


class Lockstep:
    """The pairs of states that the automata ``a`` and ``b`` reach together
    with the plant ``g``, on the events all three define, and per pair the
    plant states reached with it; no product automaton is built, successors
    are read from ``succ``.  The constructor walks to the end, so every walk
    a reader gets is complete.

    Each pair ``(qa, qb)`` the walk reaches gets an id ``p``, in order of
    first reach: ``pair_a[p]`` and ``pair_b[p]`` are its states and
    ``reached[p]`` is the bitmask of the plant states walked with it, so the
    triples ``(x, qa, qb)`` of the closed loop are the plant states of each
    pair.  ``index`` maps the code ``qa * b.n + qb`` of each pair to its id;
    a successor pair is looked up there from its two states' successors.
    The walk is a worklist over pairs: a popped pair carries the plant
    states new to it since it was last popped.  They are first closed
    under the events that both ``a`` and ``b`` selfloop at the pair, which
    keep the walk in it; then each other event that both states define
    carries their image into the successor pair, which is queued if it
    gained a state.  Images are computed once per set of plant states.
    ``expansions`` counts the pairs popped.  Facts that depend on the pair
    alone are read once per pair, and facts about the plant once per
    distinct ``reached`` set.

    The walk keeps no strings: :meth:`first` walks the triples breadth
    first to rebuild a witness, once a check has failed.
    """

    def __init__(self, g: Automaton, a: Automaton, b: Automaton):
        check_same_alphabet(g, a)
        check_same_alphabet(g, b)
        self.g, self.a, self.b = g, a, b
        m, nb = len(g.alphabet), b.n
        g_out, a_succ, b_succ = g.out_rows, a.succ, b.succ
        a_enabled, b_enabled = a._enabled, b._enabled
        pair_a, pair_b, reached = [a.initial], [b.initial], [1 << g.initial]
        self.pair_a, self.pair_b, self.reached = pair_a, pair_b, reached
        # Per pair: the plant states not yet expanded with it (nonzero
        # exactly while it waits in the queue).
        fresh = reached[:]
        self.index = index = {a.initial * nb + b.initial: 0}
        images: dict[int, list[int]] = {}  # per plant set, its image per event
        events_of: dict[int, list[int]] = {}  # per event mask, its events

        def image(states: int) -> list[int]:
            row = images[states] = [0] * m
            while states:
                low = states & -states
                for e, xt in g_out[low.bit_length() - 1]:
                    row[e] |= 1 << xt
                states ^= low
            return row

        queue = [0]  # ids repeat: a pair is queued again when it gains states
        for p in queue:
            new, fresh[p] = fresh[p], 0
            qa, qb = pair_a[p], pair_b[p]
            base_a, base_b = qa * m, qb * m
            shared = a_enabled[qa] & b_enabled[qb]
            events = events_of.get(shared)
            if events is None:
                events = events_of[shared] = [e for e in range(m) if shared >> e & 1]
            loops, moves = [], []
            for e in events:
                ta, tb = a_succ[base_a + e], b_succ[base_b + e]
                if ta == qa and tb == qb:
                    loops.append(e)
                else:
                    moves.append((e, ta, tb))
            if loops:
                frontier = new
                while frontier:
                    row = images.get(frontier) or image(frontier)
                    grown = 0
                    for e in loops:
                        grown |= row[e]
                    frontier = grown & ~reached[p]
                    reached[p] |= frontier
                    new |= frontier
            row = images.get(new) or image(new)
            for e, ta, tb in moves:
                states = row[e]
                if not states:
                    continue
                code = ta * nb + tb
                t = index.get(code)
                if t is None:
                    t = index[code] = len(pair_a)
                    pair_a.append(ta)
                    pair_b.append(tb)
                    reached.append(0)
                    fresh.append(0)
                states &= ~reached[t]
                if states:
                    reached[t] |= states
                    if not fresh[t]:
                        queue.append(t)
                    fresh[t] |= states
        self.expansions = len(queue)

    def triples(self) -> Iterator[tuple[int, int]]:
        """Walk the triples ``(x, pair_a[p], pair_b[p])`` of the walk's pairs
        breadth first from the initial one, events in alphabet order, and
        yield ``(x, p)`` per node.  Node ``i`` is first reached from node
        ``parent[i]`` by ``event[i]``; both lists grow as nodes are yielded,
        so :meth:`string` rebuilds the string of any node yielded so far.
        Nodes come in shortlex order of their strings."""
        g, a, b, index = self.g, self.a, self.b, self.index
        m, nb, pair_a, pair_b = len(g.alphabet), b.n, self.pair_a, self.pair_b
        g_out, a_succ, b_succ = g.out_rows, a.succ, b.succ
        shared = [a._enabled[qa] & b._enabled[qb] for qa, qb in zip(pair_a, pair_b)]
        seen = [0] * len(shared)
        seen[0] = 1 << g.initial
        xs, pairs = [g.initial], [0]  # they double as the queue
        self.parent, self.event = parent, event = [-1], [-1]
        for node, (x, p) in enumerate(zip(xs, pairs)):
            yield x, p
            on, base_a, base_b = shared[p], pair_a[p] * m, pair_b[p] * m
            for e, xt in g_out[x]:
                if on >> e & 1:
                    t = index[a_succ[base_a + e] * nb + b_succ[base_b + e]]
                    bit = 1 << xt
                    if not seen[t] & bit:
                        seen[t] |= bit
                        xs.append(xt)
                        pairs.append(t)
                        parent.append(node)
                        event.append(e)

    def string(self, node: int) -> tuple[int, ...]:
        """The first string (event indices) reaching ``node`` of
        :meth:`triples`."""
        parent, event = self.parent, self.event
        back = []
        while node:
            back.append(event[node])
            node = parent[node]
        return tuple(reversed(back))

    def first(self, plant: list[int], hits: list[int]) -> Optional[tuple[tuple[int, ...], int]]:
        """The shortlex least string reaching a triple ``(x, qa, qb)`` of
        pair ``p`` where ``plant[x] & hits[p]`` is nonzero, with that value;
        None when no triple has one.  The triples are walked until the
        first."""
        for node, (x, p) in enumerate(self.triples()):
            hit = plant[x] & hits[p]
            if hit:
                return self.string(node), hit
        return None


def separating_string(walk: Lockstep) -> Optional[list[str]]:
    """A shortest string, ties broken by alphabet order, that separates the
    closed loops of the two automata of ``walk`` with its plant: marking
    disagrees inside the plant after it, or the plant offers an event after
    it that just one of them defines.  None when there is none.

    Whether a clash exists is read per pair, off the plant states walked
    with it; only then are the triples walked, by :meth:`Lockstep.first`,
    once for each kind of clash that exists."""
    g, a, b = walk.g, walk.a, walk.b
    # per state, its events over its marking bit: a and b clash where they
    # differ inside the plant's
    gm, am, bm = ([en << 1 | (q in aut.marked) for q, en in enumerate(aut._enabled)]
                  for aut in (g, a, b))
    split = [am[qa] ^ bm[qb] for qa, qb in zip(walk.pair_a, walk.pair_b)]
    g_marked = sum(1 << x for x in g.marked)
    clash = 0
    for states, differ in zip(walk.reached, split):
        if differ:
            clash |= (g.enabled_in(states) << 1 | (states & g_marked != 0)) & differ
    if not clash:
        return None
    # The first triple with a marking clash, and the first with an event
    # clash extended by its lowest differing event, give the least witness
    # of each kind.
    witnesses = []
    if clash & 1:
        string, _ = walk.first(gm, [differ & 1 for differ in split])
        witnesses.append(string)
    if clash >> 1:
        string, hit = walk.first(gm, [differ & ~1 for differ in split])
        differ = hit >> 1
        witnesses.append(string + ((differ & -differ).bit_length() - 1,))
    least = min(witnesses, key=lambda w: (len(w), w))
    return [g.alphabet.name(e) for e in least]


def control_equivalent(
    g: Automaton, a: Automaton, b: Automaton
) -> tuple[bool, Optional[list[str]]]:
    """Whether L(g||a) = L(g||b) and Lm(g||a) = Lm(g||b), read off
    :class:`Lockstep`: marking must agree inside the plant at every triple,
    and no event the plant offers may be defined by just one of ``a`` and
    ``b``.  On failure returns the :func:`separating_string`.  An automaton
    compared with itself is not walked."""
    check_same_alphabet(g, a)
    check_same_alphabet(g, b)
    if a is b:
        return True, None
    string = separating_string(Lockstep(g, a, b))
    return string is None, string


def language_equivalent(
    a: Automaton, b: Automaton
) -> tuple[bool, Optional[list[str]]]:
    """Decide L(a)=L(b) and Lm(a)=Lm(b) for deterministic reachable
    automata: :func:`control_equivalent` under a one-state plant that
    allows and marks every string.  On failure returns a shortest witness
    string (ties broken by alphabet order) in exactly one of the languages."""
    _require_comparable(a, b, "language_equivalent")
    m = len(a.alphabet)
    universal = Automaton.from_table("*", a.alphabet, ["*"], 0, [0], [0] * m, [(1 << m) - 1])
    return control_equivalent(universal, a, b)

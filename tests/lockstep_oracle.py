"""Reference lockstep walks, kept as differential oracles.

``lockstep`` is the generator that ``supred.automata`` used before the
walk kept parent pointers: it stores the whole path tuple of every visited
triple and yields ``(x, qa, qb, path)``.

``Lockstep`` is the class the library used before it interned the pairs of
automaton states: it keeps ``qas`` and ``qbs`` per node and codes each
visited triple as one int in a ``seen`` set.

``TripleLockstep``, ``separating_string`` and ``finer`` are the walk and
its two node readers that the library used before it walked pairs: the
walk lists every reachable triple ``(x, qa, qb)`` breadth first, with a
parent pointer and an event per node, and the readers take the first
failing node in node order as the witness.  ``tests/test_lockstep.py``
and ``tests/test_pair_walk_oracle.py`` check that the library's pair walk
reaches the same pairs with the same plant states, that its witness
search lists the same triples in the same order with the same strings,
and that every check built on it gives the same verdicts, witnesses and
refusals.

``TableLockstep`` is the pair walk the library used before it dropped its
successor table: besides the code-to-id ``index`` of its pairs it kept a
flat row per pair of successor pair ids, filled on first use, and told a
selfloop of both automata by a successor equal to the pair itself.
``tests/test_triple_walk_oracle.py`` checks that the library's walk,
which reads successor pairs from ``index``, gives the same pairs, pops,
triples, strings and witnesses.  All bodies are unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from supred.automata import Automaton, check_same_alphabet
from supred.ordering import _CLAUSES, OrderWitness
from supred.supervision import ControlData, control_data_from_sets


def lockstep(
    g: Automaton, a: Automaton, b: Automaton
) -> Iterator[tuple[int, int, int, tuple[int, ...]]]:
    check_same_alphabet(g, a)
    check_same_alphabet(g, b)
    start = (g.initial, a.initial, b.initial)
    paths: dict[tuple[int, int, int], tuple[int, ...]] = {start: ()}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        x, qa, qb = node
        path = paths[node]
        yield x, qa, qb, path
        shared = a.enabled(qa) & b.enabled(qb)
        for e, xt in g.out_rows[x]:
            if shared >> e & 1:
                nxt = (xt, a.trans[(qa, e)], b.trans[(qb, e)])
                if nxt not in paths:
                    paths[nxt] = path + (e,)
                    queue.append(nxt)


class Lockstep:
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
        g_out, a_succ, b_succ = g.out_rows, a.succ, b.succ
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


class TripleLockstep:
    """Breadth-first walk of the triples ``(x, qa, qb)`` that the plant
    ``g`` and the automata ``a`` and ``b`` reach together on the events all
    three define, in the order of the reachable pairs of ``(g||a)||b``; no
    product automaton is built, successors are read from ``succ``.  The
    constructor walks to the end, so every walk a reader gets is complete.

    Each pair ``(qa, qb)`` the walk reaches gets an id ``p``, in order of
    first reach: ``pair_a[p]`` and ``pair_b[p]`` are its states and
    ``reached[p]`` is the bitmask of the plant states walked with it.  Node
    ``i`` is the triple ``(xs[i], pair_a[pairs[i]], pair_b[pairs[i]])``,
    first reached from node ``parent[i]`` by ``event[i]``.  Facts that
    depend on the pair alone are read once per pair, and facts about the
    plant once per distinct ``reached`` set.  Events go in alphabet order,
    so nodes come in shortlex order of their strings and :meth:`string`
    rebuilds a shortest string, ties broken by alphabet order.
    """

    def __init__(self, g: Automaton, a: Automaton, b: Automaton):
        check_same_alphabet(g, a)
        check_same_alphabet(g, b)
        self.g, self.a, self.b = g, a, b
        m, ng, nb = len(g.alphabet), g.n, b.n
        g_out, a_succ, b_succ = g.out_rows, a.succ, b.succ
        a_enabled, b_enabled = a._enabled, b._enabled
        xs, pairs, parent, event = [g.initial], [0], [-1], [-1]
        pair_a, pair_b, reached = [a.initial], [b.initial], [1 << g.initial]
        self.xs, self.pairs, self.parent, self.event = xs, pairs, parent, event
        self.pair_a, self.pair_b, self.reached = pair_a, pair_b, reached
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
        for node, (x, p) in enumerate(zip(xs, pairs)):  # the arrays double as the queue
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

    def string(self, node: int) -> tuple[int, ...]:
        """The first string (event indices) reaching ``node``."""
        parent, event = self.parent, self.event
        back = []
        while node:
            back.append(event[node])
            node = parent[node]
        return tuple(reversed(back))


def separating_string(walk: TripleLockstep) -> Optional[list[str]]:
    """A shortest string, ties broken by alphabet order, that separates the
    closed loops of the two automata of ``walk`` with its plant: marking
    disagrees inside the plant after it, or the plant offers an event after
    it that just one of them defines.  None when there is none."""
    g, a, b = walk.g, walk.a, walk.b
    # per state, its events over its marking bit: a and b clash where they
    # differ inside the plant's
    gm, am, bm = ([en << 1 | (q in aut.marked) for q, en in enumerate(aut._enabled)]
                  for aut in (g, a, b))
    split = [am[qa] ^ bm[qb] for qa, qb in zip(walk.pair_a, walk.pair_b)]
    clashes = [gm[x] & split[p] for x, p in zip(walk.xs, walk.pairs)]
    if not any(clashes):
        return None
    # Nodes come in shortlex order of their strings, so the first node with
    # a marking clash, and the first with an event clash extended by its
    # lowest differing event, give the least witness of each kind.
    witnesses = []
    node = next((node for node, clash in enumerate(clashes) if clash & 1), None)
    if node is not None:
        witnesses.append(walk.string(node))
    node = next((node for node, clash in enumerate(clashes) if clash >> 1), None)
    if node is not None:
        differ = clashes[node] >> 1
        witnesses.append(walk.string(node) + ((differ & -differ).bit_length() - 1,))
    least = min(witnesses, key=lambda w: (len(w), w))
    return [g.alphabet.name(e) for e in least]


def finer(g: Automaton, walk: TripleLockstep) -> tuple[OrderWitness, ControlData, ControlData]:
    """The fineness verdict of :func:`finer_than` on the walk of plant and
    two control-equivalent candidates, and both candidates' control data.
    The projections of the walked triples are then exactly the reachable
    pairs of each candidate's closed loop, so the data come from the plant
    sets the walk keeps per pair of candidate states.  The clauses depend
    on that pair alone and are checked once per pair; the witness is the
    first node of a failing pair, in node order, so it has the least
    string."""
    s1, s2 = walk.a, walk.b
    sets1, sets2 = [0] * s1.n, [0] * s2.n
    for z1, z2, states in zip(walk.pair_a, walk.pair_b, walk.reached):
        sets1[z1] |= states
        sets2[z2] |= states
    data1 = control_data_from_sets(g, s1, sets1)
    data2 = control_data_from_sets(g, s2, sets2)
    # per state, the clauses' sets as one int, the first clause lowest:
    # s1's state holds what s2's state lacks exactly where a clause fails
    m = len(g.alphabet)
    packed1, packed2 = ([en | dis << m | ms << 2 * m | mg << 2 * m + 1
                         for en, dis, ms, mg in zip(d.enabled, d.disabled, d.marked_s, d.marked_g)]
                        for d in (data1, data2))
    lacks = [packed1[z1] & ~packed2[z2] for z1, z2 in zip(walk.pair_a, walk.pair_b)]
    if not any(lacks):
        return OrderWitness(True), data1, data2
    node, bits = next((node, lacks[p]) for node, p in enumerate(walk.pairs) if lacks[p])
    low = (bits & -bits).bit_length() - 1
    failed = _CLAUSES[low // m if low < 2 * m else low - 2 * m + 2]
    string = [g.alphabet.name(e) for e in walk.string(node)]
    return OrderWitness(False, (string, failed)), data1, data2


class TableLockstep:
    """The pairs of states that the automata ``a`` and ``b`` reach together
    with the plant ``g``, on the events all three define, and per pair the
    plant states reached with it; no product automaton is built, successors
    are read from ``succ``.  The constructor walks to the end, so every walk
    a reader gets is complete.

    Each pair ``(qa, qb)`` the walk reaches gets an id ``p``, in order of
    first reach: ``pair_a[p]`` and ``pair_b[p]`` are its states and
    ``reached[p]`` is the bitmask of the plant states walked with it, so the
    triples ``(x, qa, qb)`` of the closed loop are the plant states of each
    pair.  The walk is a worklist over pairs: a popped pair carries the
    plant states new to it since it was last popped.  They are first closed
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
        # exactly while it waits in the queue), and its successor pair per
        # event, in one flat row filled on first use (-1 until then; the
        # pair itself for a selfloop of both).  A pair (qa, qb) is coded as
        # qa * nb + qb.
        fresh = reached[:]
        unset = [-1] * m
        self._succ = succ = unset[:]
        index = {a.initial * nb + b.initial: 0}
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
            base, base_a, base_b = p * m, qa * m, qb * m
            shared = a_enabled[qa] & b_enabled[qb]
            events = events_of.get(shared)
            if events is None:
                events = events_of[shared] = [e for e in range(m) if shared >> e & 1]
            loops, moves = [], []
            for e in events:
                t = succ[base + e]
                if t < 0 and a_succ[base_a + e] == qa and b_succ[base_b + e] == qb:
                    t = succ[base + e] = p
                (loops if t == p else moves).append(e)
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
            for e in moves:
                states = row[e]
                if not states:
                    continue
                t = succ[base + e]
                if t < 0:
                    ta, tb = a_succ[base_a + e], b_succ[base_b + e]
                    code = ta * nb + tb
                    t = index.get(code)
                    if t is None:
                        t = index[code] = len(pair_a)
                        pair_a.append(ta)
                        pair_b.append(tb)
                        reached.append(0)
                        fresh.append(0)
                        succ += unset
                    succ[base + e] = t
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
        g, m, succ = self.g, len(self.g.alphabet), self._succ
        g_out, a_enabled, b_enabled = g.out_rows, self.a._enabled, self.b._enabled
        shared = [a_enabled[qa] & b_enabled[qb] for qa, qb in zip(self.pair_a, self.pair_b)]
        seen = [0] * len(shared)
        seen[0] = 1 << g.initial
        xs, pairs = [g.initial], [0]  # they double as the queue
        self.parent, self.event = parent, event = [-1], [-1]
        for node, (x, p) in enumerate(zip(xs, pairs)):
            yield x, p
            on, base = shared[p], p * m
            for e, xt in g_out[x]:
                if on >> e & 1:
                    t = succ[base + e]
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

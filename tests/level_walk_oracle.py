"""The level-by-level lockstep walk and its early-stopping witness search,
kept as a differential oracle.

``Lockstep`` and ``separating_string`` are the bodies ``supred.automata``
used before the walk ran to the end in its constructor: ``levels`` walks
afresh and hands over one BFS level at a time, ``run`` drains it,
``starts`` holds the first node of each level handed over, ``qas`` and
``qbs`` list each node's automaton states, and ``separating_string``
drives the walk one level past its first witness and stops there.
``tests/test_lockstep.py`` checks that the library's walk reaches the
same pairs with the same plant states, that its witness search lists the
same triples and strings, and that the witnesses agree.  Both bodies are
unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Optional

from supred.automata import Automaton, check_same_alphabet


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

"""Reference lockstep walks, kept as differential oracles.

``lockstep`` is the generator that ``supred.automata`` used before the
walk kept parent pointers: it stores the whole path tuple of every visited
triple and yields ``(x, qa, qb, path)``.  ``tests/test_lockstep.py``
checks that :class:`supred.automata.Lockstep` visits the same triples in
the same order, at the same BFS depths, and rebuilds the same strings.

``Lockstep`` is the class the library used before it interned the pairs of
automaton states: it keeps ``qas`` and ``qbs`` per node and codes each
visited triple as one int in a ``seen`` set.
``tests/test_pair_walk_oracle.py`` checks that the library's walk, which
keeps a pair id per node and a bitmask of plant states per pair, leaves
the same arrays and strings.  Both bodies are unchanged.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator

from supred.automata import Automaton, check_same_alphabet


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

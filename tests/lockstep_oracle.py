"""Reference lockstep walk, kept as a differential oracle.

This is the ``lockstep`` generator that ``supred.automata`` used before the
walk kept parent pointers: it stores the whole path tuple of every visited
triple and yields ``(x, qa, qb, path)``.  The body is unchanged.
``tests/test_lockstep.py`` checks that :class:`supred.automata.Lockstep`
visits the same triples in the same order, at the same BFS depths, and
rebuilds the same strings.
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

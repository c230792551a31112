"""Reference product and subset construction, kept as a differential
oracle.

These are ``sync_product_pairs``, ``subset_construction``,
``subset_construction_with_members`` and ``_unobservable_closure`` as they
stood in ``supred.automata`` before the library dropped them: the
synchronous product now returns no pair list, and SUPER is built by
``supred.reduction.super_from_pairs`` on (supervisor state, plant-state
bitmask) pairs instead of determinising a product over ``frozenset``
subsets.  The bodies are unchanged.  ``tests/test_closed_loop_oracle.py``
checks that ``super_from_pairs`` serialises byte-identically to
``subset_construction(sync_product_pairs(g, s)[0], name="SUPER")``, and the
other oracles and tests that need a product's pairs or a subset
construction import them from here.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from supred.automata import Automaton, check_same_alphabet, distinct_names


def sync_product_pairs(
    a: Automaton, b: Automaton, name: Optional[str] = None
) -> tuple[Automaton, list[tuple[int, int]]]:
    """Synchronous product plus the (a-state, b-state) pair behind each
    product state.  The product is reachable by construction and its state
    order is BFS discovery order, so it is already trim."""
    check_same_alphabet(a, b)
    m, nb = len(a.alphabet), b.n
    a_out, b_succ = a.out_rows, b.succ
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
    product = Automaton(name or f"{a.name}||{b.name}", a.alphabet, distinct_names(names), 0,
                        marked, trans)
    return product, order


def _unobservable_closure(a: Automaton, seed: frozenset[int], unobs: frozenset[int]) -> frozenset[int]:
    reached = set(seed)
    queue = list(seed)
    while queue:
        q = queue.pop()
        for e, t in a.out_rows[q]:
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
    unobs = frozenset(e for e, ev in enumerate(a.alphabet) if not ev.observable)
    obs = [e for e, ev in enumerate(a.alphabet) if ev.observable]
    succ, m = a.succ, len(a.alphabet)
    start = _unobservable_closure(a, frozenset([a.initial]), unobs)
    index: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    trans: dict[tuple[int, int], int] = {}
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        src = index[subset]
        for e in obs:
            move = {succ[q * m + e] for q in subset}
            move.discard(-1)
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
            if any(succ[q * m + u] >= 0 for q in subset):
                trans[(src, u)] = src
    names = distinct_names(["+".join(sorted(a.states[q] for q in subset)) for subset in order])
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

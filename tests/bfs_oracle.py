"""Reference breadth-first walks, kept as differential oracles.

``reachable_set`` and ``is_des_epimorphic`` are the bodies that
``supred.automata`` used while they kept a ``deque`` queue next to the
order list (``reachable_set`` was ``_reachable_set`` there);
``trim_reachable`` and ``is_reachable`` are the library's, built on that
``reachable_set``.  The library's walks now iterate the growing order
list.  ``tests/test_bfs_oracle.py`` checks that both give the same trimmed
automata, reachability, verdicts and maps, keys in the same order.  The
bodies are unchanged.
"""

from __future__ import annotations

from collections import deque

from supred.automata import Automaton, MorphismResult, check_same_alphabet
from supred.errors import PreconditionError


def reachable_set(a: Automaton) -> list[int]:
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


def is_reachable(a: Automaton) -> bool:
    return len(reachable_set(a)) == a.n


def trim_reachable(a: Automaton) -> Automaton:
    """Restrict to the part reachable from the initial state.

    States are re-listed in BFS discovery order, so the result is a fixed
    point of this operation.
    """
    order = reachable_set(a)
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


def _require_reachable(a: Automaton, op: str) -> None:
    if not is_reachable(a):
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

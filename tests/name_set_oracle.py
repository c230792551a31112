"""Reference event-set code, kept as a differential oracle.

These are the versions of ``control_data``, ``language_equivalent`` and
``characterize_super_state`` that held per-state event sets as frozensets
of event names (control data, state characterisation) or of event indices
(language equivalence), before the library moved to event-index bitmasks.
The bodies are unchanged apart from one thing: where they called
``s.enabled(q)``, which now returns a bitmask, they build the frozenset
``frozenset(e for e, _ in s.out(q))`` that it used to return.  The
private reachability check ``language_equivalent`` calls is copied too.
``tests/test_name_set_oracle.py`` checks that the library's masks decode to
the same names and that its verdicts and witnesses are the same.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from supred.automata import Automaton, check_same_alphabet
from supred.errors import PreconditionError
from supred.reduction import require_feasible
from supred.supervision import ControlData

from tests.product_oracle import subset_construction_with_members, sync_product_pairs


def control_data(g: Automaton, s: Automaton) -> ControlData:
    check_same_alphabet(g, s)
    names = g.alphabet.names
    s_enabled = [frozenset(e for e, _ in s.out(q)) for q in range(s.n)]
    enabled = [frozenset(names[e] for e in events) for events in s_enabled]
    disabled: list[set[str]] = [set() for _ in range(s.n)]
    marked_s = [False] * s.n
    marked_g = [False] * s.n
    visited_loop = [False] * s.n

    start = (g.initial, s.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        x, z = queue.popleft()
        visited_loop[z] = True
        if x in g.marked:
            marked_g[z] = True
            if z in s.marked:
                marked_s[z] = True
        for e, xt in g.out(x):
            if e in s_enabled[z]:
                nxt = (xt, s.trans[(z, e)])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
            else:
                disabled[z].add(names[e])
    return ControlData(
        supervisor=s,
        enabled=enabled,
        disabled=[frozenset(d) for d in disabled],
        marked_s=marked_s,
        marked_g=marked_g,
        reachable_in_loop=visited_loop,
    )


def _require_reachable(a: Automaton, op: str) -> None:
    if not a.is_reachable():
        raise PreconditionError("reachable", f"{op}: automaton {a.name!r} has unreachable states")


def language_equivalent(
    a: Automaton, b: Automaton
) -> tuple[bool, Optional[list[str]]]:
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
        ea, eb = frozenset(e for e, _ in a.out(qa)), frozenset(e for e, _ in b.out(qb))
        if ea != eb:
            for e in sorted(ea ^ eb):
                witnesses.append((len(path) + 1, path + (e,)))
                break
        for e in sorted(ea & eb):
            nxt = (a.trans[(qa, e)], b.trans[(qb, e)])
            if nxt not in paths:
                paths[nxt] = path + (e,)
                queue.append(nxt)
    if not witnesses:
        return True, None
    _, best = min(witnesses)
    return False, [a.alphabet.name(e) for e in best]


def characterize_super_state(
    g: Automaton, s: Automaton, super_: Automaton, z: int
) -> tuple[frozenset[str], frozenset[str]]:
    require_feasible(g, s)
    product, pairs = sync_product_pairs(g, s)
    sup, members = subset_construction_with_members(product, name="SUPER")
    if not (0 <= z < super_.n):
        raise ValueError(f"unknown super-state index {z}")
    idx = sup.state_index(super_.states[z])
    names = g.alphabet.names
    enabled: set[str] = set()
    disabled: set[str] = set()
    for member in members[idx]:
        for e, _ in product.out(member):
            enabled.add(names[e])
        x, zs = pairs[member]
        s_enabled = frozenset(e for e, _ in s.out(zs))
        for e, _ in g.out(x):
            if e not in s_enabled:
                disabled.add(names[e])
    return frozenset(enabled), frozenset(disabled)

"""The SUPER construction as it stood while it walked the closed loop twice,
kept as a differential oracle.

``build_super`` listed the pairs of ``G||S`` with ``closed_loop_pairs``,
read loop controllability off the plant-state sets of that walk, and
handed the pairs to ``super_from_pairs``, whose subset construction walked
the same loop again and named each SUPER state by sorting and joining its
members' pair names, made distinct in the product's order.  The library
now builds SUPER in the one subset construction
(``supred.reduction.super_construction``), reads loop controllability off
its keys afterwards, and lists pairs only when a plant state name holds
``,``.  The bodies below are unchanged; the gates and ``_closure`` are
copied with them.  ``tests/test_closed_loop_oracle.py`` checks that both
versions give the same SUPER byte for byte, and the same refusals.
"""

from __future__ import annotations

from typing import Optional

from supred.automata import Automaton, distinct_names
from supred.errors import InfeasibleSupervisorError
from supred.supervision import (ControlData, check_control_feasibility, closed_loop_pairs,
                                control_data_from_sets)


def _require_selfloop_unobservables(s: Automaton) -> None:
    ok, witness = check_control_feasibility(s)
    if not ok:
        raise InfeasibleSupervisorError("feasibility", witness)


def _require_loop_controllable(s: Automaton, data: ControlData) -> None:
    z = data.uncontrollable_disabler()
    if z is not None:
        raise InfeasibleSupervisorError("controllability", s.states[z])


def build_super(g: Automaton, s: Automaton) -> Automaton:
    """The finest supervisor with the closed-loop behaviour of ``s``:
    :func:`super_from_pairs` on the pairs of
    :func:`~supred.automata.closed_loop_pairs`.  Fails on an infeasible
    supervisor, with the errors of :func:`require_feasible`: the structural
    check runs first, then loop controllability is read off the same pairs.
    """
    _require_selfloop_unobservables(s)
    xs, zs, sets = closed_loop_pairs(g, s)
    _require_loop_controllable(s, control_data_from_sets(g, s, sets))
    return super_from_pairs(g, s, xs, zs)


def super_from_pairs(g: Automaton, s: Automaton, xs: list[int], zs: list[int]) -> Automaton:
    """The subset construction over the observable events of the closed
    loop whose reachable pairs ``(xs[i], zs[i])`` are those of
    :func:`~supred.automata.closed_loop_pairs`, with unobservable events
    reinserted as selfloops.  Every unobservable transition of ``s`` must
    be a selfloop; loop controllability is not checked.

    No product automaton is built.  With every unobservable transition of
    ``s`` a selfloop, the state of ``s`` after a closed-loop string
    depends only on the string's observed projection, so every subset of
    closed-loop pairs the construction reaches is ``{z} × X``: a SUPER
    state is the key ``(z, X)``, with ``X`` a bitmask of plant states.  An
    observable event ``e`` leads to ``(zt, X')``, ``zt`` the ``e``-successor
    of ``z`` and ``X'`` the closure of the plant's ``e``-successors of
    ``X`` under the unobservable events ``zt`` selfloops.  States, their
    order and their names are those of the subset construction of
    :func:`~supred.automata.sync_product`: member names are the product's
    pair names ``(x,z)``, made distinct in the product's order.  A SUPER
    state's members and offered events are found once per distinct ``X``,
    and each image ``X'`` once per ``X``, event and set of selflooped
    events.
    """
    m, ns = len(s.alphabet), s.n
    g_succ, s_succ = g.succ, s.succ
    g_states, s_states = g.states, s.states
    pair_name = dict(zip([x * ns + z for x, z in zip(xs, zs)], distinct_names(
        [f"({g_states[x]},{s_states[z]})" for x, z in zip(xs, zs)])))
    unobs_mask = s.alphabet.unobservable_mask
    obs = [e for e in range(m) if not unobs_mask >> e & 1]
    unobs = [e for e in range(m) if unobs_mask >> e & 1]
    # Per set of unobservable events, per event e: the closure under the set
    # of each plant state's e-successor (0 where undefined), and the images
    # of the plant-state sets met so far.  steps_into[z] is the table of the
    # set z selfloops, filled on first use.
    Table = list[tuple[list[int], dict[int, int]]]
    tables: dict[int, Table] = {}
    steps_into: list[Optional[Table]] = [None] * ns

    def steps_at(z: int) -> Table:
        events = s.enabled(z) & unobs_mask
        table = tables.get(events)
        if table is None:
            closure = [_closure(g, x, events) for x in range(g.n)]
            table = tables[events] = [([closure[t] if t >= 0 else 0 for t in g_succ[e::m]], {})
                                      for e in range(m)]
        steps_into[z] = table
        return table

    # per plant-state set: its members, and the events some member defines
    by_set: dict[int, tuple[list[int], int]] = {}
    start = (s.initial, _closure(g, g.initial, s.enabled(s.initial) & unobs_mask))
    index = {start: 0}
    order = [start]
    names: list[str] = []
    succ: list[int] = []
    enabled: list[int] = []
    for src, (z, subset) in enumerate(order):
        found = by_set.get(subset)
        if found is None:
            members, rest = [], subset
            while rest:
                low = rest & -rest
                members.append(low.bit_length() - 1)
                rest ^= low
            found = by_set[subset] = (members, g.enabled_in(subset))
        members, offered = found
        base = z * m
        row = [-1] * m
        for e in obs:
            zt = s_succ[base + e]
            if zt < 0 or not offered >> e & 1:
                continue
            step, images = (steps_into[zt] or steps_at(zt))[e]
            target = images.get(subset)
            if target is None:
                target = 0
                for x in members:
                    target |= step[x]
                images[subset] = target
            key = (zt, target)
            dst = index.get(key)
            if dst is None:
                dst = index[key] = len(order)
                order.append(key)
            row[e] = dst
        # an unobservable event selfloops where s defines it and some
        # member plant state does
        for u in unobs:
            if offered >> u & 1 and s_succ[base + u] >= 0:
                row[u] = src
        succ += row
        enabled.append(s.enabled(z) & offered)  # the events both define
        names.append("+".join(sorted([pair_name[x * ns + z] for x in members])))
    g_marked = sum(1 << x for x in g.marked)
    marked = [i for i, (z, subset) in enumerate(order) if z in s.marked and subset & g_marked]
    return Automaton.from_table("SUPER", s.alphabet, distinct_names(names), 0, marked, succ,
                                enabled)


def _closure(g: Automaton, x: int, events: int) -> int:
    """The bitmask of the plant states that strings of the events in
    bitmask ``events`` lead ``x`` to, ``x`` included."""
    rows, reached = g.out_rows, 1 << x
    stack = [x]
    while stack:
        for e, t in rows[stack.pop()]:
            if events >> e & 1 and not reached >> t & 1:
                reached |= 1 << t
                stack.append(t)
    return reached


"""The SUPER and quotient constructions as they stood while the ``trans``
dict was the stored transition relation, kept as a differential oracle.

``super_from_pairs`` filled ``trans[(src, e)]`` per SUPER state and
``induce_quotient`` took its ``(cell, event)`` dict from
``_cover_targets``; both handed the dict to the constructor of that time,
kept as :class:`tests.parse_oracle.DictAutomaton`.  The library now fills
one dense row per state or cell and hands the table to
``Automaton.from_table``.  ``tests/test_table_oracle.py`` checks that both
build the same automata, field by field, and refuse the same covers.
"""

from __future__ import annotations

from typing import Optional

from supred.automata import Automaton, distinct_names
from supred.errors import CoverError
from supred.reduction import Cover
from supred.supervision import ControlData

from tests.parse_oracle import DictAutomaton


def super_from_pairs(g: Automaton, s: Automaton, xs: list[int], zs: list[int]) -> DictAutomaton:
    """The subset construction over the observable events of the closed
    loop whose reachable pairs ``(xs[i], zs[i])`` are those of
    :func:`~supred.supervision.closed_loop_pairs`, with unobservable events
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
    obs = sorted(s.alphabet.observable)
    unobs = sorted(s.alphabet.unobservable)
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
    trans: dict[tuple[int, int], int] = {}
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
            trans[(src, e)] = dst
        # an unobservable event selfloops where s defines it and some
        # member plant state does
        for u in unobs:
            if offered >> u & 1 and s_succ[base + u] >= 0:
                trans[(src, u)] = src
        names.append("+".join(sorted([pair_name[x * ns + z] for x in members])))
    g_marked = sum(1 << x for x in g.marked)
    marked = [i for i, (z, subset) in enumerate(order) if z in s.marked and subset & g_marked]
    return DictAutomaton("SUPER", s.alphabet, distinct_names(names), 0, marked, trans)


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


def _cover_targets(
    s: Automaton, data: ControlData, c: Cover
) -> tuple[Optional[tuple], dict[tuple[int, int], int]]:
    """:func:`validate_cover`'s checks in one pass that also picks the
    target cell of every (cell, event) pair: the cell itself for an
    unobservable event whose targets it holds, so that selfloops stay
    selfloops and the quotient keeps observation feasibility, and the
    lowest valid cell otherwise.  Returns the first violation, pairs
    before events, or None and the quotient's transitions.  A cell that
    contains a target set holds each of its members, so the cells holding
    its lowest member are the only candidates."""
    n = s.n
    if not c.cells:
        raise CoverError("cover has no cells")
    cell_masks, covered = [], 0
    for cell in c.cells:
        if not cell:
            raise CoverError("cover contains an empty cell")
        if min(cell) < 0 or max(cell) >= n:
            z = next(z for z in cell if not 0 <= z < n)
            raise CoverError(f"cover mentions unknown state index {z}")
        cell_masks.append(mask := sum(1 << z for z in cell))
        covered |= mask
    if covered != (1 << n) - 1:
        missing = [z for z in range(n) if not covered >> z & 1]
        raise CoverError(f"cover misses states {[s.states[z] for z in missing]}")

    masks = data.incompatibility_masks()
    for i, (cell, cell_mask) in enumerate(zip(c.cells, cell_masks)):
        if len(cell) == 1:
            continue
        for z1 in sorted(cell):
            clash = (masks[z1] & cell_mask) >> (z1 + 1)
            if clash:
                z2 = z1 + (clash & -clash).bit_length()
                return ("pair", i, (s.states[z1], s.states[z2])), {}
    cells_of: list[list[int]] = [[] for _ in range(n)]
    for j, cell in enumerate(c.cells):
        for z in cell:
            cells_of[z].append(j)
    m, succ = len(s.alphabet), s.succ
    unobs = s.alphabet.unobservable
    trans: dict[tuple[int, int], int] = {}
    for i, (cell, cell_mask) in enumerate(zip(c.cells, cell_masks)):
        if len(cell) == 1:  # every cell holding a lone target is valid
            (z,) = cell
            for e, t in enumerate(succ[z * m:(z + 1) * m]):
                if t >= 0:
                    trans[(i, e)] = i if t == z and e in unobs else cells_of[t][0]
            continue
        targets = [0] * m
        for z in cell:
            for e, t in enumerate(succ[z * m:(z + 1) * m]):
                if t >= 0:
                    targets[e] |= 1 << t
        for e, tb in enumerate(targets):
            if not tb:
                continue
            if e in unobs and not tb & ~cell_mask:
                trans[(i, e)] = i
                continue
            for j in cells_of[(tb & -tb).bit_length() - 1]:
                if not tb & ~cell_masks[j]:
                    trans[(i, e)] = j
                    break
            else:
                return ("event", i, s.alphabet.name(e)), {}
    return None, trans


def induce_quotient(
    s: Automaton, data: ControlData, c: Cover, name: Optional[str] = None
) -> DictAutomaton:
    """Quotient supervisor over a valid control cover.

    States are the cover cells; the initial cell is the first one
    containing the initial state.  A cell is marked when one of its states
    realizes marking in the closed loop (has a marked closed-loop string
    reaching it).  On supervisors whose marked states are all realized this
    coincides with intersecting the marked set, and it keeps the quotient
    control-equivalent even when a supervisor carries a marked state the
    closed loop never marks.  Where several target cells are valid for a
    (cell, event) pair the lowest canonical index wins, except that an
    unobservable selfloop stays a selfloop.
    """
    violation, trans = _cover_targets(s, data, c)
    if violation is not None:
        raise CoverError(f"invalid control cover: {violation}")
    cells, states, marked_s = c.cells, s.states, data.marked_s
    initial = next(i for i, cell in enumerate(cells) if s.initial in cell)
    # a lone state names and marks its cell without a join or a scan
    names = [states[z] if len(cell) == 1 else "+".join(sorted(states[q] for q in cell))
             for z, cell in zip(map(min, cells), cells)]
    marked = [i for i, (z, cell) in enumerate(zip(map(min, cells), cells))
              if marked_s[z] or len(cell) > 1 and any(marked_s[q] for q in cell)]
    return DictAutomaton(name or f"{s.name}-quotient", s.alphabet, distinct_names(names),
                         initial, marked, trans)

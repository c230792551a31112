"""Supervisor reduction: control covers, induced quotient supervisors, the
canonical finest supervisor (the observer of the closed loop, built on
pairs of supervisor state and plant-state set), cover extraction
from a smaller equivalent supervisor, a polynomial merge heuristic, and
exact minimum-cover search.

A control cover groups supervisor states into compatible cells; the quotient
over any such cover is again a supervisor with the same closed-loop
behaviour, so reduction is the search for small covers.  Minimum covers are
NP-hard to find, hence the split between the heuristic and the capped exact
search.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .automata import Automaton, Lockstep, control_equivalent, distinct_names
from .errors import CoverError, InfeasibleSupervisorError, PreconditionError, SearchCapError
from .supervision import (
    ControlData,
    check_control_feasibility,
    close_compatible_rows,
    closed_incompatibility,
    closed_loop_pairs,
    control_data,
    control_data_from_sets,
    is_normal,
    loop_controllable,
    successor_incompatibility,
)

__all__ = [
    "Cover",
    "ReductionReport",
    "validate_cover",
    "induce_quotient",
    "build_super",
    "super_from_pairs",
    "extract_cover_from_simsup",
    "reduce_heuristic",
    "reduce_exact_minimum",
    "reduce_exact_core",
    "characterize_super_state",
    "generate_equivalent_supervisor",
    "DEFAULT_EXACT_CAP",
    "EQUIVALENT_DRAW_CAP",
]

DEFAULT_EXACT_CAP = 10
# generate_equivalent_supervisor shuffles all n(n-1)/2 state pairs of SUPER:
# 15 MiB and about 1.5 s at this size (2-vCPU VM), gigabytes at 10k-20k states
EQUIVALENT_DRAW_CAP = 2000


@dataclass(frozen=True)
class Cover:
    """An ordered family of nonempty state-index cells covering a state set.

    Cells are kept in canonical order: by smallest member, then
    lexicographically by sorted member list.  Identical cells collapse.
    """

    cells: tuple[frozenset[int], ...]

    @staticmethod
    def from_cells(cells: Iterable[Iterable[int]]) -> "Cover":
        unique = {frozenset(c) for c in cells}
        ordered = sorted(unique, key=lambda c: (min(c), sorted(c)) if c else (-1, []))
        return Cover(tuple(ordered))

    def __len__(self) -> int:
        return len(self.cells)

    @property
    def is_partition(self) -> bool:
        total = sum(len(c) for c in self.cells)
        union = frozenset().union(*self.cells) if self.cells else frozenset()
        return total == len(union)

    def cell_of(self, state: int) -> int:
        """Index of the first cell containing ``state``."""
        for i, c in enumerate(self.cells):
            if state in c:
                return i
        raise ValueError(f"state {state} not covered")


@dataclass
class ReductionReport:
    """Sizes, the cover found, and ``steps``: the work count of the
    reducer.  The heuristic counts the unions it examined (one
    compatibility check each, committed or not); pairs its masks settle
    without an attempt are not counted.  Those masks start as the
    one-step masks of
    :func:`~supred.supervision.successor_incompatibility`, so a pair one
    event leads to a base-incompatible pair is settled too, and from the
    first refused attempt on they are closed under successors, so every
    pair the implication chart of the cells refuses is settled as well.
    The closure's own work is not counted.  The exact search counts the
    nodes it visited."""

    input_size: int
    output_size: int
    cover: Cover
    steps: int
    mode: str


def validate_cover(
    s: Automaton, data: ControlData, c: Cover
) -> tuple[bool, Optional[tuple]]:
    """Check the two control-cover conditions.

    Returns ``(False, violation)`` where the violation names either an
    incompatible pair ``("pair", cell, (z, z'))`` or an event whose images
    fit no single cell ``("event", cell, event)``.  Structurally malformed
    covers (empty cell, out-of-range state, non-covering union) raise
    :class:`CoverError` instead.
    """
    violation, _ = _cover_targets(s, data, c)
    return violation is None, violation


def _cover_targets(
    s: Automaton, data: ControlData, c: Cover
) -> tuple[Optional[tuple], list[int]]:
    """:func:`validate_cover`'s checks in one pass that also picks the
    target cell of every (cell, event) pair: the cell itself for an
    unobservable event whose targets it holds, so that selfloops stay
    selfloops and the quotient keeps observation feasibility, and the
    lowest valid cell otherwise.  Returns the first violation, pairs
    before events, or None and the quotient's dense successor table, one
    row per cell.  A cell that contains a target set holds each of its
    members, so the cells holding its lowest member are the only
    candidates."""
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
                return ("pair", i, (s.states[z1], s.states[z2])), []
    cells_of: list[list[int]] = [[] for _ in range(n)]
    for j, cell in enumerate(c.cells):
        for z in cell:
            cells_of[z].append(j)
    m, succ = len(s.alphabet), s.succ
    unobs = s.alphabet.unobservable_mask
    table = [-1] * (len(c.cells) * m)
    for i, (cell, cell_mask) in enumerate(zip(c.cells, cell_masks)):
        base = i * m
        if len(cell) == 1:  # every cell holding a lone target is valid
            (z,) = cell
            for e, t in enumerate(succ[z * m:(z + 1) * m]):
                if t >= 0:
                    table[base + e] = i if t == z and unobs >> e & 1 else cells_of[t][0]
            continue
        targets = [0] * m
        for z in cell:
            for e, t in enumerate(succ[z * m:(z + 1) * m]):
                if t >= 0:
                    targets[e] |= 1 << t
        for e, tb in enumerate(targets):
            if not tb:
                continue
            if unobs >> e & 1 and not tb & ~cell_mask:
                table[base + e] = i
                continue
            for j in cells_of[(tb & -tb).bit_length() - 1]:
                if not tb & ~cell_masks[j]:
                    table[base + e] = j
                    break
            else:
                return ("event", i, s.alphabet.name(e)), []
    return None, table


def induce_quotient(
    s: Automaton, data: ControlData, c: Cover, name: Optional[str] = None
) -> Automaton:
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
    violation, table = _cover_targets(s, data, c)
    if violation is not None:
        raise CoverError(f"invalid control cover: {violation}")
    cells, states, marked_s = c.cells, s.states, data.marked_s
    initial = next(i for i, cell in enumerate(cells) if s.initial in cell)
    # a lone state names and marks its cell without a join or a scan
    names = [states[z] if len(cell) == 1 else "+".join(sorted(states[q] for q in cell))
             for z, cell in zip(map(min, cells), cells)]
    marked = [i for i, (z, cell) in enumerate(zip(map(min, cells), cells))
              if marked_s[z] or len(cell) > 1 and any(marked_s[q] for q in cell)]
    return Automaton.from_table(name or f"{s.name}-quotient", s.alphabet, distinct_names(names),
                                initial, marked, table)


def require_feasible(
    g: Automaton, s: Automaton, data: Optional[ControlData] = None
) -> ControlData:
    """Gate used by the reduction pipeline.

    A supervisor passes when every unobservable transition is a selfloop
    and the closed loop never sees it disable an uncontrollable event the
    plant offers (the condition ``loop_controllable`` checks).  (The
    stricter all-uncontrollables-enabled-everywhere reading of control
    existence is available separately as ``check_control_existence``;
    realistic supervisors omit uncontrollable events the plant rules out,
    so the loop-relative condition is the one the pipeline enforces.)
    Returns the control data of ``s``, which the second check computes
    unless ``data`` already holds it.
    """
    _require_selfloop_unobservables(s)
    if data is None:
        data = control_data(g, s)
    _require_loop_controllable(s, data)
    return data


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
    :func:`~supred.supervision.closed_loop_pairs`.  Fails on an infeasible
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


def characterize_super_state(
    g: Automaton, s: Automaton, super_: Automaton, z: int
) -> tuple[int, int]:
    """Enabled and disabled event bitmasks of one state of the finest
    supervisor, read off the closed-loop states ``Lockstep`` reaches with
    ``z``: an event is enabled if one of them extends by it inside the
    closed loop, and disabled if one's plant component offers it while the
    supervisor component does not (``g.alphabet.names_of`` lists them)."""
    require_feasible(g, s)
    if not (0 <= z < super_.n):
        raise ValueError(f"unknown super-state index {z}")
    walk = Lockstep(g, s, super_).run()
    enabled = disabled = 0
    for zs, y, states in zip(walk.pair_a, walk.pair_b, walk.reached):
        if y == z:
            offered = g.enabled_in(states)
            enabled |= offered & s.enabled(zs)
            disabled |= offered & ~s.enabled(zs)
    return enabled, disabled


def extract_cover_from_simsup(
    super_: Automaton, simsup: Automaton, g: Automaton, s: Automaton
) -> Cover:
    """Recover, from a normal control-equivalent supervisor, the control
    cover on the finest supervisor whose quotient reproduces it.

    Each simsup state contributes the cell of finest-supervisor states
    reached by the closed-loop strings that drive simsup to it.  Once
    simsup is known to be control equivalent to ``s``, the cells are read
    off the pairs of ``super_`` and simsup states that
    :class:`~supred.automata.Lockstep` reaches with the plant.
    """
    ok, witness = check_control_feasibility(simsup)
    if not ok:
        raise PreconditionError("feasibility", f"simsup: {witness}")
    ok, _ = loop_controllable(g, simsup)
    if not ok:
        raise PreconditionError("feasibility", "simsup disables an uncontrollable event")
    equal, counterexample = control_equivalent(g, s, simsup)
    if not equal:
        raise PreconditionError("control-equivalence", f"separating string {counterexample}")
    normal, witness = is_normal(g, s, simsup)
    if not normal:
        raise PreconditionError("normality", str(witness))

    walk = Lockstep(g, super_, simsup).run()
    cell_of_simsup: list[set[int]] = [set() for _ in range(simsup.n)]
    for zs, y, states in zip(walk.pair_a, walk.pair_b, walk.reached):
        if g.enabled_in(states) & simsup.enabled(y) & ~super_.enabled(zs):
            raise PreconditionError(
                "control-equivalence",
                "closed-loop string leaves the candidate supervisor",
            )
        cell_of_simsup[y].add(zs)
    for y, cell in enumerate(cell_of_simsup):
        if not cell:
            raise PreconditionError(
                "normality", f"simsup state {simsup.states[y]!r} is never reached by the closed loop"
            )
    return Cover.from_cells(cell_of_simsup)


# ---------------------------------------------------------------------------
# Heuristic reduction: pairwise merging with congruence closure


class _MergePartition:
    """Union-find partition of the supervisor states under tentative merges.

    Merging two cells forces their event successors into a common cell
    (congruence closure, Hopcroft & Karp 1971); an attempt that would put an
    incompatible pair into one cell is rolled back.  The closure is the
    least congruence holding the old cells and the new pair, whatever the
    order of its unions, so each attempt's outcome depends only on the
    partition and the pair.  Each root keeps the
    bitmask of its members, the union of their incompatibility masks, and
    one representative successor per event, so a union costs one ``&`` plus
    O(|Σ|) and pushes only the pairs of representative successors.  Union
    by size without path compression keeps every change undoable from a
    log, so a failed attempt costs only what it did.

    A refused attempt also marks its two cells incompatible with each
    other (a learned refusal).  Commits only coarsen the partition and the
    closure is monotone, so any later congruence joining the two cells
    contains the one just refused and fails too: the learned bits change
    how soon an attempt fails, never whether it does.  The same holds for
    the one-step bits of
    :func:`~supred.supervision.successor_incompatibility` the callers seed
    it with, since no congruence holds such a pair without the
    incompatible successor pair, and for the bits :meth:`close` adds,
    since every congruence coarser than the partition that joins two
    cells joins their successor cells too.
    """

    def __init__(self, s: Automaton, masks: Sequence[int]):
        n = s.n
        self.m = m = len(s.alphabet)
        self.parent = list(range(n))
        self.size = [1] * n
        self.members = [1 << q for q in range(n)]
        self.incompatible = list(masks)
        # representative successor of root r under event e at r * m + e;
        # a copy, since unions write to it
        self.succ = list(s.succ)
        self.steps = 0

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            x = parent[x]
        return x

    def try_merge(self, i: int, j: int) -> bool:
        """Merge the cells of ``i`` and ``j`` and close under successors;
        on an incompatible cell undo everything, mark the two cells
        incompatible with each other and return False."""
        parent, size, members = self.parent, self.size, self.members
        incompatible, succ, m = self.incompatible, self.succ, self.m
        a, b = i, j
        while parent[a] != a:
            a = parent[a]
        while parent[b] != b:
            b = parent[b]
        if a == b:
            return True
        ri, rj = a, b
        # per union: (kept root, absorbed root, kept root's old member and
        # incompatibility masks, events whose representative it took over)
        log = []
        worklist = []
        while True:
            self.steps += 1
            if incompatible[a] & members[b]:
                if log:
                    self._undo(log)
                incompatible[ri] |= members[rj]
                incompatible[rj] |= members[ri]
                return False
            if size[a] < size[b]:
                a, b = b, a
            parent[b] = a
            size[a] += size[b]
            filled = []
            log.append((a, b, members[a], incompatible[a], filled))
            members[a] |= members[b]
            incompatible[a] |= incompatible[b]
            base_a, base_b = a * m, b * m
            for e in range(m):
                tb = succ[base_b + e]
                if tb < 0:
                    continue
                ta = succ[base_a + e]
                if ta < 0:
                    succ[base_a + e] = tb
                    filled.append(e)
                elif ta != tb:
                    worklist.append((ta, tb))
            # on to the next pair still in two cells
            while True:
                if not worklist:
                    return True
                a, b = worklist.pop()
                while parent[a] != a:
                    a = parent[a]
                while parent[b] != b:
                    b = parent[b]
                if a != b:
                    break

    def _undo(self, log: list) -> None:
        parent, size, succ, m = self.parent, self.size, self.succ, self.m
        for a, b, members, incompatible, filled in reversed(log):
            parent[b] = b
            size[a] -= size[b]
            self.members[a] = members
            self.incompatible[a] = incompatible
            for e in filled:
                succ[a * m + e] = -1

    def close(self) -> None:
        """Mark incompatible every two cells that no congruence coarser than
        the partition can join: :func:`~supred.supervision.close_compatible_rows`
        over the cells, then each root's mask takes the members of every
        cell its row lost.  The roots are the positions, a cell's
        successors are its representative successors resolved with
        :meth:`find`, and two cells are compatible when no member of one is
        in the other's mask.  A cell's root is its member, so a cell whose
        root is in a mask is incompatible with it, and a lone state's row
        bits are read off its mask at once: the work grows with the cells
        and the pairs still compatible, not with the states."""
        members, incompatible, succ, parent, m = (
            self.members, self.incompatible, self.succ, self.parent, self.m)
        roots = []
        singles = grouped = 0  # the roots of one-state cells and of larger ones
        rest = (1 << len(members)) - 1
        while rest:
            low = rest & -rest
            r = low.bit_length() - 1
            while parent[r] != r:
                r = parent[r]
            roots.append(r)
            if members[r] == low:
                singles |= low
            else:
                grouped |= 1 << r
            rest &= ~members[r]
        rows: dict[int, int] = {}
        cell_succ: dict[int, int] = {}
        for r in roots:
            clash = incompatible[r]
            row = singles & ~clash  # holds r itself: a cell is compatible with itself
            others = grouped & ~clash
            while others:
                low = others & -others
                others ^= low
                if not clash & members[low.bit_length() - 1]:
                    row |= low
            rows[r] = row
            if row != 1 << r:
                base = r * m
                for e in range(m):
                    t = succ[base + e]
                    if t >= 0:
                        while parent[t] != t:
                            t = parent[t]
                    cell_succ[base + e] = t
        for r, kept in close_compatible_rows(cell_succ, m, rows).items():
            lost = rows[r] ^ kept
            if lost:
                widen = lost & singles
                lost &= grouped
                while lost:
                    low = lost & -lost
                    lost ^= low
                    widen |= members[low.bit_length() - 1]
                incompatible[r] |= widen

    def sweep(self) -> None:
        """Attempt every pair ``(i, j)``, ``i < j``, in canonical order,
        skipping the pairs the masks settle: ``j`` already in the cell of
        ``i``, or marked incompatible with it.  ``try_merge`` would find the
        former merged and refuse the latter on its first ``&``, so skipping
        them leaves the cover as the full loop would.  The first refused
        attempt runs :meth:`close` once: a sweep that refuses nothing never
        pays for it, and one that refuses early skips the rest of the
        refusals it would otherwise prove one attempt at a time."""
        members, incompatible = self.members, self.incompatible
        find, try_merge = self.find, self.try_merge
        n = len(members)
        full = (1 << n) - 1
        closed = False
        for i in range(n):
            above = full & -(2 << i)  # states j > i
            while True:
                r = find(i)
                free = above & ~(incompatible[r] | members[r])
                if not free:
                    break
                low = free & -free
                if not try_merge(i, low.bit_length() - 1) and not closed:
                    self.close()
                    closed = True
                above &= -(low << 1)  # states beyond this j

    def cover(self) -> Cover:
        cells: dict[int, list[int]] = {}
        for q in range(len(self.parent)):
            cells.setdefault(self.find(q), []).append(q)
        return Cover(tuple(map(frozenset, cells.values())))  # disjoint, by least member


def _congruence_from_merges(
    s: Automaton,
    data: ControlData,
    pair_order: Iterable[tuple[int, int]],
) -> tuple[Cover, int]:
    """Attempt the merges in order; the cover is the control congruence
    grown by the attempts that committed.  The one-step masks refuse the
    same attempts as the base masks, sooner."""
    scratch = _MergePartition(s, successor_incompatibility(s, data.incompatibility_masks()))
    try_merge = scratch.try_merge
    for i, j in pair_order:
        try_merge(i, j)
    return scratch.cover(), scratch.steps


def reduce_heuristic(g: Automaton, s: Automaton) -> tuple[Automaton, ReductionReport]:
    """Polynomial-time reduction through a control congruence.

    Attempts every state pair in canonical order, committing a merge when
    the propagated closure stays compatible; pairs the one-step
    incompatibility masks already settle, or their closure under
    successors once an attempt has been refused, are skipped (see
    :meth:`_MergePartition.sweep`).
    The result is a partition cover, so the quotient never exceeds the
    input size.
    """
    data = require_feasible(g, s)
    partition = _MergePartition(s, successor_incompatibility(s, data.incompatibility_masks()))
    partition.sweep()
    cover, steps = partition.cover(), partition.steps
    quotient = induce_quotient(s, data, cover, name=f"{s.name}-reduced")
    report = ReductionReport(s.n, quotient.n, cover, steps, "heuristic")
    return quotient, report


def generate_equivalent_supervisor(g: Automaton, s: Automaton, seed: int) -> Automaton:
    """A random member of the control-equivalence class of ``s``: the
    quotient of the finest supervisor by a randomly grown control
    congruence.  Deterministic for a given 64-bit seed.  Refuses with
    :class:`SearchCapError` when SUPER exceeds :data:`EQUIVALENT_DRAW_CAP`
    states."""
    sup = build_super(g, s)
    if sup.n > EQUIVALENT_DRAW_CAP:
        raise SearchCapError(sup.n, EQUIVALENT_DRAW_CAP, "equivalent-supervisor draw")
    data = control_data(g, sup)
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    n = sup.n
    codes = array("Q")  # pair (i, j), i < j, as code i * n + j: 8 bytes, not a tuple
    for i in range(n):
        codes.extend(range(i * n + i + 1, i * n + n))
    rng.shuffle(codes)
    attempts = rng.randint(0, len(codes))
    cover, _ = _congruence_from_merges(sup, data, (divmod(c, n) for c in codes[:attempts]))
    return induce_quotient(sup, data, cover, name=f"{s.name}-equiv-{seed}")


# ---------------------------------------------------------------------------
# Exact minimum search


def _greedy_incompatible_states(masks: Sequence[int]) -> list[int]:
    """Greedily grown set of pairwise-incompatible states."""
    n = len(masks)
    order = sorted(range(n), key=lambda i: masks[i].bit_count(), reverse=True)
    clique: list[int] = []
    for i in order:
        if all(masks[i] >> j & 1 for j in clique):
            clique.append(i)
    return clique


class _ExactSearch:
    def __init__(self, s: Automaton, data: ControlData):
        self.s = s
        self.n = s.n
        self.masks = closed_incompatibility(s, data.incompatibility_masks())
        # pairwise-incompatible states never share a cell: a lower bound on
        # k, and each uncovered one needs a future cell of its own
        self.clique = _greedy_incompatible_states(self.masks)
        self.steps = 0

    # -- partitions ---------------------------------------------------

    def find_partition(self, k: int) -> Optional[list[set[int]]]:
        """A control congruence of at most ``k`` cells, states placed in
        index order; a full assignment must send each cell's successors
        under every event into one cell.  Placements are not checked early:
        every leaf below a bad one fails, so the first partition found is
        the same, and the early check saved no time on small supervisors."""
        cells: list[set[int]] = []
        cell_masks: list[int] = []
        assign = [-1] * self.n
        succ, m = self.s.succ, len(self.s.alphabet)

        def closure_ok() -> bool:
            for cell in cells:
                for e in range(m):
                    target_cell = -1
                    for z in cell:
                        t = succ[z * m + e]
                        if t < 0:
                            continue
                        if target_cell == -1:
                            target_cell = assign[t]
                        elif assign[t] != target_cell:
                            return False
            return True

        def dfs(q: int) -> bool:
            self.steps += 1
            if q == self.n:
                return closure_ok()
            bit = 1 << q
            for c in range(len(cells)):
                if cell_masks[c] & bit:
                    continue
                cells[c].add(q)
                saved = cell_masks[c]
                cell_masks[c] |= self.masks[q]
                assign[q] = c
                if dfs(q + 1):
                    return True
                assign[q] = -1
                cell_masks[c] = saved
                cells[c].remove(q)
            if len(cells) < k:
                cells.append({q})
                cell_masks.append(self.masks[q])
                assign[q] = len(cells) - 1
                if dfs(q + 1):
                    return True
                assign[q] = -1
                cells.pop()
                cell_masks.pop()
            return False

        if dfs(0):
            return cells
        return None

    # -- general covers -----------------------------------------------

    def _candidate_cells(self, m: int) -> list[int]:
        """All cliques of the closed compatibility relation (as bitmasks)
        whose minimum member is ``m``, largest cells first.  The relation
        is closed under successors, so every clique's per-event target
        sets are cliques as well."""
        out: list[int] = []
        candidates = [z for z in range(m + 1, self.n) if not self.masks[m] >> z & 1]

        def grow(cell: int, incompat: int, rest: list[int]) -> None:
            out.append(cell)
            for i, z in enumerate(rest):
                if not incompat >> z & 1:
                    grow(cell | 1 << z, incompat | self.masks[z], rest[i + 1:])

        grow(1 << m, self.masks[m], candidates)
        out.sort(key=lambda c: -c.bit_count())
        return out

    def find_cover(self, k: int) -> Optional[list[set[int]]]:
        """Search directly over cell families: cells are chosen in a
        canonical order of strictly increasing (minimum member, bitmask)
        keys, which kills permutation symmetry and yields two strong
        prunes — a state below the next allowed minimum can never be
        covered later, and a pending target set reaching below it can
        never be received later.  A pending target set is itself a
        candidate cell, so its own minimum is the highest minimum any
        receiver can have.

        A target set is pending while no chosen cell holds it.  Each node
        gets its parent's pending list and updates it for the one cell
        just chosen, in O(|pending| + |Σ|·k) instead of a rebuild in
        O(k²·|Σ|).  That gives the same sets: the chosen cells only grow
        along a path, so a parent's pending set leaves only when the new
        cell holds it, and only the new cell's target sets are new."""
        n_events, succ = len(self.s.alphabet), self.s.succ
        full = (1 << self.n) - 1
        # Built per call, not kept across k or built in __init__: find_cover
        # runs at most once per search on the 120 exact_small instances and
        # on 197 of 199 seeded loose ones, and building eagerly raised the
        # exact_small call_p90_s from 1.0-1.2 ms to 1.5-1.6 ms.
        by_min = [self._candidate_cells(m) for m in range(self.n)]
        max_cell = max((c.bit_count() for row in by_min for c in row), default=1)
        clique_mask = sum(1 << z for z in self.clique)
        targets_of: dict[int, tuple[int, ...]] = {}

        def cell_targets(cell: int) -> tuple[int, ...]:
            """The cell's non-empty per-event target sets."""
            cached = targets_of.get(cell)
            if cached is None:
                rows = [0] * n_events
                c = cell
                while c:
                    z = (c & -c).bit_length() - 1
                    c &= c - 1
                    for e, t in enumerate(succ[z * n_events:(z + 1) * n_events]):
                        if t >= 0:
                            rows[e] |= 1 << t
                targets_of[cell] = cached = tuple(tb for tb in rows if tb)
            return cached

        chosen: list[int] = []

        def dfs(last_min: int, last_cell: int, covered: int, inherited: list[int]) -> bool:
            self.steps += 1
            # last_cell is the cell just chosen (0 at the root)
            pending = [tb for tb in inherited if tb & ~last_cell]
            for tb in cell_targets(last_cell):
                for held in chosen:
                    if tb & ~held == 0:
                        break
                else:
                    pending.append(tb)
            if len(chosen) == k:
                return covered == full and not pending
            # future cells have min member >= last_min: no pending target
            # set and no uncovered state may lie below it
            below = (1 << last_min) - 1
            for tb in pending:
                if tb & below:
                    return False
            uncovered = full & ~covered
            remaining = k - len(chosen)
            if uncovered.bit_count() > remaining * max_cell:
                return False
            if (uncovered & clique_mask).bit_count() > remaining:
                return False
            if uncovered:
                lowest_uncovered = (uncovered & -uncovered).bit_length() - 1
                if lowest_uncovered < last_min:
                    return False
                hi = lowest_uncovered
            else:
                if not pending:
                    return False  # a smaller cover; found at smaller k
                hi = self.n - 1
            for m in range(last_min, hi + 1):
                for cell in by_min[m]:
                    if m == last_min and cell <= last_cell:
                        continue
                    chosen.append(cell)
                    if dfs(m, cell, covered | cell, pending):
                        return True
                    chosen.pop()
            return False

        if dfs(0, 0, 0, []):
            return [{z for z in range(self.n) if cell >> z & 1} for cell in chosen]
        return None


def reduce_exact_minimum(
    g: Automaton,
    s: Automaton,
    mode: str = "cover",
    cap_states: int = DEFAULT_EXACT_CAP,
) -> tuple[Automaton, ReductionReport]:
    """Minimum-cardinality control cover by increasing-size backtracking.

    ``mode`` is "partition" (control congruences only) or "cover" (general,
    possibly overlapping covers, which can be strictly smaller).  The
    search reads incompatibility closed under successors
    (:func:`~supred.supervision.closed_incompatibility`), which no valid
    cover violates.  Refuses supervisors larger than ``cap_states``: the
    underlying minimisation problem is NP-hard and blowup should be
    explicit, not silent.
    """
    if mode not in ("partition", "cover"):
        raise ValueError(f"unknown mode {mode!r}")
    data = require_feasible(g, s)
    return reduce_exact_core(s, data, mode, cap_states)


def reduce_exact_core(
    s: Automaton, data: ControlData, mode: str, cap_states: int
) -> tuple[Automaton, ReductionReport]:
    """:func:`reduce_exact_minimum` on precomputed control data, without the
    feasibility gate (the state cap still applies), so that supervisors
    tracking unobservable events across states reduce too, as
    :func:`~supred.ordering.compare_full_vs_partial` needs."""
    if s.n > cap_states:
        raise SearchCapError(s.n, cap_states)
    search = _ExactSearch(s, data)
    lower = max(1, len(search.clique))
    for k in range(lower, s.n + 1):
        cells = search.find_partition(k)
        if cells is None and mode == "cover":
            cells = search.find_cover(k)
        if cells is not None:
            cover = Cover.from_cells(cells)
            quotient = induce_quotient(s, data, cover, name=f"{s.name}-min")
            report = ReductionReport(s.n, quotient.n, cover, search.steps, f"exact-{mode}")
            return quotient, report
    raise AssertionError("singleton cover is always valid")  # pragma: no cover

"""Supervisor reduction: control covers, induced quotient supervisors, the
canonical finest supervisor built by subset construction, cover extraction
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
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .automata import (
    Automaton,
    language_equivalent,
    subset_construction,
    subset_construction_with_members,
    sync_product,
    sync_product_pairs,
)
from .errors import CoverError, InfeasibleSupervisorError, PreconditionError, SearchCapError
from .supervision import (
    ControlData,
    check_control_feasibility,
    compatibility_relation,
    control_data,
    is_normal,
    loop_controllable,
)

__all__ = [
    "Cover",
    "QuotientChoice",
    "ReductionReport",
    "validate_cover",
    "induce_quotient",
    "build_super",
    "extract_cover_from_simsup",
    "reduce_heuristic",
    "reduce_exact_minimum",
    "reduce_exact_core",
    "characterize_super_state",
    "generate_equivalent_supervisor",
    "DEFAULT_EXACT_CAP",
]

DEFAULT_EXACT_CAP = 10


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
class QuotientChoice:
    """Per (cell, event) record of the chosen target cell and whether other
    valid targets existed (the construction then picked the lowest canonical
    index)."""

    choices: dict[tuple[int, int], tuple[int, bool]] = field(default_factory=dict)

    def had_alternatives(self) -> bool:
        return any(multiple for _, multiple in self.choices.values())


@dataclass
class ReductionReport:
    """Sizes, the cover found, and ``steps``: the work count of the
    reducer.  The heuristic counts the unions it examined (one
    compatibility check each, committed or not); pairs its masks settle
    without an attempt are not counted.  The exact search counts the nodes
    it visited."""

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
    n = s.n
    if not c.cells:
        raise CoverError("cover has no cells")
    covered: set[int] = set()
    for cell in c.cells:
        if not cell:
            raise CoverError("cover contains an empty cell")
        for z in cell:
            if not (0 <= z < n):
                raise CoverError(f"cover mentions unknown state index {z}")
        covered |= cell
    if covered != set(range(n)):
        missing = sorted(set(range(n)) - covered)
        raise CoverError(f"cover misses states {[s.states[z] for z in missing]}")

    masks = data.incompatibility_masks()
    for i, cell in enumerate(c.cells):
        cell_mask = sum(1 << z for z in cell)
        for z1 in sorted(cell):
            clash = (masks[z1] & cell_mask) >> (z1 + 1)
            if clash:
                z2 = z1 + (clash & -clash).bit_length()
                return False, ("pair", i, (s.states[z1], s.states[z2]))
    cells_of = _cells_of_states(c, n)
    for i, cell in enumerate(c.cells):
        for e, targets in _event_targets(s, cell):
            if not any(targets <= c.cells[j] for j in cells_of[next(iter(targets))]):
                return False, ("event", i, s.alphabet.name(e))
    return True, None


def _cells_of_states(c: Cover, n: int) -> list[list[int]]:
    """Per state, the indices of the cells holding it, in ascending order.
    A cell that contains a target set holds each of its members, so the
    cells of any one member are the only candidates."""
    cells_of: list[list[int]] = [[] for _ in range(n)]
    for j, cell in enumerate(c.cells):
        for z in cell:
            cells_of[z].append(j)
    return cells_of


def _event_targets(s: Automaton, cell: frozenset[int]) -> list[tuple[int, set[int]]]:
    """The nonempty per-event successor sets of a cell, by event index."""
    by_event: dict[int, set[int]] = {}
    for z in cell:
        for e, t in s.out(z):
            by_event.setdefault(e, set()).add(t)
    return sorted(by_event.items())


def _cell_name(s: Automaton, cell: frozenset[int]) -> str:
    return "+".join(sorted(s.states[z] for z in cell))


def induce_quotient(
    s: Automaton, data: ControlData, c: Cover, name: Optional[str] = None
) -> tuple[Automaton, QuotientChoice]:
    """Quotient supervisor over a valid control cover.

    States are the cover cells; the initial cell is the first one
    containing the initial state.  A cell is marked when one of its states
    realizes marking in the closed loop (has a marked closed-loop string
    reaching it).  On supervisors whose marked states are all realized this
    coincides with intersecting the marked set, and it keeps the quotient
    control-equivalent even when a supervisor carries a marked state the
    closed loop never marks.  Where several target cells are valid for a
    (cell, event) pair the lowest canonical index wins, and the choice
    record notes that alternatives existed.
    """
    ok, violation = validate_cover(s, data, c)
    if not ok:
        raise CoverError(f"invalid control cover: {violation}")
    cells = c.cells
    cells_of = _cells_of_states(c, s.n)
    unobs = s.alphabet.unobservable
    trans: dict[tuple[int, int], int] = {}
    choice = QuotientChoice()
    for i, cell in enumerate(cells):
        for e, targets in _event_targets(s, cell):
            valid = [j for j in cells_of[next(iter(targets))] if targets <= cells[j]]
            # an unobservable event selflooped in the input must stay a
            # selfloop, or the quotient would lose observation feasibility;
            # otherwise the lowest canonical index wins
            if e in unobs and i in valid:
                chosen = i
            else:
                chosen = valid[0]
            trans[(i, e)] = chosen
            choice.choices[(i, e)] = (chosen, len(valid) > 1)
    initial = cells_of[s.initial][0]
    marked = [i for i, cell in enumerate(cells) if any(data.marked_s[z] for z in cell)]
    names = [_cell_name(s, cell) for cell in cells]
    quotient = Automaton(name or f"{s.name}-quotient", s.alphabet, names, initial, marked, trans)
    return quotient, choice


def require_feasible(g: Automaton, s: Automaton) -> ControlData:
    """Gate used by the reduction pipeline.

    A supervisor passes when every unobservable transition is a selfloop
    and the closed loop never sees it disable an uncontrollable event the
    plant offers (the condition ``loop_controllable`` checks).  (The
    stricter all-uncontrollables-enabled-everywhere reading of control
    existence is available separately as ``check_control_existence``;
    realistic supervisors omit uncontrollable events the plant rules out,
    so the loop-relative condition is the one the pipeline enforces.)
    Returns the control data of ``s``, which the second check computes.
    """
    ok, witness = check_control_feasibility(s)
    if not ok:
        raise InfeasibleSupervisorError("feasibility", witness)
    data = control_data(g, s)
    z = data.uncontrollable_disabler()
    if z is not None:
        raise InfeasibleSupervisorError("controllability", s.states[z])
    return data


def build_super(g: Automaton, s: Automaton) -> Automaton:
    """The finest supervisor with the closed-loop behaviour of ``s``:
    subset construction over the reachable closed loop, with unobservable
    events reinserted as selfloops.  Fails on an infeasible supervisor."""
    require_feasible(g, s)
    return subset_construction(sync_product(g, s), name="SUPER")


def characterize_super_state(
    g: Automaton, s: Automaton, super_: Automaton, z: int
) -> tuple[int, int]:
    """Enabled and disabled event bitmasks of one state of the finest
    supervisor, read off its member product states: an event is enabled if
    some member extends by it inside the closed loop, and disabled if some
    member's plant component offers it while the supervisor component does
    not.  ``g.alphabet.names_of`` lists the events of either mask."""
    require_feasible(g, s)
    product, pairs = sync_product_pairs(g, s)
    sup, members = subset_construction_with_members(product, name="SUPER")
    if not (0 <= z < super_.n):
        raise ValueError(f"unknown super-state index {z}")
    idx = sup.state_index(super_.states[z])
    enabled = disabled = 0
    for member in members[idx]:
        enabled |= product.enabled(member)
        x, zs = pairs[member]
        disabled |= g.enabled(x) & ~s.enabled(zs)
    return enabled, disabled


def extract_cover_from_simsup(
    super_: Automaton, simsup: Automaton, g: Automaton, s: Automaton
) -> Cover:
    """Recover, from a normal control-equivalent supervisor, the control
    cover on the finest supervisor whose quotient reproduces it.

    Each simsup state contributes the cell of finest-supervisor states
    reached by the closed-loop strings that drive simsup to it.
    """
    ok, witness = check_control_feasibility(simsup)
    if not ok:
        raise PreconditionError("feasibility", f"simsup: {witness}")
    ok, _ = loop_controllable(g, simsup)
    if not ok:
        raise PreconditionError("feasibility", "simsup disables an uncontrollable event")
    product = sync_product(g, s)
    equal, counterexample = language_equivalent(product, sync_product(g, simsup))
    if not equal:
        raise PreconditionError("control-equivalence", f"separating string {counterexample}")
    normal, witness = is_normal(g, s, simsup)
    if not normal:
        raise PreconditionError("normality", str(witness))

    cell_of_simsup: list[set[int]] = [set() for _ in range(simsup.n)]
    start = (product.initial, super_.initial, simsup.initial)
    seen = {start}
    queue = [start]
    while queue:
        p, zs, y = queue.pop()
        cell_of_simsup[y].add(zs)
        for e, pt in product.out(p):
            zt = super_.step(zs, e)
            yt = simsup.step(y, e)
            if zt is None or yt is None:
                raise PreconditionError(
                    "control-equivalence",
                    "closed-loop string leaves the candidate supervisor",
                )
            nxt = (pt, zt, yt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
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
    how soon an attempt fails, never whether it does.
    """

    def __init__(self, s: Automaton, masks: Sequence[int]):
        n = s.n
        self.m = m = len(s.alphabet)
        self.parent = list(range(n))
        self.size = [1] * n
        self.members = [1 << q for q in range(n)]
        self.incompatible = list(masks)
        # representative successor of root r under event e at r * m + e
        succ = [-1] * (n * m)
        for (q, e), t in s.trans.items():
            succ[q * m + e] = t
        self.succ = succ
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

    def sweep(self) -> None:
        """Attempt every pair ``(i, j)``, ``i < j``, in canonical order,
        skipping the pairs the masks settle: ``j`` already in the cell of
        ``i``, or marked incompatible with it.  ``try_merge`` would find the
        former merged and refuse the latter on its first ``&``, so skipping
        them leaves the cover as the full loop would."""
        members, incompatible = self.members, self.incompatible
        find, try_merge = self.find, self.try_merge
        n = len(members)
        full = (1 << n) - 1
        for i in range(n):
            above = full & -(2 << i)  # states j > i
            while True:
                r = find(i)
                free = above & ~(incompatible[r] | members[r])
                if not free:
                    break
                low = free & -free
                try_merge(i, low.bit_length() - 1)
                above &= -(low << 1)  # states beyond this j

    def cover(self) -> Cover:
        cells: dict[int, list[int]] = {}
        for q in range(len(self.parent)):
            cells.setdefault(self.find(q), []).append(q)
        return Cover.from_cells(cells.values())


def _congruence_from_merges(
    s: Automaton,
    data: ControlData,
    pair_order: Iterable[tuple[int, int]],
) -> tuple[Cover, int]:
    """Attempt the merges in order; the cover is the control congruence
    grown by the attempts that committed."""
    scratch = _MergePartition(s, compatibility_relation(data).masks)
    try_merge = scratch.try_merge
    for i, j in pair_order:
        try_merge(i, j)
    return scratch.cover(), scratch.steps


def reduce_heuristic(g: Automaton, s: Automaton) -> tuple[Automaton, ReductionReport]:
    """Polynomial-time reduction through a control congruence.

    Attempts every state pair in canonical order, committing a merge when
    the propagated closure stays compatible; pairs the incompatibility
    masks already settle are skipped (see :meth:`_MergePartition.sweep`).
    The result is a partition cover, so the quotient never exceeds the
    input size.
    """
    data = require_feasible(g, s)
    partition = _MergePartition(s, compatibility_relation(data).masks)
    partition.sweep()
    cover, steps = partition.cover(), partition.steps
    quotient, _ = induce_quotient(s, data, cover, name=f"{s.name}-reduced")
    report = ReductionReport(s.n, quotient.n, cover, steps, "heuristic")
    return quotient, report


def generate_equivalent_supervisor(g: Automaton, s: Automaton, seed: int) -> Automaton:
    """A random member of the control-equivalence class of ``s``: the
    quotient of the finest supervisor by a randomly grown control
    congruence.  Deterministic for a given 64-bit seed."""
    sup = build_super(g, s)
    data = control_data(g, sup)
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    n = sup.n
    codes = array("Q")  # pair (i, j), i < j, as code i * n + j: 8 bytes, not a tuple
    for i in range(n):
        codes.extend(range(i * n + i + 1, i * n + n))
    rng.shuffle(codes)
    attempts = rng.randint(0, len(codes))
    cover, _ = _congruence_from_merges(sup, data, (divmod(c, n) for c in codes[:attempts]))
    quotient, _ = induce_quotient(sup, data, cover, name=f"{s.name}-equiv-{seed}")
    return quotient


# ---------------------------------------------------------------------------
# Exact minimum search


def _greedy_incompatible_states(masks: Sequence[int]) -> list[int]:
    """Greedily grown set of pairwise-incompatible states."""
    n = len(masks)
    order = sorted(range(n), key=lambda i: bin(masks[i]).count("1"), reverse=True)
    clique: list[int] = []
    for i in order:
        if all(masks[i] >> j & 1 for j in clique):
            clique.append(i)
    return clique


def _greedy_incompatible_clique(masks: Sequence[int]) -> int:
    """Greedy lower bound: a set of pairwise-incompatible states can never
    share cells, so its size bounds every cover from below."""
    return max(1, len(_greedy_incompatible_states(masks)))


class _ExactSearch:
    def __init__(self, s: Automaton, data: ControlData):
        self.s = s
        self.n = s.n
        self.masks = data.incompatibility_masks()
        self.succ = [s.out(q) for q in range(s.n)]
        self.steps = 0

    # -- partitions ---------------------------------------------------

    def find_partition(self, k: int) -> Optional[list[set[int]]]:
        cells: list[set[int]] = []
        cell_masks: list[int] = []
        assign = [-1] * self.n

        def closure_ok() -> bool:
            for cell in cells:
                for e in range(len(self.s.alphabet)):
                    target_cell = -1
                    for z in cell:
                        t = self.s.step(z, e)
                        if t is None:
                            continue
                        if target_cell == -1:
                            target_cell = assign[t]
                        elif assign[t] != target_cell:
                            return False
            return True

        def placement_ok(q: int, c: int) -> bool:
            # co-celled states push their successors into one cell, so a
            # successor pair must at least be compatible; assigned pairs
            # must already agree
            for m in cells[c]:
                for e, t in self.succ[q]:
                    tm = self.s.step(m, e)
                    if tm is None:
                        continue
                    if self.masks[t] >> tm & 1:
                        return False
                    if assign[t] != -1 and assign[tm] != -1 and assign[t] != assign[tm]:
                        return False
            return True

        def dfs(q: int) -> bool:
            self.steps += 1
            if q == self.n:
                return closure_ok()
            bit = 1 << q
            for c in range(len(cells)):
                if cell_masks[c] & bit or not placement_ok(q, c):
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
        """All compatibility cliques (as bitmasks) whose minimum member is
        ``m`` and whose per-event target sets stay pairwise compatible (a
        cell whose targets conflict can never satisfy the closure
        condition).  Largest cells first."""
        n_events = len(self.s.alphabet)
        out: list[int] = []
        candidates = [z for z in range(m + 1, self.n) if not self.masks[m] >> z & 1]

        def grow(cell: int, incompat: int, tinc: list[int], rest: list[int]) -> None:
            out.append(cell)
            for i, z in enumerate(rest):
                if incompat >> z & 1:
                    continue
                conflict = False
                for e, t in self.succ[z]:
                    if tinc[e] >> t & 1:
                        conflict = True
                        break
                if conflict:
                    continue
                tinc2 = tinc.copy()
                for e, t in self.succ[z]:
                    tinc2[e] |= self.masks[t]
                grow(cell | 1 << z, incompat | self.masks[z], tinc2, rest[i + 1:])

        tinc0 = [0] * n_events
        for e, t in self.succ[m]:
            tinc0[e] |= self.masks[t]
        grow(1 << m, self.masks[m], tinc0, candidates)
        out.sort(key=lambda c: -bin(c).count("1"))
        return out

    def find_cover(self, k: int) -> Optional[list[set[int]]]:
        """Search directly over cell families: cells are chosen in a
        canonical order of strictly increasing (minimum member, bitmask)
        keys, which kills permutation symmetry and yields two strong
        prunes — a state below the next allowed minimum can never be
        covered later, and a pending target set reaching below it can
        never be received later."""
        n_events = len(self.s.alphabet)
        full = (1 << self.n) - 1
        by_min = [self._candidate_cells(m) for m in range(self.n)]
        max_cell = max((bin(c).count("1") for row in by_min for c in row), default=1)
        # pairwise-incompatible states can never share any cell, so the
        # uncovered ones each consume a future cell of their own
        clique_mask = 0
        for z in _greedy_incompatible_states(self.masks):
            clique_mask |= 1 << z
        targets_of: dict[int, tuple[int, ...]] = {}
        receiver_mins: dict[int, int] = {}

        def cell_targets(cell: int) -> tuple[int, ...]:
            cached = targets_of.get(cell)
            if cached is None:
                rows = [0] * n_events
                c = cell
                while c:
                    z = (c & -c).bit_length() - 1
                    c &= c - 1
                    for e, t in self.succ[z]:
                        rows[e] |= 1 << t
                targets_of[cell] = cached = tuple(rows)
            return cached

        def receiver_min_mask(tb: int) -> int:
            """Bitmask of min-member values owning a candidate cell that
            contains the target set."""
            cached = receiver_mins.get(tb)
            if cached is None:
                cached = 0
                limit = (tb & -tb).bit_length() - 1
                for m in range(limit + 1):
                    if any(tb & ~cell == 0 for cell in by_min[m]):
                        cached |= 1 << m
                receiver_mins[tb] = cached
            return cached

        chosen: list[int] = []

        def dfs(last_min: int, last_cell: int, covered: int) -> bool:
            self.steps += 1
            pending = []
            for cell in chosen:
                for tb in cell_targets(cell):
                    if tb and not any(tb & ~held == 0 for held in chosen):
                        pending.append(tb)
            if len(chosen) == k:
                return covered == full and not pending
            # future cells have min member >= last_min: a pending target
            # set must still have a candidate receiver at or above it, and
            # no uncovered state may lie below it
            for tb in pending:
                if receiver_min_mask(tb) >> last_min == 0:
                    return False
            uncovered = full & ~covered
            remaining = k - len(chosen)
            if bin(uncovered).count("1") > remaining * max_cell:
                return False
            if bin(uncovered & clique_mask).count("1") > remaining:
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
                    if dfs(m, cell, covered | cell):
                        return True
                    chosen.pop()
            return False

        if dfs(0, 0, 0):
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
    possibly overlapping covers, which can be strictly smaller).  Refuses
    supervisors larger than ``cap_states``: the underlying minimisation
    problem is NP-hard and blowup should be explicit, not silent.
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
    lower = _greedy_incompatible_clique(search.masks)
    for k in range(lower, s.n + 1):
        cells = search.find_partition(k)
        if cells is None and mode == "cover":
            cells = search.find_cover(k)
        if cells is not None:
            cover = Cover.from_cells(cells)
            quotient, _ = induce_quotient(s, data, cover, name=f"{s.name}-min")
            report = ReductionReport(s.n, quotient.n, cover, search.steps, f"exact-{mode}")
            return quotient, report
    raise AssertionError("singleton cover is always valid")  # pragma: no cover

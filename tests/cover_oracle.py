"""Reference minimum-cover searches without the conflict-family bound,
kept as differential oracles.

``_ExactSearch.find_partition`` is the partition search ``supred.reduction``
ran before it checked each transition when the later of its two ends is
placed: it checks successor agreement only on full assignments.
``_ExactSearch.find_cover`` is the successor-closed exact search
``supred.reduction`` ran before ``find_cover`` carried its pending target
sets down the recursion: each node here tests every target set of every
chosen cell against every chosen cell.  ``_CarriedSearch.find_cover`` is
the search that carried them, before each node was also bounded by a
greedy family of pairwise-conflicting uncovered states and pending sets;
its own prunes are the first search's, so both visit the same nodes.  The
bodies are unchanged apart from a node budget: the search raises
:class:`NodeBudgetExceeded` once it has visited more than ``budget``
nodes, so tests can skip the instances it cannot finish.
``tests/test_exact_oracle.py`` checks that the two searches return the
same covers, sizes and node counts, and that the library returns the same
partitions and covers in at most as many nodes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from supred.automata import Automaton
from supred.errors import SearchCapError
from supred.reduction import Cover, ReductionReport, induce_quotient
from supred.supervision import ControlData, closed_incompatibility

from tests.exact_oracle import NodeBudgetExceeded


def _greedy_incompatible_states(masks: Sequence[int]) -> list[int]:
    """Greedily grown set of pairwise-incompatible states."""
    n = len(masks)
    order = sorted(range(n), key=lambda i: bin(masks[i]).count("1"), reverse=True)
    clique: list[int] = []
    for i in order:
        if all(masks[i] >> j & 1 for j in clique):
            clique.append(i)
    return clique


class _ExactSearch:
    def __init__(self, s: Automaton, data: ControlData, budget: int):
        self.s = s
        self.budget = budget
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
        every leaf below a bad one fails."""
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
            if self.steps > self.budget:
                raise NodeBudgetExceeded
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
        out.sort(key=lambda c: -bin(c).count("1"))
        return out

    def find_cover(self, k: int) -> Optional[list[set[int]]]:
        """Search directly over cell families: cells are chosen in a
        canonical order of strictly increasing (minimum member, bitmask)
        keys, which kills permutation symmetry and yields two strong
        prunes — a state below the next allowed minimum can never be
        covered later, and a pending target set reaching below it can
        never be received later.  A pending target set is itself a
        candidate cell, so its own minimum is the highest minimum any
        receiver can have."""
        n_events = len(self.s.alphabet)
        full = (1 << self.n) - 1
        # Built per call, not kept across k or built in __init__: find_cover
        # runs at most once per search on the 120 exact_small instances and
        # on 197 of 199 seeded loose ones, and building eagerly raised the
        # exact_small call_p90_s from 1.0-1.2 ms to 1.5-1.6 ms.
        by_min = [self._candidate_cells(m) for m in range(self.n)]
        max_cell = max((bin(c).count("1") for row in by_min for c in row), default=1)
        clique_mask = sum(1 << z for z in self.clique)
        targets_of: dict[int, tuple[int, ...]] = {}

        def cell_targets(cell: int) -> tuple[int, ...]:
            cached = targets_of.get(cell)
            if cached is None:
                rows = [0] * n_events
                c = cell
                while c:
                    z = (c & -c).bit_length() - 1
                    c &= c - 1
                    for e, t in self.s.out_rows[z]:
                        rows[e] |= 1 << t
                targets_of[cell] = cached = tuple(rows)
            return cached

        chosen: list[int] = []

        def dfs(last_min: int, last_cell: int, covered: int) -> bool:
            self.steps += 1
            if self.steps > self.budget:
                raise NodeBudgetExceeded
            pending = []
            for cell in chosen:
                for tb in cell_targets(cell):
                    if tb and not any(tb & ~held == 0 for held in chosen):
                        pending.append(tb)
            if len(chosen) == k:
                return covered == full and not pending
            # future cells have min member >= last_min: no pending target
            # set and no uncovered state may lie below it
            if any(tb & ((1 << last_min) - 1) for tb in pending):
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


class _CarriedSearch(_ExactSearch):
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
            if self.steps > self.budget:
                raise NodeBudgetExceeded
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


def reduce_exact_core(
    s: Automaton, data: ControlData, mode: str, cap_states: int, budget: int,
    carried: bool = False,
) -> tuple[Automaton, ReductionReport]:
    """:func:`reduce_exact_minimum` on precomputed control data, without the
    feasibility gate (the state cap still applies), so that supervisors
    tracking unobservable events across states reduce too, as
    :func:`~supred.ordering.compare_full_vs_partial` needs.  ``carried``
    picks the search that carries its pending target sets."""
    if s.n > cap_states:
        raise SearchCapError(s.n, cap_states)
    search = (_CarriedSearch if carried else _ExactSearch)(s, data, budget)
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

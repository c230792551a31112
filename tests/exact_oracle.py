"""Reference exact minimum-cover search, kept as a differential oracle.

This is the search ``supred.reduction`` ran on the base incompatibility
masks before they were closed under successors.  It looks one step ahead
in three places instead: candidate cells keep per-event target
incompatibility lists, partition placement checks each successor pair, and
the cover search asks for every pending target set which minimum members
own a cell that could receive it.  The bodies are unchanged apart from a
node budget: the search raises :class:`NodeBudgetExceeded` once it has
visited more than ``budget`` nodes, so tests can skip the instances it
cannot finish.  ``tests/test_exact_oracle.py`` checks that the library
returns the same covers and sizes.
"""

from __future__ import annotations

from typing import Optional, Sequence

from supred.automata import Automaton
from supred.errors import SearchCapError
from supred.reduction import Cover, ReductionReport, induce_quotient
from supred.supervision import ControlData


class NodeBudgetExceeded(Exception):
    """The search visited more nodes than its budget allows."""


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
    def __init__(self, s: Automaton, data: ControlData, budget: int):
        self.s = s
        self.budget = budget
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
            if self.steps > self.budget:
                raise NodeBudgetExceeded
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
            if self.steps > self.budget:
                raise NodeBudgetExceeded
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


def reduce_exact_core(
    s: Automaton, data: ControlData, mode: str, cap_states: int, budget: int
) -> tuple[Automaton, ReductionReport]:
    """:func:`reduce_exact_minimum` on precomputed control data, without the
    feasibility gate (the state cap still applies), so that supervisors
    tracking unobservable events across states reduce too, as
    :func:`~supred.ordering.compare_full_vs_partial` needs."""
    if s.n > cap_states:
        raise SearchCapError(s.n, cap_states)
    search = _ExactSearch(s, data, budget)
    lower = _greedy_incompatible_clique(search.masks)
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

"""Reference merge heuristic and quotient construction, kept as a
differential oracle.

This is the pairwise merger that ``supred.reduction`` used before its
union-find rewrite: every union compares all member pairs of the two cells,
rescans every member's successors for every event, and copies the whole
partition before each attempt so a failed one can be rolled back.  The
cover check and quotient below scan every cell for each (cell, event)
target set and test compatibility pair by pair.  They are slow but plainly
correct, and ``tests/test_merge_oracle.py`` checks that the library returns
the same covers, verdicts and quotients.  ``generate_equivalent_supervisor``
is the unchanged version that shuffled a list of all n(n-1)/2 pair tuples;
it calls the library's merger and quotient, as it did.

``compatibility_table`` is the compatibility relation decided pair by
pair with ``compatible``, the table the reference merger reads;
``tests/test_supervision.py`` and ``tests/test_merge_oracle.py`` check the
library's incompatibility masks against it.

``closed_incompatibility`` is the implication chart as rounds of
``successor_incompatibility`` run until the masks stop changing, and
``sweep`` is the library's mask-driven sweep before it closed the chart
over its cells at its first refused attempt; ``tests/test_merge_oracle.py``
checks that the library closes to the same masks, and sweeps to the same
cover in no more unions.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from supred.automata import Automaton
from supred.reduction import Cover, build_super, induce_quotient
from supred.reduction import _congruence_from_merges as _library_congruence
from supred.supervision import (
    ControlData,
    compatible,
    control_data,
    successor_incompatibility,
)


def compatibility_table(data: ControlData) -> tuple[tuple[bool, ...], ...]:
    """Entry ``[i][j]`` is ``compatible(data, i, j)``, for every ordered
    pair of supervisor states."""
    n = data.supervisor.n
    return tuple(tuple(compatible(data, i, j) for j in range(n)) for i in range(n))


def table_of_masks(masks: Sequence[int]) -> tuple[tuple[bool, ...], ...]:
    """Incompatibility masks as a :func:`compatibility_table`: entry
    ``[i][j]`` is True when bit ``j`` of ``masks[i]`` is clear."""
    return tuple(tuple(not mask >> j & 1 for j in range(len(masks))) for mask in masks)


class _MergePartition:
    """Scratch partition supporting tentative cell merges with rollback.

    A merge of two cells propagates: states sharing a cell force their
    event successors into a common cell.  An attempt aborts when a cell
    would acquire an incompatible state pair.
    """

    def __init__(self, s: Automaton, table: tuple[tuple[bool, ...], ...]):
        self.s = s
        self.rel = table
        self.parent = list(range(s.n))
        self.members: dict[int, list[int]] = {q: [q] for q in range(s.n)}
        self.steps = 0

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            x = p[x]
        return x

    def try_merge(self, i: int, j: int) -> bool:
        ri, rj = self.find(i), self.find(j)
        if ri == rj:
            return True
        if not self.rel[i][j]:
            self.steps += 1
            return False
        parent_backup = self.parent.copy()
        members_backup = {r: m.copy() for r, m in self.members.items()}
        if self._merge_with_closure(ri, rj):
            return True
        self.parent = parent_backup
        self.members = members_backup
        return False

    def _merge_with_closure(self, ri: int, rj: int) -> bool:
        worklist = [(ri, rj)]
        while worklist:
            a, b = worklist.pop()
            a, b = self.find(a), self.find(b)
            if a == b:
                continue
            ma, mb = self.members[a], self.members[b]
            for x in ma:
                rx = self.rel[x]
                for y in mb:
                    self.steps += 1
                    if not rx[y]:
                        return False
            if len(ma) < len(mb):
                a, b, ma, mb = b, a, mb, ma
            self.parent[b] = a
            merged = ma + mb
            self.members[a] = merged
            del self.members[b]
            # successors of co-celled states must be co-celled
            s = self.s
            for e in range(len(s.alphabet)):
                root: Optional[int] = None
                for z in merged:
                    t = s.step(z, e)
                    if t is None:
                        continue
                    rt = self.find(t)
                    if root is None:
                        root = rt
                    elif rt != root:
                        worklist.append((root, rt))
                        self.steps += 1
        return True

    def cover(self) -> Cover:
        return Cover.from_cells(self.members.values())


def _congruence_from_merges(
    s: Automaton,
    data: ControlData,
    pair_order: Iterable[tuple[int, int]],
) -> tuple[Cover, int]:
    scratch = _MergePartition(s, compatibility_table(data))
    for i, j in pair_order:
        scratch.try_merge(i, j)
    return scratch.cover(), scratch.steps


def validate_cover_by_scan(
    s: Automaton, data: ControlData, c: Cover
) -> tuple[bool, Optional[tuple]]:
    """The two control-cover conditions on a structurally sound cover,
    with the first violation in cell, member and event order."""
    for i, cell in enumerate(c.cells):
        members = sorted(cell)
        for a_idx, z1 in enumerate(members):
            for z2 in members[a_idx + 1:]:
                if not compatible(data, z1, z2):
                    return False, ("pair", i, (s.states[z1], s.states[z2]))
    for i, cell in enumerate(c.cells):
        for e in range(len(s.alphabet)):
            targets = {s.step(z, e) for z in cell}
            targets.discard(None)
            if not targets:
                continue
            if not any(targets <= other for other in c.cells):
                return False, ("event", i, s.alphabet.name(e))
    return True, None


def induce_quotient_by_scan(
    s: Automaton, data: ControlData, c: Cover, name: str
) -> Automaton:
    """Quotient over a valid cover: the lowest valid target cell wins,
    except that an unobservable selfloop stays a selfloop."""
    ok, violation = validate_cover_by_scan(s, data, c)
    assert ok, violation
    cells = c.cells
    unobs = frozenset(e for e, ev in enumerate(s.alphabet) if not ev.observable)
    trans: dict[tuple[int, int], int] = {}
    for i, cell in enumerate(cells):
        for e in range(len(s.alphabet)):
            targets = {s.step(z, e) for z in cell}
            targets.discard(None)
            if not targets:
                continue
            valid = [j for j, other in enumerate(cells) if targets <= other]
            trans[(i, e)] = i if e in unobs and i in valid else valid[0]
    initial = c.cell_of(s.initial)
    marked = [i for i, cell in enumerate(cells) if any(data.marked_s[z] for z in cell)]
    names = ["+".join(sorted(s.states[z] for z in cell)) for cell in cells]
    return Automaton(name, s.alphabet, names, initial, marked, trans)


def generate_equivalent_supervisor(g: Automaton, s: Automaton, seed: int) -> Automaton:
    sup = build_super(g, s)
    data = control_data(g, sup)
    rng = random.Random(seed & 0xFFFFFFFFFFFFFFFF)
    pairs = [(i, j) for i in range(sup.n) for j in range(i + 1, sup.n)]
    rng.shuffle(pairs)
    attempts = rng.randint(0, len(pairs))
    cover, _ = _library_congruence(sup, data, pairs[:attempts])
    quotient = induce_quotient(sup, data, cover, name=f"{s.name}-equiv-{seed}")
    return quotient


def closed_incompatibility(s: Automaton, masks: Sequence[int]) -> list[int]:
    """Rounds of the one-step implication chart until nothing changes."""
    closed = list(masks)
    while (widened := successor_incompatibility(s, closed)) != closed:
        closed = widened
    return closed


def sweep(partition) -> None:
    """Attempt every pair ``(i, j)``, ``i < j``, in canonical order on a
    library ``_MergePartition``, skipping the pairs its masks settle, and
    never closing the masks under successors."""
    members, incompatible = partition.members, partition.incompatible
    find, try_merge = partition.find, partition.try_merge
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

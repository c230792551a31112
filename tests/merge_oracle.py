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
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

from supred.automata import Automaton
from supred.reduction import Cover, build_super, induce_quotient
from supred.reduction import _congruence_from_merges as _library_congruence
from supred.supervision import ControlData, compatibility_relation, compatible, control_data


class _MergePartition:
    """Scratch partition supporting tentative cell merges with rollback.

    A merge of two cells propagates: states sharing a cell force their
    event successors into a common cell.  An attempt aborts when a cell
    would acquire an incompatible state pair.
    """

    def __init__(self, s: Automaton, rel_matrix: tuple[tuple[bool, ...], ...]):
        self.s = s
        self.rel = rel_matrix
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
    rel = compatibility_relation(data)
    scratch = _MergePartition(s, rel.matrix)
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
    unobs = s.alphabet.unobservable
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

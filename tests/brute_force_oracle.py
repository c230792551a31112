"""Minimum control covers by brute force, from the definition alone.

A control cover of a supervisor is a family of state sets (cells) that
covers every state, puts only pairwise compatible states into one cell
(:func:`~supred.supervision.compatible`, the paper's relation on the
control data), and sends the successors of each cell under each event into
one cell.  Nothing here reads the closed incompatibility masks, the
candidate cells or any search of ``supred.reduction``: partitions are every
set partition of the states into compatible cells, and covers every family
of distinct compatible cells.  Partitions stay cheap up to 8 states
(Bell(8) = 4,140) and covers up to 6 (at most 63 cells).
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator

from supred.automata import Automaton
from supred.supervision import ControlData, compatible


def _compatible_with(s: Automaton, data: ControlData) -> list[int]:
    """Per state, the bitmask of the states compatible with it."""
    return [sum(1 << b for b in range(s.n) if compatible(data, a, b)) for a in range(s.n)]


def _targets(s: Automaton, cell: int) -> list[int]:
    """Per event, the set of successors of the cell's states, where any."""
    m = len(s.alphabet)
    out = []
    for e in range(m):
        tb = 0
        for z in range(s.n):
            t = s.succ[z * m + e] if cell >> z & 1 else -1
            if t >= 0:
                tb |= 1 << t
        if tb:
            out.append(tb)
    return out


def _closed(family, targets) -> bool:
    """Whether some cell of the family holds every target set of each."""
    return all(any(not tb & ~other for other in family)
               for cell in family for tb in targets(cell))


def is_control_cover(s: Automaton, data: ControlData, cells: list[int]) -> bool:
    """Whether the cells, bitmasks over the states of ``s``, form a control
    cover."""
    union = 0
    for cell in cells:
        union |= cell
    compatible_with = _compatible_with(s, data)
    return (union == (1 << s.n) - 1
            and all(not cell & ~compatible_with[z] for cell in cells
                    for z in range(s.n) if cell >> z & 1)
            and _closed(cells, lambda cell: _targets(s, cell)))


def minimum_partition(s: Automaton, data: ControlData) -> int:
    """The fewest cells of a control cover that is a partition, over every
    partition into compatible cells: states placed in index order, each
    into a cell all of whose states it is compatible with, or a new one."""
    assert s.n <= 8, s.n
    compatible_with = _compatible_with(s, data)
    targets: dict[int, list[int]] = {}

    def cell_targets(cell: int) -> list[int]:
        if cell not in targets:
            targets[cell] = _targets(s, cell)
        return targets[cell]

    def partitions(z: int, cells: list[int]) -> Iterator[list[int]]:
        if z == s.n:
            yield cells
            return
        for i, cell in enumerate(cells):
            if not cell & ~compatible_with[z]:
                cells[i] = cell | 1 << z
                yield from partitions(z + 1, cells)
                cells[i] = cell
        cells.append(1 << z)
        yield from partitions(z + 1, cells)
        cells.pop()

    return min(len(cells) for cells in partitions(0, []) if _closed(cells, cell_targets))


def completion_size(s: Automaton, data: ControlData, fixed: list[int]) -> int:
    """The fewest cells of a control cover that holds the distinct cells
    ``fixed``: their number plus the smallest number of further distinct
    compatible cells that completes them.  Raises when no control cover
    holds them."""
    assert s.n <= 6, s.n
    compatible_with = _compatible_with(s, data)
    cells = [cell for cell in range(1, 1 << s.n) if cell not in fixed and all(
        not cell & ~compatible_with[z] for z in range(s.n) if cell >> z & 1)]
    targets = {cell: _targets(s, cell) for cell in [*fixed, *cells]}
    full = (1 << s.n) - 1
    for size in range(len(cells) + 1):
        for extra in combinations(cells, size):
            family = (*fixed, *extra)
            union = 0
            for cell in family:
                union |= cell
            if union == full and _closed(family, targets.__getitem__):
                return len(family)
    raise ValueError("no control cover holds the fixed cells")


def minimum_cover(s: Automaton, data: ControlData) -> int:
    """The fewest cells of any control cover."""
    return completion_size(s, data, [])

"""Supervisor-side analysis: feasibility checks, per-state control data,
the compatibility relation between supervisor states, control equivalence
and normality.

The control data of a supervisor state consists of its enabled event set,
its disabled event set (events with no transition there that the plant can
nevertheless execute after some string reaching the state), and two marking
indicators: whether a marked closed-loop string reaches the state, and
whether a string marked by the plant alone does.  Event sets are bitmasks
over event indices, as :meth:`~supred.automata.Automaton.enabled` returns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .automata import Automaton, check_same_alphabet, language_equivalent, sync_product

__all__ = [
    "ControlData",
    "CompatibilityRelation",
    "check_control_existence",
    "check_control_feasibility",
    "control_data",
    "compatible",
    "compatibility_relation",
    "control_equivalent",
    "is_normal",
    "loop_controllable",
]


@dataclass
class ControlData:
    """Per-state control information of a supervisor against a plant.

    ``enabled[z]`` and ``disabled[z]`` are event-index bitmasks (bit ``e``
    for event ``e``; ``Alphabet.names_of`` lists their names).
    ``reachable_in_loop`` is False for supervisor states never visited by
    the closed loop; such states carry vacuous data (empty disabled set,
    both indicators False) and therefore constrain nothing.
    """

    supervisor: Automaton
    enabled: list[int]
    disabled: list[int]
    marked_s: list[bool]
    marked_g: list[bool]
    reachable_in_loop: list[bool]
    _incompatible: Optional[tuple[int, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def row(self, state: int) -> tuple[int, int, bool, bool]:
        return (self.enabled[state], self.disabled[state],
                self.marked_s[state], self.marked_g[state])

    def incompatibility_masks(self) -> tuple[int, ...]:
        """Per state ``z``, the bitmask of the states incompatible with ``z``.

        Compatibility depends on the row alone, so states are grouped by
        equal rows and :func:`compatible` runs once per pair of rows:
        O(n·k + k²) work for k distinct rows.  Computed on first use and
        kept, so the data must not be edited afterwards.
        """
        if self._incompatible is None:
            by_row: dict[tuple, list[int]] = {}
            for z in range(self.supervisor.n):
                by_row.setdefault(self.row(z), []).append(z)
            groups = list(by_row.values())
            bits = [sum(1 << z for z in group) for group in groups]
            incompatible = [0] * len(groups)
            for a, group_a in enumerate(groups):
                for b in range(a, len(groups)):
                    if not compatible(self, group_a[0], groups[b][0]):
                        incompatible[a] |= bits[b]
                        incompatible[b] |= bits[a]
            masks = [0] * self.supervisor.n
            for group, mask in zip(groups, incompatible):
                for z in group:
                    masks[z] = mask
            self._incompatible = tuple(masks)
        return self._incompatible

    def uncontrollable_disabler(self) -> Optional[int]:
        """The first state whose disabled set holds an uncontrollable
        event, or None when the supervisor is loop controllable."""
        uncontrollable = sum(1 << e for e in self.supervisor.alphabet.uncontrollable)
        for z, disabled in enumerate(self.disabled):
            if disabled & uncontrollable:
                return z
        return None


@dataclass
class CompatibilityRelation:
    """Symmetric, reflexive (and in general non-transitive) relation
    recording which supervisor state pairs may share a cover cell.

    ``masks[z]`` has bit ``z'`` set when ``z`` and ``z'`` are incompatible;
    ``matrix`` is the same relation as a boolean table, built on first use.
    """

    states: tuple[str, ...]
    masks: tuple[int, ...] = field(repr=False)

    def holds(self, z1: int, z2: int) -> bool:
        n = len(self.states)
        if not (0 <= z1 < n and 0 <= z2 < n):
            raise IndexError(f"state index pair ({z1}, {z2}) out of range")
        return not self.masks[z1] >> z2 & 1

    @cached_property
    def matrix(self) -> tuple[tuple[bool, ...], ...]:
        n = len(self.states)
        return tuple(tuple(bit == "0" for bit in reversed(format(m, f"0{n}b")))
                     for m in self.masks)

    def pairs(self) -> set[tuple[int, int]]:
        n = len(self.states)
        return {(i, j) for i in range(n) for j in range(n) if self.holds(i, j)}


def check_control_existence(s: Automaton) -> tuple[bool, Optional[str]]:
    """True iff every state enables all uncontrollable events, i.e. every
    enabled set is a control pattern.  Returns a violating state otherwise."""
    required = sum(1 << e for e in s.alphabet.uncontrollable)
    for q in range(s.n):
        if required & ~s.enabled(q):
            return False, s.states[q]
    return True, None


def check_control_feasibility(
    s: Automaton,
) -> tuple[bool, Optional[tuple[str, str, str]]]:
    """True iff every unobservable transition is a selfloop.

    For a deterministic automaton this structural condition is equivalent
    to issuing one control action per observation class.  The witness is a
    violating transition ``(state, event, target)``.
    """
    unobs = s.alphabet.unobservable
    for (q, e), t in sorted(s.trans.items()):
        if e in unobs and t != q:
            return False, (s.states[q], s.alphabet.name(e), s.states[t])
    return True, None


def control_data(g: Automaton, s: Automaton) -> ControlData:
    """Extract the four control-data functions of ``s`` against plant ``g``.

    The enabled sets are structural; the disabled sets and both marking
    indicators come from a walk of the reachable part of the closed loop,
    inspecting the plant component of every visited product state.
    """
    check_same_alphabet(g, s)
    enabled = [s.enabled(q) for q in range(s.n)]
    disabled = [0] * s.n
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
        disabled[z] |= g.enabled(x) & ~enabled[z]
        for e, xt in g.out(x):
            if enabled[z] >> e & 1:
                nxt = (xt, s.trans[(z, e)])
                if nxt not in seen:
                    seen.add(nxt)
                    queue.append(nxt)
    return ControlData(
        supervisor=s,
        enabled=enabled,
        disabled=disabled,
        marked_s=marked_s,
        marked_g=marked_g,
        reachable_in_loop=visited_loop,
    )


def compatible(data: ControlData, z1: int, z2: int) -> bool:
    """Two states are compatible when no event enabled at one is disabled at
    the other, and their marking indicators agree whenever both states are
    reachable by plant-marked strings (or both are not)."""
    n = data.supervisor.n
    if not (0 <= z1 < n and 0 <= z2 < n):
        raise ValueError(f"unknown state index {z1 if not 0 <= z1 < n else z2}")
    if data.enabled[z1] & data.disabled[z2]:
        return False
    if data.enabled[z2] & data.disabled[z1]:
        return False
    if data.marked_g[z1] == data.marked_g[z2] and data.marked_s[z1] != data.marked_s[z2]:
        return False
    return True


def compatibility_relation(data: ControlData) -> CompatibilityRelation:
    return CompatibilityRelation(data.supervisor.states, data.incompatibility_masks())


def control_equivalent(
    g: Automaton, s1: Automaton, s2: Automaton
) -> tuple[bool, Optional[list[str]]]:
    """Whether two supervisors induce the same closed and marked closed-loop
    languages with the plant.  The counterexample, when present, is a
    shortest string separating the two closed loops."""
    return language_equivalent(sync_product(g, s1), sync_product(g, s2))


def loop_controllable(g: Automaton, s: Automaton) -> tuple[bool, Optional[str]]:
    """True iff ``s`` never disables an uncontrollable event the plant can
    execute, i.e. every disabled set avoids the uncontrollable events.

    This is the closed-loop reading of the control-existence requirement:
    it ignores uncontrollable events the plant itself rules out.
    """
    z = control_data(g, s).uncontrollable_disabler()
    if z is not None:
        return False, s.states[z]
    return True, None


def is_normal(
    g: Automaton, s: Automaton, sp: Automaton
) -> tuple[bool, Optional[tuple]]:
    """Check that ``sp`` carries no unexercised structure relative to the
    closed loop of ``(g, s)``: every transition of ``sp`` is taken by some
    closed-loop string routed through it, and every marked state of ``sp``
    is reached by some marked closed-loop string.

    The witness names the first unexercised transition
    ``("transition", state, event)`` or unreached marked state
    ``("marked", state)``.
    """
    loop = sync_product(g, s)
    check_same_alphabet(g, sp)
    exercised = [0] * sp.n  # per sp state, the events taken there
    marked_hit: set[int] = set()
    start = (loop.initial, sp.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        p, y = queue.popleft()
        if p in loop.marked and y in sp.marked:
            marked_hit.add(y)
        for e, pt in loop.out(p):
            yt = sp.step(y, e)
            if yt is None:
                continue
            exercised[y] |= 1 << e
            nxt = (pt, yt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    for y in range(sp.n):
        unexercised = sp.enabled(y) & ~exercised[y]
        if unexercised:
            e = (unexercised & -unexercised).bit_length() - 1
            return False, ("transition", sp.states[y], sp.alphabet.name(e))
    for y in sorted(sp.marked):
        if y not in marked_hit:
            return False, ("marked", sp.states[y])
    return True, None

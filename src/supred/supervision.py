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

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Optional, Sequence

from .automata import Automaton, Lockstep, check_same_alphabet, control_equivalent

__all__ = [
    "ControlData",
    "CompatibilityRelation",
    "check_control_existence",
    "check_control_feasibility",
    "closed_incompatibility",
    "closed_loop_pairs",
    "control_data",
    "control_data_from_pairs",
    "compatible",
    "compatibility_relation",
    "control_equivalent",
    "is_normal",
    "loop_controllable",
    "successor_incompatibility",
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
    moving = [(q, e, t) for (q, e), t in s.trans.items() if e in unobs and t != q]
    if moving:
        q, e, t = min(moving)
        return False, (s.states[q], s.alphabet.name(e), s.states[t])
    return True, None


def closed_loop_pairs(g: Automaton, s: Automaton) -> tuple[list[int], list[int]]:
    """The reachable pairs of plant and supervisor states of ``g||s``, as
    two parallel lists: pair ``i`` is ``(xs[i], zs[i])``.  They come in the
    order of the states of :func:`~supred.automata.sync_product`
    (breadth first, events in alphabet order), but no product automaton is
    built."""
    # Its own pair walk, not Lockstep(g, s, s): over the 16 bench reduce
    # supervisors, walk and accumulation take 19 ms against 32 ms when
    # control_data_from_pairs reads Lockstep's triples (best of 15, 2-vCPU VM).
    check_same_alphabet(g, s)
    m, ns = len(s.alphabet), s.n
    succ = s.succ
    # a pair is seen as the int x * ns + z; xs and zs double as the queue
    seen = {g.initial * ns + s.initial}
    xs, zs = [g.initial], [s.initial]
    for x, z in zip(xs, zs):
        base = z * m
        for e, xt in g.out(x):
            zt = succ[base + e]
            if zt >= 0:
                code = xt * ns + zt
                if code not in seen:
                    seen.add(code)
                    xs.append(xt)
                    zs.append(zt)
    return xs, zs


def control_data(g: Automaton, s: Automaton) -> ControlData:
    """Extract the four control-data functions of ``s`` against plant ``g``.

    The enabled sets are structural; the disabled sets and both marking
    indicators are read by :func:`control_data_from_pairs` off the pairs of
    plant and supervisor states :func:`closed_loop_pairs` visits.
    """
    return control_data_from_pairs(g, s, zip(*closed_loop_pairs(g, s)))


def control_data_from_pairs(
    g: Automaton, s: Automaton, pairs: Iterable[tuple[int, int]]
) -> ControlData:
    """The control data of ``s`` read off closed-loop pairs ``(x, z)`` of
    plant and supervisor states: ``pairs`` must hold every reachable pair of
    ``g||s`` and no other, each at least once.  A state's disabled set is
    what the plant offers at its pairs and it does not enable; its marking
    indicators say whether a plant-marked pair holds it, and whether ``s``
    marks it too."""
    n = s.n
    g_enabled = [g.enabled(x) for x in range(g.n)]
    g_marked = g.marked
    offered = [0] * n
    marked_g = [False] * n
    visited = [False] * n
    for x, z in pairs:
        visited[z] = True
        offered[z] |= g_enabled[x]
        if x in g_marked:
            marked_g[z] = True
    enabled = [s.enabled(z) for z in range(n)]
    return ControlData(
        supervisor=s,
        enabled=enabled,
        disabled=[o & ~e for o, e in zip(offered, enabled)],
        marked_s=[hit and z in s.marked for z, hit in enumerate(marked_g)],
        marked_g=marked_g,
        reachable_in_loop=visited,
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


def successor_incompatibility(s: Automaton, masks: Sequence[int]) -> list[int]:
    """One round of the implication chart: the symmetric incompatibility
    masks ``masks`` of the states of ``s``, plus every pair that some event
    defined at both states takes to a pair incompatible under ``masks``.

    A cell holding such a pair would force the conflicting successors into
    one cell, so every added bit is sound.  Under symmetry, states with
    equal masks have equal columns too, so each mask is a union of groups
    of equal-mask states: the states whose ``e``-successor is incompatible
    with a target ``t`` are found per (event, group of ``t``), combined
    from ``into[e][group]``, the sources whose ``e``-successor lies in each
    group.  :func:`closed_incompatibility` runs these rounds to a fixpoint.
    """
    group_of_mask: dict[int, int] = {}
    group: list[int] = []
    rep: list[int] = []  # one member per group
    for z, mask in enumerate(masks):
        g = group_of_mask.get(mask)
        if g is None:
            g = group_of_mask[mask] = len(rep)
            rep.append(z)
        group.append(g)
    into = [[0] * len(rep) for _ in range(len(s.alphabet))]
    for (q, e), t in s.trans.items():
        into[e][group[t]] |= 1 << q
    # per group, the groups its mask holds
    conflicts = [[g for g, z in enumerate(rep) if mask >> z & 1] for mask in group_of_mask]
    # per event and target group, the sources whose successor conflicts.
    # Combining only the (event, target group) pairs the transitions use,
    # memoised per pair, was measured slower: 0.42 -> 0.55 ms per call on
    # the 13 bench random supervisors, 0.35 -> 0.51 ms on the 3 inflated
    # ones, unchanged on the small exact ones (2-vCPU VM, interleaved runs).
    sources = []
    for row in into:
        per_group = []
        for conflict in conflicts:
            hits = 0
            for g in conflict:
                hits |= row[g]
            per_group.append(hits)
        sources.append(per_group)
    widened = list(masks)
    for p in range(s.n):
        for e, t in s.out(p):
            widened[p] |= sources[e][group[t]]
    return widened


def closed_incompatibility(s: Automaton, masks: Sequence[int]) -> list[int]:
    """Close symmetric incompatibility masks of the states of ``s`` under
    successors (Paull and Unger's implication chart): a pair becomes
    incompatible when some event defined at both states takes it to an
    incompatible pair, until nothing changes.  A cover cell holding both
    states would force their successors into one cell, so no control cover
    has a cell holding a pair the closure adds.  It is rounds of
    :func:`successor_incompatibility` run to a fixpoint; the merge
    heuristic keeps one round: on the bench's 100-300-state supervisors the
    fixpoint took 14-119 ms against a 0.3-11 ms merge sweep (2-vCPU VM)."""
    closed = list(masks)
    while (widened := successor_incompatibility(s, closed)) != closed:
        closed = widened
    return closed


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

    The check scans the triples of plant, ``s`` and ``sp`` that
    :class:`~supred.automata.Lockstep` reaches; no closed loop is built
    and no string is read.
    The witness names the first unexercised transition
    ``("transition", state, event)`` or unreached marked state
    ``("marked", state)``.
    """
    walk = Lockstep(g, s, sp).run()
    # per g and s state, its events over its marking bit; per sp state, what they share
    gm, sm = ([a.enabled(q) << 1 | (q in a.marked) for q in range(a.n)] for a in (g, s))
    exercised = [0] * sp.n
    for x, z, y in zip(walk.xs, walk.qas, walk.qbs):
        exercised[y] |= gm[x] & sm[z]
    for y in range(sp.n):
        unexercised = sp.enabled(y) & ~(exercised[y] >> 1)
        if unexercised:
            e = (unexercised & -unexercised).bit_length() - 1
            return False, ("transition", sp.states[y], sp.alphabet.name(e))
    for y in sorted(sp.marked):
        if not exercised[y] & 1:
            return False, ("marked", sp.states[y])
    return True, None

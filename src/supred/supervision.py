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
from typing import Optional, Sequence

from .automata import Automaton, Lockstep, closed_loop_pairs, control_equivalent

__all__ = [
    "ControlData",
    "check_control_existence",
    "check_control_feasibility",
    "close_compatible_rows",
    "closed_incompatibility",
    "closed_loop_pairs",
    "control_data",
    "control_data_from_sets",
    "compatible",
    "control_equivalent",
    "is_normal",
    "loop_controllable",
    "normal_in",
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

    def incompatibility_masks(self) -> tuple[int, ...]:
        """The compatibility relation: per state ``z``, the bitmask of the
        states incompatible with ``z``.  The relation is reflexive and
        symmetric, in general not transitive; states may share a cover
        cell only when pairwise compatible (:func:`compatible`).

        Compatibility depends on the row alone, so states are grouped by
        equal rows and :func:`compatible` runs once per pair of rows:
        O(n·k + k²) work for k distinct rows.  Computed on first use and
        kept, so the data must not be edited afterwards.
        """
        if self._incompatible is None:
            by_row: dict[tuple, list[int]] = {}
            rows = zip(self.enabled, self.disabled, self.marked_s, self.marked_g)
            for z, row in enumerate(rows):
                by_row.setdefault(row, []).append(z)
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
        uncontrollable = self.supervisor.alphabet.uncontrollable_mask
        for z, disabled in enumerate(self.disabled):
            if disabled & uncontrollable:
                return z
        return None


def check_control_existence(s: Automaton) -> tuple[bool, Optional[str]]:
    """True iff every state enables all uncontrollable events, i.e. every
    enabled set is a control pattern.  Returns a violating state otherwise."""
    required = s.alphabet.uncontrollable_mask
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
    m, succ, unobs = len(s.alphabet), s.succ, s.alphabet.unobservable_mask
    moving = [(q, e, t) for e in range(m) if unobs >> e & 1
              for q, t in enumerate(succ[e::m]) if t >= 0 and t != q]
    if moving:
        q, e, t = min(moving)
        return False, (s.states[q], s.alphabet.name(e), s.states[t])
    return True, None


def control_data(g: Automaton, s: Automaton) -> ControlData:
    """Extract the four control-data functions of ``s`` against plant ``g``.

    The enabled sets are structural; the disabled sets and both marking
    indicators are read by :func:`control_data_from_sets` off the plant
    states :func:`closed_loop_pairs` pairs with each supervisor state.
    """
    return control_data_from_sets(g, s, closed_loop_pairs(g, s)[2])


def control_data_from_sets(g: Automaton, s: Automaton, sets: Sequence[int]) -> ControlData:
    """The control data of ``s`` read off ``sets``, per state ``z`` of
    ``s`` the bitmask of the plant states the closed loop ``g||s`` pairs
    with it (0 where it never visits ``z``).  A state's disabled set is
    what the plant offers at those states and it does not enable; its
    marking indicators say whether a plant-marked state is among them, and
    whether ``s`` marks it too.  This is the one builder of
    :class:`ControlData`; each distinct set is folded once."""
    g_marked = sum(1 << x for x in g.marked)
    s_marked = s.marked
    enabled = [s.enabled(z) for z in range(s.n)]
    marked_g = [bool(states & g_marked) for states in sets]
    return ControlData(
        supervisor=s,
        enabled=enabled,
        disabled=[g.enabled_in(states) & ~en for states, en in zip(sets, enabled)],
        marked_s=[hit and z in s_marked for z, hit in enumerate(marked_g)],
        marked_g=marked_g,
        reachable_in_loop=[states != 0 for states in sets],
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
    group.  The merge heuristic and the equivalent-supervisor draw start
    from this round; :func:`closed_incompatibility` closes the chart
    without it.
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
    m, succ = len(s.alphabet), s.succ
    into = [[0] * len(rep) for _ in range(m)]
    for e, row in enumerate(into):
        for q, t in enumerate(succ[e::m]):
            if t >= 0:
                row[group[t]] |= 1 << q
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
    for e, per_group in enumerate(sources):
        for p, t in enumerate(succ[e::m]):
            if t >= 0:
                widened[p] |= per_group[group[t]]
    return widened


def closed_incompatibility(s: Automaton, masks: Sequence[int]) -> list[int]:
    """Close symmetric incompatibility masks of the states of ``s`` under
    successors (Paull and Unger's implication chart): a pair becomes
    incompatible when some event defined at both states takes it to an
    incompatible pair, until nothing changes.  A cover cell holding both
    states would force their successors into one cell, so no control cover
    has a cell holding a pair the closure adds.

    :func:`close_compatible_rows` on the rows ``masks`` leave compatible.
    A round of :func:`successor_incompatibility` first reaches the same
    fixpoint sooner on large supervisors (8.1 against 10.4 ms for the
    bench's 13 random 100-300-state ones, 5.3 against 5.9 ms on an
    800-state inflated one) and later on small ones (2.9 against 1.9 ms
    for the 120 ``exact_small`` ones; best of 7, 2-vCPU VM), and the exact
    search's default cap keeps it to small ones."""
    full = (1 << s.n) - 1
    closed = close_compatible_rows(
        s.succ, len(s.alphabet), {z: full & ~mask for z, mask in enumerate(masks)})
    return [full & ~closed[z] for z in range(s.n)]


def close_compatible_rows(
    succ: Sequence[int], m: int, rows: dict[int, int]
) -> dict[int, int]:
    """The greatest relation inside ``rows`` closed under successors.

    ``rows`` maps each position ``p`` to its row, the bitmask of the
    positions compatible with it, ``p`` itself included unless ``p`` is
    incompatible with itself; the relation must be symmetric.  Position
    ``p`` has successor ``succ[p * m + e]`` under event ``e`` (-1 where
    undefined), read only where ``p`` has a partner, and every successor
    must be a key of ``rows``.  A pair stays when every event defined at
    both positions takes it to a pair that stays.

    Only rows that still have a partner other than their own position take
    part; by symmetry a partner of such a row has one too.  (A position
    incompatible with itself can make any pair leading into it
    incompatible, so when there is one every row with a bit takes part.)
    A row is recomputed only after one of its successors' rows shrank, and
    the pre-image of each (row value, event) is computed once.  The
    relation may be asymmetric midway, but every row ends recomputed on
    its successors' final rows, so the result is the greatest fixpoint,
    which is symmetric.  The highest position goes first: on BFS-numbered
    supervisors successors tend to lie above their sources, and lowest
    first recomputed about five times as many rows on the bench's random
    supervisors.
    """
    rows = dict(rows)
    partnered = nonzero = 0
    reflexive = -1  # all ones while every position is compatible with itself
    for p, row in rows.items():
        bit = 1 << p
        if not row & bit:
            reflexive = 0
        if row:
            nonzero |= bit
            if row != bit:
                partnered |= bit
    active = partnered if reflexive else nonzero
    # over the positions taking part: per event, the positions it takes
    # into each position and those that leave it undefined; per position,
    # the positions with a transition into it
    into: list[dict[int, int]] = [{} for _ in range(m)]
    undefined = [0] * m
    before: dict[int, int] = {}
    rest = active
    while rest:
        low = rest & -rest
        rest ^= low
        base = (low.bit_length() - 1) * m
        for e in range(m):
            t = succ[base + e]
            if t < 0:
                undefined[e] |= low
            else:
                into_e = into[e]
                into_e[t] = into_e.get(t, 0) | low
                before[t] = before.get(t, 0) | low
    allowed_for: list[dict[int, int]] = [{} for _ in range(m)]
    pending = active
    while pending:
        p = pending.bit_length() - 1
        top = 1 << p
        pending ^= top
        row = kept = rows[p]
        idle = top & reflexive  # what kept holds once p has no partner
        base = p * m
        for e in range(m):
            t = succ[base + e]
            if t < 0:
                continue
            held = rows[t]
            memo = allowed_for[e]
            allowed = memo.get(held)
            if allowed is None:
                # the partners of p may leave e undefined or go into held
                allowed = undefined[e]
                into_e = into[e]
                rest = held
                while rest:
                    u = rest & -rest
                    rest ^= u
                    allowed |= into_e.get(u.bit_length() - 1, 0)
                memo[held] = allowed
            kept &= allowed
            if kept == idle:
                active ^= top
                break
        if kept != row:
            rows[p] = kept
            pending = (pending | before.get(p, 0)) & active
    return rows


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
    """:func:`normal_in` on the walk of ``g`` with ``s`` and ``sp``."""
    return normal_in(Lockstep(g, s, sp))


def normal_in(walk: Lockstep) -> tuple[bool, Optional[tuple]]:
    """Check that ``sp`` carries no unexercised structure relative to the
    closed loop of ``(g, s)``: every transition of ``sp`` is taken by some
    closed-loop string routed through it, and every marked state of ``sp``
    is reached by some marked closed-loop string.

    The check scans the pairs of ``s`` and ``sp`` states that the ``walk``
    of ``(g, s, sp)`` reached with the plant, each with the set of plant
    states walked with it; no closed loop is built and no string is read.
    Every fact it reads is one of the closed loop, so ``s`` may be any
    supervisor control equivalent to the reference.
    The witness names the first unexercised transition
    ``("transition", state, event)`` or unreached marked state
    ``("marked", state)``.
    """
    g, s, sp = walk.g, walk.a, walk.b
    # per s state, and per pair for its plant states: events over marking
    # bit; per sp state, what they share
    sm = [s.enabled(z) << 1 | (z in s.marked) for z in range(s.n)]
    g_marked = sum(1 << x for x in g.marked)
    exercised = [0] * sp.n
    for z, y, states in zip(walk.pair_a, walk.pair_b, walk.reached):
        exercised[y] |= (g.enabled_in(states) << 1 | (states & g_marked != 0)) & sm[z]
    for y in range(sp.n):
        unexercised = sp.enabled(y) & ~(exercised[y] >> 1)
        if unexercised:
            e = (unexercised & -unexercised).bit_length() - 1
            return False, ("transition", sp.states[y], sp.alphabet.name(e))
    for y in sorted(sp.marked):
        if not exercised[y] & 1:
            return False, ("marked", sp.states[y])
    return True, None

"""The fineness order over control-equivalent supervisors and the size
comparisons it predicts.

One supervisor is finer than another when, along every closed-loop string,
its enabled and disabled sets are contained in the other's and its marking
indicators imply the other's.  Finer supervisors admit smaller minimum
control covers, and the finest supervisor (the subset-construction one) is
below every other member of the equivalence class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NoReturn, Optional

from .automata import (Automaton, Lockstep, check_same_alphabet, control_equivalent,
                       is_des_isomorphic, separating_string, sync_product)
from .errors import PreconditionError, SearchCapError
from .reduction import (DEFAULT_EXACT_CAP, build_super, reduce_exact_core, require_feasible,
                        super_construction)
from .supervision import ControlData, check_control_feasibility, control_data_from_sets, normal_in

__all__ = [
    "OrderWitness",
    "finer_than",
    "verify_super_is_finest",
    "compare_reductions",
    "compare_full_vs_partial",
]

_CLAUSES = ("enabled", "disabled", "markedS", "markedG")


@dataclass
class OrderWitness:
    """Outcome of a fineness comparison.  When the verdict is false the
    counterexample holds a closed-loop string and the clause (enabled,
    disabled, markedS or markedG) it violates at the reached state pair."""

    verdict: bool
    counterexample: Optional[tuple[list[str], str]] = None

    def __bool__(self) -> bool:
        return self.verdict


def finer_than(
    g: Automaton, s: Automaton, s1: Automaton, s2: Automaton
) -> OrderWitness:
    """Decide whether ``s1`` is finer than ``s2`` within the control
    equivalence class of ``s``.

    Both candidates must be control equivalent to ``s``; the order is not
    defined outside the class and the call refuses rather than comparing
    over a sublanguage.  The check scans the triples of plant, ``s1`` and
    ``s2`` that :class:`~supred.automata.Lockstep` reaches; all four
    clauses depend only on the reached state pair, so the walk decides the
    string quantification finitely and returns a shortest violating
    string, ties broken by alphabet order.

    That walk is the only one when ``s`` is ``s1`` or ``s2``, and a third
    reference costs one more, which checks ``s1``.  The separating string
    of two closed loops is the least string in the symmetric differences
    of their languages, so once ``s`` is control equivalent to one
    candidate, the walk separates the other from it by the same string as
    from ``s``.  The walk also gives both candidates' control data.
    """
    check_same_alphabet(g, s1)
    if s is not s1 and s is not s2:
        equal, counterexample = control_equivalent(g, s, s1)
        if not equal:
            _refuse_inequivalent("s1", counterexample)
    walk = Lockstep(g, s1, s2)
    counterexample = separating_string(walk)
    if counterexample is not None:
        _refuse_inequivalent("s1" if s is s2 else "s2", counterexample)
    return _finer(g, walk)[0]


def _refuse_inequivalent(label: str, counterexample: list[str]) -> NoReturn:
    raise PreconditionError(
        "control-equivalence",
        f"{label} is not control equivalent to the reference (separating string {counterexample})",
    )


def _finer(g: Automaton, walk: Lockstep) -> tuple[OrderWitness, ControlData, ControlData]:
    """The fineness verdict of :func:`finer_than` on the walk of plant and
    two control-equivalent candidates, and both candidates' control data.
    The projections of the walked triples are then exactly the reachable
    pairs of each candidate's closed loop, so the data come from the plant
    sets the walk keeps per pair of candidate states.  The clauses depend
    on that pair alone and are checked once per pair; only when one fails
    are the triples walked, by :meth:`~supred.automata.Lockstep.first`, to
    the first of a failing pair, whose string is the least."""
    s1, s2 = walk.a, walk.b
    sets1, sets2 = [0] * s1.n, [0] * s2.n
    for z1, z2, states in zip(walk.pair_a, walk.pair_b, walk.reached):
        sets1[z1] |= states
        sets2[z2] |= states
    data1 = control_data_from_sets(g, s1, sets1)
    data2 = control_data_from_sets(g, s2, sets2)
    # per state, the clauses' sets as one int, the first clause lowest:
    # s1's state holds what s2's state lacks exactly where a clause fails
    m = len(g.alphabet)
    packed1, packed2 = ([en | dis << m | ms << 2 * m | mg << 2 * m + 1
                         for en, dis, ms, mg in zip(d.enabled, d.disabled, d.marked_s, d.marked_g)]
                        for d in (data1, data2))
    lacks = [packed1[z1] & ~packed2[z2] for z1, z2 in zip(walk.pair_a, walk.pair_b)]
    if not any(lacks):
        return OrderWitness(True), data1, data2
    string, bits = walk.first([-1] * g.n, lacks)
    low = (bits & -bits).bit_length() - 1
    failed = _CLAUSES[low // m if low < 2 * m else low - 2 * m + 2]
    return OrderWitness(False, ([g.alphabet.name(e) for e in string], failed)), data1, data2


def verify_super_is_finest(g: Automaton, s: Automaton, s_prime: Automaton) -> OrderWitness:
    """Check the finest-supervisor law on one candidate: the subset
    construction supervisor must be finer than every control-equivalent
    supervisor.  A false verdict here signals an implementation bug, so the
    witness is returned for inspection rather than swallowed.  SUPER is
    control equivalent to ``s`` by construction, so it serves as the
    reference and the check is one walk."""
    sup = build_super(g, s)
    return finer_than(g, sup, sup, s_prime)


def compare_reductions(
    g: Automaton,
    s: Automaton,
    s1: Automaton,
    s2: Automaton,
    cap_states: int = DEFAULT_EXACT_CAP,
) -> tuple[int, int, bool]:
    """Exact minimum cover sizes of two normal, control-equivalent,
    fineness-ordered supervisors.  Under those hypotheses the finer one can
    never need more cells, so ``ordered`` is expected true."""
    for label, ref, cand in (("s1", s, s1), ("s2", s1, s2)):
        # s1 is control equivalent to s once checked, as in finer_than
        walk = Lockstep(g, ref, cand)
        counterexample = separating_string(walk)
        if counterexample is not None:
            raise PreconditionError(
                "control-equivalence", f"{label}: separating string {counterexample}"
            )
        normal, witness = normal_in(walk)
        if not normal:
            raise PreconditionError("normality", f"{label}: {witness}")
        if cand.n > cap_states:
            raise SearchCapError(cand.n, cap_states, f"{label}: exact search")
    order, data1, data2 = _finer(g, walk)
    if not order.verdict:
        raise PreconditionError(
            "fineness", f"s1 is not finer than s2 (clause {order.counterexample[1]})"
        )
    sizes = []
    for cand, data in ((s1, data1), (s2, data2)):
        require_feasible(g, cand, data)
        _, report = reduce_exact_core(cand, data, "cover", cap_states)
        sizes.append(report.output_size)
    return sizes[0], sizes[1], sizes[0] <= sizes[1]


def compare_full_vs_partial(
    g: Automaton,
    s_full: Automaton,
    s_partial: Automaton,
    cap_states: int = DEFAULT_EXACT_CAP,
) -> tuple[int, int, bool]:
    """Exact reduced sizes of a full-observation supervisor against a
    partial-observation one with the same closed loop.

    Hypotheses checked: the full-observation supervisor is isomorphic to
    its own closed loop, the partial one has only selfloop unobservable
    transitions and is isomorphic to the subset construction of its closed
    loop (:func:`~supred.reduction.super_construction`), and the two are
    control equivalent.  The full-observation side then reduces at least
    as well.

    A supervisor meant for full observation may track unobservable events
    across distinct states, so no observation-feasibility gate is applied
    to it, and loop controllability is checked on neither side; the
    reductions run on the control data alone.  A side with unreachable
    states is refused by its own isomorphism name, whatever its size:
    every closed loop and every observer is reachable.
    """
    check_same_alphabet(g, s_full)
    check_same_alphabet(g, s_partial)
    if not (s_full.is_reachable()
            and is_des_isomorphic(s_full, sync_product(g, s_full)).verdict):
        raise PreconditionError(
            "full-isomorphism", "s_full is not DES-isomorphic to its closed loop"
        )
    if not (s_partial.is_reachable() and check_control_feasibility(s_partial)[0]
            and is_des_isomorphic(s_partial, super_construction(g, s_partial)[0]).verdict):
        raise PreconditionError(
            "partial-isomorphism",
            "s_partial is not DES-isomorphic to the subset construction of its closed loop",
        )
    walk = Lockstep(g, s_full, s_partial)
    counterexample = separating_string(walk)
    if counterexample is not None:
        raise PreconditionError("control-equivalence", f"separating string {counterexample}")
    _, data_f, data_p = _finer(g, walk)
    _, report_f = reduce_exact_core(s_full, data_f, "cover", cap_states)
    _, report_p = reduce_exact_core(s_partial, data_p, "cover", cap_states)
    return report_f.output_size, report_p.output_size, report_f.output_size <= report_p.output_size

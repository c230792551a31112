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
from typing import Optional

from .automata import (Automaton, Lockstep, check_same_alphabet, control_equivalent,
                       is_des_isomorphic, subset_construction, sync_product)
from .errors import PreconditionError
from .reduction import DEFAULT_EXACT_CAP, build_super, reduce_exact_core, require_feasible
from .supervision import ControlData, control_data, is_normal

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
    """
    check_same_alphabet(g, s1)
    for label, cand in (("s1", s1), ("s2", s2)):
        equal, counterexample = control_equivalent(g, s, cand)
        if not equal:
            raise PreconditionError(
                "control-equivalence",
                f"{label} is not control equivalent to the reference (separating string {counterexample})",
            )
    return _finer(g, s1, s2, control_data(g, s1), control_data(g, s2))


def _finer(
    g: Automaton, s1: Automaton, s2: Automaton, data1: ControlData, data2: ControlData
) -> OrderWitness:
    """The fineness walk of :func:`finer_than` over candidates already
    known to be control equivalent to the reference, given their control
    data."""
    walk = Lockstep(g, s1, s2)
    for node, _, z1, z2 in walk:
        failed = None
        if data1.enabled[z1] & ~data2.enabled[z2]:
            failed = "enabled"
        elif data1.disabled[z1] & ~data2.disabled[z2]:
            failed = "disabled"
        elif data1.marked_s[z1] and not data2.marked_s[z2]:
            failed = "markedS"
        elif data1.marked_g[z1] and not data2.marked_g[z2]:
            failed = "markedG"
        if failed is not None:
            return OrderWitness(False, ([g.alphabet.name(e) for e in walk.string(node)], failed))
    return OrderWitness(True)


def verify_super_is_finest(g: Automaton, s: Automaton, s_prime: Automaton) -> OrderWitness:
    """Check the finest-supervisor law on one candidate: the subset
    construction supervisor must be finer than every control-equivalent
    supervisor.  A false verdict here signals an implementation bug, so the
    witness is returned for inspection rather than swallowed."""
    sup = build_super(g, s)
    return finer_than(g, s, sup, s_prime)


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
    for label, cand in (("s1", s1), ("s2", s2)):
        equal, counterexample = control_equivalent(g, s, cand)
        if not equal:
            raise PreconditionError(
                "control-equivalence", f"{label}: separating string {counterexample}"
            )
        normal, witness = is_normal(g, s, cand)
        if not normal:
            raise PreconditionError("normality", f"{label}: {witness}")
        if cand.n > cap_states:
            raise PreconditionError("search-cap", f"{label} has {cand.n} states > cap {cap_states}")
    data1, data2 = control_data(g, s1), control_data(g, s2)
    order = _finer(g, s1, s2, data1, data2)
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
    its own closed loop, the partial one is isomorphic to the subset
    construction of its closed loop, and the two are control equivalent.
    The full-observation side then reduces at least as well.

    A supervisor meant for full observation may track unobservable events
    across distinct states, so no observation-feasibility gate is applied
    here; the reductions run on the control data alone.
    """
    loop_f = sync_product(g, s_full)
    loop_p = sync_product(g, s_partial)
    if not is_des_isomorphic(s_full, loop_f).verdict:
        raise PreconditionError(
            "full-isomorphism", "s_full is not DES-isomorphic to its closed loop"
        )
    if not is_des_isomorphic(s_partial, subset_construction(loop_p)).verdict:
        raise PreconditionError(
            "partial-isomorphism",
            "s_partial is not DES-isomorphic to the subset construction of its closed loop",
        )
    equal, counterexample = control_equivalent(g, s_full, s_partial)
    if not equal:
        raise PreconditionError(
            "control-equivalence", f"separating string {counterexample}"
        )
    _, report_f = reduce_exact_core(s_full, control_data(g, s_full), "cover", cap_states)
    _, report_p = reduce_exact_core(s_partial, control_data(g, s_partial), "cover", cap_states)
    return report_f.output_size, report_p.output_size, report_f.output_size <= report_p.output_size

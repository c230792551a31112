"""The fineness order over control-equivalent supervisors and the size
comparisons it predicts.

One supervisor is finer than another when, along every closed-loop string,
its enabled and disabled sets are contained in the other's and its marking
indicators imply the other's.  Finer supervisors admit smaller minimum
control covers, and the finest supervisor (the subset-construction one) is
below every other member of the equivalence class.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional

from .automata import (Automaton, check_same_alphabet, is_des_isomorphic, language_equivalent,
                       subset_construction, sync_product)
from .errors import PreconditionError
from .reduction import DEFAULT_EXACT_CAP, build_super, reduce_exact_core, reduce_exact_minimum
from .supervision import control_data, is_normal

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
    over a sublanguage.  The check walks the reachable triples of the
    closed loop with both candidates; all four clauses depend only on the
    reached state pair, so the walk decides the string quantification
    finitely and returns a shortest violating string.
    """
    check_same_alphabet(g, s1)
    loop = sync_product(g, s)
    for label, cand in (("s1", s1), ("s2", s2)):
        equal, counterexample = language_equivalent(loop, sync_product(g, cand))
        if not equal:
            raise PreconditionError(
                "control-equivalence",
                f"{label} is not control equivalent to the reference (separating string {counterexample})",
            )
    return _finer_on_loop(g, loop, s1, s2)


def _finer_on_loop(g: Automaton, loop: Automaton, s1: Automaton, s2: Automaton) -> OrderWitness:
    """The triple walk of :func:`finer_than` over a prebuilt closed loop
    whose candidates are already known to be control equivalent to it."""
    data1 = control_data(g, s1)
    data2 = control_data(g, s2)
    start = (loop.initial, s1.initial, s2.initial)
    paths: dict[tuple[int, int, int], tuple[int, ...]] = {start: ()}
    queue = deque([start])
    while queue:
        p, z1, z2 = queue.popleft()
        path = paths[(p, z1, z2)]
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
            string = [g.alphabet.name(e) for e in path]
            return OrderWitness(False, (string, failed))
        for e, pt in loop.out(p):
            t1 = s1.step(z1, e)
            t2 = s2.step(z2, e)
            if t1 is None or t2 is None:
                # cannot happen for control-equivalent candidates
                raise PreconditionError(
                    "control-equivalence", "closed-loop string leaves a candidate"
                )
            nxt = (pt, t1, t2)
            if nxt not in paths:
                paths[nxt] = path + (e,)
                queue.append(nxt)
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
    loop = sync_product(g, s)
    for label, cand in (("s1", s1), ("s2", s2)):
        equal, counterexample = language_equivalent(loop, sync_product(g, cand))
        if not equal:
            raise PreconditionError(
                "control-equivalence", f"{label}: separating string {counterexample}"
            )
        normal, witness = is_normal(g, s, cand)
        if not normal:
            raise PreconditionError("normality", f"{label}: {witness}")
        if cand.n > cap_states:
            raise PreconditionError("search-cap", f"{label} has {cand.n} states > cap {cap_states}")
    order = _finer_on_loop(g, loop, s1, s2)
    if not order.verdict:
        raise PreconditionError(
            "fineness", f"s1 is not finer than s2 (clause {order.counterexample[1]})"
        )
    _, report1 = reduce_exact_minimum(g, s1, mode="cover", cap_states=cap_states)
    _, report2 = reduce_exact_minimum(g, s2, mode="cover", cap_states=cap_states)
    return report1.output_size, report2.output_size, report1.output_size <= report2.output_size


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
    equal, counterexample = language_equivalent(loop_f, loop_p)
    if not equal:
        raise PreconditionError(
            "control-equivalence", f"separating string {counterexample}"
        )
    _, report_f = reduce_exact_core(s_full, control_data(g, s_full), "cover", cap_states)
    _, report_p = reduce_exact_core(s_partial, control_data(g, s_partial), "cover", cap_states)
    return report_f.output_size, report_p.output_size, report_f.output_size <= report_p.output_size

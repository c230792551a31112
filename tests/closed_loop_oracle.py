"""Reference closed-loop checks, kept as a differential oracle.

These are the versions of ``control_equivalent``, ``is_normal``,
``finer_than``, ``compare_reductions``, ``compare_full_vs_partial`` and
``extract_cover_from_simsup`` that re-trimmed every synchronous product and
built the closed loop ``G||S`` anew for each question they asked, and the
``build_super`` that walked ``G||S`` for its feasibility gate and again
for the product it determinises over ``frozenset`` subsets, where the
library builds SUPER on (supervisor state, plant-state bitmask) pairs.  The
bodies are unchanged apart from the public names of the alphabet check and
the exact-search core, and they call each other as before (the product
with pairs and the subset construction, which have left the library, come
from ``tests/product_oracle.py``); one check was
added: ``extract_cover_from_simsup`` checks ``super_``'s alphabet against
the plant after its normality check, where the library's walk
``Lockstep(g, super_, simsup)`` raises.  The fineness
walk in ``finer_than`` reads the name-set control data of
``tests/name_set_oracle.py``, since the library's now holds bitmasks, and
``control_equivalent`` compares the two products with the frozen pair walk
``language_equivalent`` of that module, since the library's now runs
through the walk these oracles check.
``tests/test_closed_loop_oracle.py`` checks that the library, which walks
plant and supervisors in lockstep without building a closed loop, gives the
same verdicts, witnesses and errors.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

from supred.automata import (
    Automaton,
    check_same_alphabet as _check_same_alphabet,
    is_des_isomorphic,
    sync_product,
    trim_reachable,
)
from supred.errors import PreconditionError
from supred.ordering import OrderWitness
from supred.reduction import (
    DEFAULT_EXACT_CAP,
    Cover,
    reduce_exact_core as _reduce_exact_core,
    reduce_exact_minimum,
    require_feasible,
)
from supred.supervision import check_control_feasibility, control_data, loop_controllable

from tests import name_set_oracle
from tests.product_oracle import subset_construction, sync_product_pairs


def control_equivalent(
    g: Automaton, s1: Automaton, s2: Automaton
) -> tuple[bool, Optional[list[str]]]:
    _check_same_alphabet(g, s1)
    _check_same_alphabet(g, s2)
    return name_set_oracle.language_equivalent(
        trim_reachable(sync_product(g, s1)),
        trim_reachable(sync_product(g, s2)),
    )


def is_normal(
    g: Automaton, s: Automaton, sp: Automaton
) -> tuple[bool, Optional[tuple]]:
    _check_same_alphabet(g, s)
    _check_same_alphabet(g, sp)
    loop = trim_reachable(sync_product(g, s))
    exercised: set[tuple[int, int]] = set()
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
            exercised.add((y, e))
            nxt = (pt, yt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    for (y, e), _ in sorted(sp.trans.items()):
        if (y, e) not in exercised:
            return False, ("transition", sp.states[y], sp.alphabet.name(e))
    for y in sorted(sp.marked):
        if y not in marked_hit:
            return False, ("marked", sp.states[y])
    return True, None


def finer_than(
    g: Automaton, s: Automaton, s1: Automaton, s2: Automaton
) -> OrderWitness:
    for label, cand in (("s1", s1), ("s2", s2)):
        _check_same_alphabet(g, cand)
        equal, counterexample = control_equivalent(g, s, cand)
        if not equal:
            raise PreconditionError(
                "control-equivalence",
                f"{label} is not control equivalent to the reference (separating string {counterexample})",
            )
    data1 = name_set_oracle.control_data(g, s1)
    data2 = name_set_oracle.control_data(g, s2)
    loop, _ = sync_product_pairs(g, s)
    start = (loop.initial, s1.initial, s2.initial)
    paths: dict[tuple[int, int, int], tuple[int, ...]] = {start: ()}
    queue = deque([start])
    while queue:
        p, z1, z2 = queue.popleft()
        path = paths[(p, z1, z2)]
        failed = None
        if not data1.enabled[z1] <= data2.enabled[z2]:
            failed = "enabled"
        elif not data1.disabled[z1] <= data2.disabled[z2]:
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


def compare_reductions(
    g: Automaton,
    s: Automaton,
    s1: Automaton,
    s2: Automaton,
    cap_states: int = DEFAULT_EXACT_CAP,
) -> tuple[int, int, bool]:
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
    order = finer_than(g, s, s1, s2)
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
    _check_same_alphabet(g, s_full)
    _check_same_alphabet(g, s_partial)
    loop_f = trim_reachable(sync_product(g, s_full))
    if not is_des_isomorphic(s_full, loop_f).verdict:
        raise PreconditionError(
            "full-isomorphism", "s_full is not DES-isomorphic to its closed loop"
        )
    observer = subset_construction(trim_reachable(sync_product(g, s_partial)))
    if not is_des_isomorphic(s_partial, observer).verdict:
        raise PreconditionError(
            "partial-isomorphism",
            "s_partial is not DES-isomorphic to the subset construction of its closed loop",
        )
    equal, counterexample = control_equivalent(g, s_full, s_partial)
    if not equal:
        raise PreconditionError(
            "control-equivalence", f"separating string {counterexample}"
        )
    _, report_f = _reduce_exact_core(s_full, control_data(g, s_full), "cover", cap_states)
    _, report_p = _reduce_exact_core(s_partial, control_data(g, s_partial), "cover", cap_states)
    return report_f.output_size, report_p.output_size, report_f.output_size <= report_p.output_size


def extract_cover_from_simsup(
    super_: Automaton, simsup: Automaton, g: Automaton, s: Automaton
) -> Cover:
    ok, witness = check_control_feasibility(simsup)
    if not ok:
        raise PreconditionError("feasibility", f"simsup: {witness}")
    ok, _ = loop_controllable(g, simsup)
    if not ok:
        raise PreconditionError("feasibility", "simsup disables an uncontrollable event")
    equal, counterexample = control_equivalent(g, s, simsup)
    if not equal:
        raise PreconditionError("control-equivalence", f"separating string {counterexample}")
    normal, witness = is_normal(g, s, simsup)
    if not normal:
        raise PreconditionError("normality", str(witness))
    _check_same_alphabet(g, super_)

    product, _ = sync_product_pairs(g, s)
    cell_of_simsup: list[set[int]] = [set() for _ in range(simsup.n)]
    start = (product.initial, super_.initial, simsup.initial)
    seen = {start}
    queue = [start]
    while queue:
        p, zs, y = queue.pop()
        cell_of_simsup[y].add(zs)
        for e, pt in product.out(p):
            zt = super_.step(zs, e)
            yt = simsup.step(y, e)
            if zt is None or yt is None:
                raise PreconditionError(
                    "control-equivalence",
                    "closed-loop string leaves the candidate supervisor",
                )
            nxt = (pt, zt, yt)
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    for y, cell in enumerate(cell_of_simsup):
        if not cell:
            raise PreconditionError(
                "normality", f"simsup state {simsup.states[y]!r} is never reached by the closed loop"
            )
    return Cover.from_cells(cell_of_simsup)


def build_super(g: Automaton, s: Automaton) -> Automaton:
    require_feasible(g, s)
    return subset_construction(sync_product(g, s), name="SUPER")

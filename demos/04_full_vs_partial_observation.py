"""Walkthrough: full observation never reduces worse than partial.

Rereading the fineness example with the event c unobservable turns the
pair into a full-observation/partial-observation comparison: S1 is (up to
isomorphism) its own closed loop, while S2 is exactly the subset
construction of the closed loop under the restricted observation (its c
transition is a selfloop, as observation feasibility demands).  The
full-observation side reduces to 2 states, the partial one to 3.
"""

import pathlib

from supred import (
    Alphabet,
    Event,
    build_super,
    compare_full_vs_partial,
    is_des_isomorphic,
    parse_automaton,
    sync_product,
    trim_reachable,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

g, s1, s2 = parse_automaton((FIXTURES / "ordering.aut").read_text())
hidden_c = Alphabet(
    [Event(e.name, e.controllable, e.observable and e.name != "c")
     for e in g.alphabet]
)
g, s1, s2 = (a.with_alphabet(hidden_c) for a in (g, s1, s2))

print("hypothesis checks:")
loop1 = trim_reachable(sync_product(g, s1))
print("  S1 is its own closed loop:",
      is_des_isomorphic(s1, loop1).verdict)
# S2 is feasible, so SUPER, the finest supervisor of its class, is the
# subset construction of its closed loop
observer2 = build_super(g, s2)
print("  S2 is the subset construction of its closed loop (c hidden):",
      is_des_isomorphic(s2, observer2).verdict)

size_full, size_partial, ordered = compare_full_vs_partial(g, s1, s2)
print(f"\nexact reduced sizes: full observation -> {size_full} states, "
      f"partial observation -> {size_partial} states")
print(f"full no bigger than partial: {ordered}")

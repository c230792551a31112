"""Walkthrough: the finest control-equivalent supervisor and cover
extraction.

Subset construction over the closed loop (with unobservable events
reinserted as selfloops) yields a canonical supervisor that is finer than
every other control-equivalent one.  Any normal equivalent supervisor can
be recovered from it as the quotient of a control cover, and each of its
states is characterised by enable/disable information alone.
"""

import pathlib

from supred import (
    build_super,
    characterize_super_state,
    control_data,
    extract_cover_from_simsup,
    finer_than,
    induce_quotient,
    is_des_isomorphic,
    parse_automaton,
    reduce_heuristic,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

g, s = parse_automaton((FIXTURES / "tank.aut").read_text())

sup = build_super(g, s)
print(f"finest supervisor: {sup.n} states")
for z, name in enumerate(sup.states):
    enabled, disabled = characterize_super_state(g, s, sup, z)  # event bitmasks
    print(f"  {name}: enables {sorted(g.alphabet.names_of(enabled))}, "
          f"disables {sorted(g.alphabet.names_of(disabled))}")
print()

print("Here the given supervisor is already canonical:",
      is_des_isomorphic(sup, s).verdict)
print("And it is finer than itself and its reductions:",
      finer_than(g, s, sup, s).verdict)
print()

reduced, _ = reduce_heuristic(g, s)
print(f"take the reduced supervisor ({reduced.n} states) and recover the")
print("cover on the finest supervisor that produces it:")
cover = extract_cover_from_simsup(sup, reduced, g, s)
for cell in cover.cells:
    print("  cell:", sorted(sup.states[z] for z in cell))
quotient = induce_quotient(sup, control_data(g, sup), cover)
print("quotient isomorphic to the reduced supervisor:",
      is_des_isomorphic(quotient, reduced).verdict)

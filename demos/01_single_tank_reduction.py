"""Walkthrough: reducing the single-tank supervisor from 4 states to 2.

The plant is a water tank with a supply line and a drain valve.  Valve
commands (qo0 close, qo1 open) are controllable but unobservable; level
announcements (hL, hM, hH, hEH) are observable but uncontrollable.  The
supervisor must keep the overflow announcement hEH out of the closed loop.
"""

import pathlib

from supred import (
    Cover,
    compatibility_relation,
    control_data,
    control_equivalent,
    induce_quotient,
    parse_automaton,
    reduce_heuristic,
    serialize_automaton,
    validate_cover,
)
from supred.cli import control_data_table

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

g, s = parse_automaton((FIXTURES / "tank.aut").read_text())
print(f"plant {g.name}: {g.n} states; supervisor {s.name}: {s.n} states\n")

print("Per-state control data (enabled, disabled, marking realized in the")
print("closed loop, plant-marking reachable):")
print(control_data_table(g, s))
print()

data = control_data(g, s)
rel = compatibility_relation(data)
print("Compatible state pairs (candidates for sharing a cover cell):")
for i in range(s.n):
    for j in range(i + 1, s.n):
        if rel.holds(i, j):
            print(f"  {s.states[i]} ~ {s.states[j]}")
print("Note: z3 is incompatible with z1 and z2 because they enable the")
print("close command qo0 that z3 disables.\n")

cover = Cover.from_cells([{0, 1, 2}, {3}])
ok, violation = validate_cover(s, data, cover)
print(f"cover {{z0,z1,z2}} {{z3}} valid: {ok}")

quotient, choice = induce_quotient(s, data, cover)
print(f"induced supervisor: {quotient.n} states "
      f"(ambiguous targets along the way: {choice.had_alternatives()})")
equal, _ = control_equivalent(g, s, quotient)
print(f"control equivalent to the original: {equal}\n")

print("The reduced supervisor makes the control law obvious: while the")
print("level is high, only the open command stays enabled.")
print(serialize_automaton(quotient))

reduced, report = reduce_heuristic(g, s)
print(f"The merge heuristic finds the same reduction automatically: "
      f"{report.input_size} -> {report.output_size} states "
      f"({report.steps} unions examined).")

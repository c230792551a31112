"""Output checker for the benchmark.

It shares no code with ``supred``: it reads the ``.aut`` text itself and
decides control equivalence by its own breadth-first walk over
(plant, S, S') state triples.  Because all three automata are
deterministic, S and S' give the same closed and marked closed-loop
language exactly when, at every reached triple, they agree on which
plant-offered events they allow and, at plant-marked states, on marking.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from typing import Optional


@dataclasses.dataclass
class Aut:
    name: str
    events: list[tuple[str, bool, bool]]  # (name, controllable, observable)
    states: list[str]
    initial: int
    marked: set[int]
    trans: dict[tuple[int, str], int]
    nondeterministic: list[tuple[str, str]]  # (state, event) defined twice

    @property
    def n(self) -> int:
        return len(self.states)


def read_aut(text: str) -> list[Aut]:
    """All automaton blocks of a canonical ``.aut`` document."""
    tokens = [tok for line in text.splitlines() for tok in line.split("#", 1)[0].split()]
    pos = 0

    def take(n: int = 1) -> list[str]:
        nonlocal pos
        if pos + n > len(tokens):
            raise ValueError("truncated .aut text")
        pos += n
        return tokens[pos - n:pos]

    def expect(word: str) -> None:
        (tok,) = take()
        if tok != word:
            raise ValueError(f"expected {word!r}, found {tok!r}")

    blocks = []
    while pos < len(tokens):
        expect("automaton")
        (name,) = take()
        expect("events")
        events = []
        for _ in range(int(take()[0])):
            ev, c, o = take(3)
            events.append((ev, c == "c", o == "o"))
        expect("states")
        states = take(int(take()[0]))
        index = {s: i for i, s in enumerate(states)}
        expect("initial")
        initial = index[take()[0]]
        expect("marked")
        marked = {index[s] for s in take(int(take()[0]))}
        expect("trans")
        trans: dict[tuple[int, str], int] = {}
        repeated = []
        for _ in range(int(take()[0])):
            src, ev, dst = take(3)
            key = (index[src], ev)
            if key in trans:
                repeated.append((src, ev))
            trans[key] = index[dst]
        expect("end")
        blocks.append(Aut(name, events, states, initial, marked, trans, repeated))
    return blocks


def read_one(path: str) -> Aut:
    with open(path, encoding="utf-8") as fh:
        (a,) = read_aut(fh.read())
    return a


def _closed_loop_walk(g: Aut, s: Aut):
    """Yield (x, z, e, x', z') for every closed-loop transition of g || s."""
    start = (g.initial, s.initial)
    seen = {start}
    queue = deque([start])
    while queue:
        x, z = queue.popleft()
        for ev, _, _ in g.events:
            xt = g.trans.get((x, ev))
            zt = s.trans.get((z, ev))
            if xt is None or zt is None:
                continue
            yield x, z, ev, xt, zt
            if (xt, zt) not in seen:
                seen.add((xt, zt))
                queue.append((xt, zt))


def closed_loop_size(g: Aut, s: Aut) -> int:
    states = {(g.initial, s.initial)}
    for _, _, _, xt, zt in _closed_loop_walk(g, s):
        states.add((xt, zt))
    return len(states)


def equivalence_problem(g: Aut, s: Aut, t: Aut) -> Optional[str]:
    """None when s and t give g the same closed and marked closed-loop
    language; otherwise a shortest separating string and what differs."""
    start = (g.initial, s.initial, t.initial)
    paths = {start: ()}
    queue = deque([start])
    while queue:
        x, z, y = queue.popleft()
        path = paths[(x, z, y)]
        if x in g.marked and (z in s.marked) != (y in t.marked):
            return f"marking differs after {' '.join(path) or '<empty>'}"
        for ev, _, _ in g.events:
            xt = g.trans.get((x, ev))
            if xt is None:
                continue
            zt, yt = s.trans.get((z, ev)), t.trans.get((y, ev))
            if (zt is None) != (yt is None):
                return f"closed loop differs on {' '.join(path + (ev,))}"
            if zt is not None and (xt, zt, yt) not in paths:
                paths[(xt, zt, yt)] = path + (ev,)
                queue.append((xt, zt, yt))
    return None


def supervisor_problem(g: Aut, s: Aut, out: Aut, max_states: Optional[int] = None) -> Optional[str]:
    """None when ``out`` is a valid replacement for supervisor ``s`` of
    plant ``g``: deterministic, unobservable events only as selfloops, at
    most ``max_states`` states, same alphabet and same closed loop."""
    if out.nondeterministic:
        return f"nondeterministic at {out.nondeterministic[0]}"
    if out.events != s.events:
        return "alphabet differs from the input supervisor"
    unobservable = {ev for ev, _, obs in out.events if not obs}
    for (q, ev), t in out.trans.items():
        if ev in unobservable and t != q:
            return f"unobservable {ev} moves {out.states[q]} to {out.states[t]}"
    if max_states is not None and out.n > max_states:
        return f"{out.n} states > {max_states}"
    return equivalence_problem(g, s, out)


# ---------------------------------------------------------------------------
# Faults the checker must catch


def drop_exercised_transition(g: Aut, s: Aut) -> Aut:
    """``s`` without the first transition the closed loop takes."""
    for _, z, ev, _, _ in _closed_loop_walk(g, s):
        trans = dict(s.trans)
        del trans[(z, ev)]
        return dataclasses.replace(s, trans=trans)
    raise ValueError("the closed loop takes no transition")


def flip_loop_marked_state(g: Aut, s: Aut) -> Aut:
    """``s`` with the marking flipped at a state the closed loop visits
    while the plant is marked."""
    visits = [(g.initial, s.initial)] + [(xt, zt) for *_, xt, zt in _closed_loop_walk(g, s)]
    for x, z in visits:
        if x in g.marked:
            return dataclasses.replace(s, marked=s.marked ^ {z})
    raise ValueError("the closed loop never reaches a plant-marked state")


def self_test(g: Aut, s: Aut) -> list[str]:
    """The checker accepts ``s`` against itself and rejects both faults."""
    problems = []
    if supervisor_problem(g, s, s, s.n) is not None:
        problems.append(f"{s.name}: checker rejects the unchanged supervisor")
    for fault in (drop_exercised_transition, flip_loop_marked_state):
        if supervisor_problem(g, s, fault(g, s), s.n) is None:
            problems.append(f"{s.name}: checker misses {fault.__name__}")
    return problems

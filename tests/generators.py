"""Seeded random instance generators shared by the property suites.

Everything takes an explicit ``random.Random`` so failures replay exactly.
Supervisors come out observation-feasible by construction (unobservable
events only as selfloops); the ``full_gamma`` variants additionally enable
every uncontrollable event at every state, which keeps the strict
control-pattern check satisfiable down the pipeline when paired with an
uncontrollable-complete plant.
"""

from __future__ import annotations

import random

from supred.automata import Alphabet, Automaton, Event, sync_product, trim_reachable


def random_alphabet(
    rng: random.Random,
    max_events: int = 4,
    require_unobservable: bool = False,
) -> Alphabet:
    n = rng.randint(2, max_events)
    events = []
    for i in range(n):
        events.append(Event(f"e{i}", rng.random() < 0.5, rng.random() < 0.7))
    # keep the attribute mix honest: at least one controllable and one
    # uncontrollable event, at least one observable
    if all(e.controllable for e in events):
        events[0] = Event(events[0].name, False, events[0].observable)
    if not any(e.controllable for e in events):
        events[-1] = Event(events[-1].name, True, events[-1].observable)
    if not any(e.observable for e in events):
        events[0] = Event(events[0].name, events[0].controllable, True)
    if require_unobservable and all(e.observable for e in events):
        k = rng.randrange(len(events))
        events[k] = Event(events[k].name, events[k].controllable, False)
        if not any(e.observable for e in events):
            j = (k + 1) % len(events)
            events[j] = Event(events[j].name, events[j].controllable, True)
    return Alphabet(events)


def _bits(mask: int, m: int) -> list[int]:
    """The event indices in bitmask ``mask``, ascending."""
    return [e for e in range(m) if mask >> e & 1]


def _spanning_tree(
    rng: random.Random, n: int, usable_events: list[int]
) -> dict[tuple[int, int], int]:
    """Random tree over states 0..n-1 guaranteeing reachability from 0."""
    trans: dict[tuple[int, int], int] = {}
    for child in range(1, n):
        parents = list(range(child))
        rng.shuffle(parents)
        placed = False
        for parent in parents:
            free = [e for e in usable_events if (parent, e) not in trans]
            if free:
                trans[(parent, rng.choice(free))] = child
                placed = True
                break
        if not placed:
            raise ValueError("not enough event slots for a spanning tree")
    return trans


def random_plant(
    rng: random.Random,
    alphabet: Alphabet,
    max_states: int = 6,
    uncontrollable_complete: bool = False,
    extra_density: float = 0.3,
) -> Automaton:
    n = rng.randint(1, max_states)
    m = len(alphabet)
    trans = _spanning_tree(rng, n, list(range(m))) if n > 1 else {}
    for q in range(n):
        for e in range(m):
            if (q, e) not in trans and rng.random() < extra_density:
                trans[(q, e)] = rng.randrange(n)
    if uncontrollable_complete:
        for q in range(n):
            for e in _bits(alphabet.uncontrollable_mask, m):
                if (q, e) not in trans:
                    trans[(q, e)] = rng.randrange(n)
    marked = [q for q in range(n) if rng.random() < 0.35]
    return Automaton("G", alphabet, [f"x{q}" for q in range(n)], 0, marked, trans)


def random_feasible_supervisor(
    rng: random.Random,
    alphabet: Alphabet,
    max_states: int = 4,
    full_gamma: bool = False,
    extra_density: float = 0.35,
    name: str = "S",
) -> Automaton:
    m, unobs = len(alphabet), alphabet.unobservable_mask
    observable = _bits(~unobs, m)
    unobservable = _bits(unobs, m)
    n = rng.randint(1, max_states) if observable else 1
    trans = _spanning_tree(rng, n, observable) if n > 1 else {}
    for q in range(n):
        for e in observable:
            if (q, e) not in trans and rng.random() < extra_density:
                trans[(q, e)] = rng.randrange(n)
        for e in unobservable:
            if rng.random() < 0.5:
                trans[(q, e)] = q
    if full_gamma:
        for q in range(n):
            for e in _bits(alphabet.uncontrollable_mask, m):
                if (q, e) in trans:
                    continue
                trans[(q, e)] = q if unobs >> e & 1 else rng.randrange(n)
    marked = [q for q in range(n) if rng.random() < 0.4]
    return Automaton(name, alphabet, [f"z{q}" for q in range(n)], 0, marked, trans)


def random_automaton(
    rng: random.Random, alphabet: Alphabet, max_states: int = 5
) -> Automaton:
    """Reachable automaton with no supervisor-shaped constraints."""
    n = rng.randint(1, max_states)
    trans = _spanning_tree(rng, n, list(range(len(alphabet)))) if n > 1 else {}
    for q in range(n):
        for e in range(len(alphabet)):
            if (q, e) not in trans and rng.random() < 0.3:
                trans[(q, e)] = rng.randrange(n)
    marked = [q for q in range(n) if rng.random() < 0.35]
    return Automaton("A", alphabet, [f"q{q}" for q in range(n)], 0, marked, trans)


def strict_instance(
    rng: random.Random, max_plant: int = 6, max_sup: int = 4, max_events: int = 4
) -> tuple[Automaton, Automaton]:
    """Plant/supervisor pair whose derived supervisors satisfy the strict
    control-pattern condition as well: the plant never misses an
    uncontrollable event and the supervisor enables them all everywhere."""
    alphabet = random_alphabet(rng, max_events=max_events, require_unobservable=rng.random() < 0.6)
    g = random_plant(rng, alphabet, max_states=max_plant, uncontrollable_complete=True)
    s = random_feasible_supervisor(rng, alphabet, max_states=max_sup, full_gamma=True)
    return g, s


def loose_instance(
    rng: random.Random,
    max_plant: int = 6,
    max_sup: int = 4,
    max_events: int = 4,
    require_unobservable: bool = False,
) -> tuple[Automaton, Automaton]:
    """Plant/supervisor pair gated only by the loop-relative conditions.

    Retries until the supervisor never disables a plant-possible
    uncontrollable event, so the pair is accepted by the reduction
    pipeline.
    """
    while True:
        alphabet = random_alphabet(rng, max_events=max_events,
                                   require_unobservable=require_unobservable)
        g = random_plant(rng, alphabet, max_states=max_plant)
        s = random_feasible_supervisor(rng, alphabet, max_states=max_sup)
        from supred.supervision import loop_controllable

        ok, _ = loop_controllable(g, s)
        if ok:
            return g, s


def counter_automaton(alphabet: Alphabet, k: int, name: str = "C") -> Automaton:
    """k-state counter: observable events advance the count modulo k,
    unobservable events selfloop, every state marked.  Its language is the
    universal language, so composing with it preserves behaviour while
    inflating the state count."""
    trans: dict[tuple[int, int], int] = {}
    for t in range(k):
        for e in range(len(alphabet)):
            if alphabet.unobservable_mask >> e & 1:
                trans[(t, e)] = t
            else:
                trans[(t, e)] = (t + 1) % k
    return Automaton(name, alphabet, [f"t{t}" for t in range(k)], 0, range(k), trans)


def inflated_supervisor(s: Automaton, k: int) -> Automaton:
    """Control-equivalent supervisor with (up to) k times the states: the
    synchronous product with a universal counter."""
    inflated = trim_reachable(sync_product(s, counter_automaton(s.alphabet, k)))
    return inflated.renamed(f"{s.name}x{k}")


def scale_pair(rng: random.Random, core_states: int, factor: int) -> tuple[Automaton, Automaton]:
    """Plant plus a feasible supervisor of exactly ``core_states * factor``
    states, built by inflating a random core supervisor with a counter.

    A designated observable event is selflooped at every core state, which
    makes every counter value reachable for every core state and pins the
    inflated size.
    """
    alphabet = Alphabet(
        [
            Event("tick", False, True),
            Event("go", False, True),
            Event("req", True, True),
            Event("hid", True, False),
        ]
    )
    g = random_plant(rng, alphabet, max_states=12, uncontrollable_complete=True)
    tick = alphabet.index("tick")
    hid = alphabet.index("hid")
    movers = [alphabet.index("go"), alphabet.index("req")]
    n = core_states
    trans = _spanning_tree(rng, n, movers)
    for q in range(n):
        trans[(q, tick)] = q
        trans[(q, hid)] = q
        for e in movers:
            if (q, e) not in trans and rng.random() < 0.5:
                trans[(q, e)] = rng.randrange(n)
        # full gamma: "go" is the only other uncontrollable event
        if (q, movers[0]) not in trans:
            trans[(q, movers[0])] = rng.randrange(n)
    marked = [q for q in range(n) if rng.random() < 0.4]
    core = Automaton("CORE", alphabet, [f"z{q}" for q in range(n)], 0, marked, trans)
    big = inflated_supervisor(core, factor)
    assert big.n == core_states * factor
    return g, big


def partial_observation_pair(seed: int) -> tuple[Automaton, Automaton]:
    """A 100-300 state partial-observation supervisor against a 10-20 state
    plant: the draw of the ``reduce_random`` benchmark workload, by instance
    seed.  Seeds 0-4 give SUPERs of 177 to 1,057 states; seeds 5, 8, 10 and
    13 give 10.9k-32.3k."""
    rng = random.Random(seed)
    while True:
        alphabet = random_alphabet(rng, max_events=5, require_unobservable=True)
        g = random_plant(rng, alphabet, max_states=20, uncontrollable_complete=True)
        if g.n < 10:
            continue
        try:
            s = random_feasible_supervisor(rng, alphabet, max_states=300, full_gamma=True)
        except ValueError:  # too few observable events for a spanning tree
            continue
        if s.n >= 100:
            return g, s

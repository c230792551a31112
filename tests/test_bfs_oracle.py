"""Differential tests: reachability, trimming and the DES-epimorphism
walk, which iterate their growing order list, against the ``deque`` walks
of ``tests/bfs_oracle.py``, on seeded automata with unreachable states and
on pairs that reach every verdict of the epimorphism check."""

import random

from supred.automata import (Alphabet, Automaton, Event, is_des_epimorphic,
                             serialize_automaton, sync_product, trim_reachable)
from supred.errors import PreconditionError

from tests import bfs_oracle
from tests.generators import inflated_supervisor, random_alphabet, random_automaton

AB = Alphabet([Event("a", True, True), Event("b", False, True)])


def _with_unreachable(rng, a, extra):
    """``a`` plus ``extra`` states that no state of ``a`` reaches and that
    step anywhere, with all state indices shuffled."""
    n = a.n + extra
    trans = dict(a.trans)
    for q in range(a.n, n):
        for e in range(len(a.alphabet)):
            if rng.random() < 0.5:
                trans[q, e] = rng.randrange(n)
    perm = list(range(n))
    rng.shuffle(perm)
    names = [""] * n
    for q in range(n):
        names[perm[q]] = f"q{q}"
    return Automaton(a.name, a.alphabet, names, perm[a.initial], [perm[q] for q in a.marked],
                     {(perm[q], e): perm[t] for (q, e), t in trans.items()})


def _outcome(check, a, b):
    """The verdict and the map, keys in order, or the refusal."""
    try:
        result = check(a, b)
    except PreconditionError as exc:
        return str(exc)
    return result.verdict, None if result.mapping is None else list(result.mapping.items())


def test_trim_and_reachability_match_oracle():
    rng = random.Random(0)
    unreachable = 0
    for _ in range(300):
        alphabet = random_alphabet(rng, max_events=4)
        a = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=8),
                              rng.randint(0, 4))
        assert a.is_reachable() == bfs_oracle.is_reachable(a)
        unreachable += not a.is_reachable()
        trimmed = trim_reachable(a)
        assert serialize_automaton(trimmed) == serialize_automaton(bfs_oracle.trim_reachable(a))
        assert [trimmed.enabled(q) for q in range(trimmed.n)] == \
            [a.enabled(a.state_index(name)) for name in trimmed.states]
    assert unreachable > 150


def test_reachability_is_walked_once_per_automaton(monkeypatch):
    """``is_reachable`` and ``trim_reachable`` read one memoised BFS order,
    the oracle's, however often they are asked."""
    import supred.automata

    walked, walk = [], supred.automata._reachable_set

    def counting(a):
        walked.append(a)
        return walk(a)

    monkeypatch.setattr(supred.automata, "_reachable_set", counting)
    rng = random.Random(1)
    for _ in range(50):
        alphabet = random_alphabet(rng, max_events=4)
        a = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=8),
                              rng.randint(0, 4))
        del walked[:]
        for _ in range(2):
            assert a.is_reachable() == bfs_oracle.is_reachable(a)
            assert (serialize_automaton(trim_reachable(a))
                    == serialize_automaton(bfs_oracle.trim_reachable(a)))
        assert walked == [a]
        assert a._reach_order == bfs_oracle.reachable_set(a)


def _aut(name, n, marked, trans):
    return Automaton(name, AB, [f"{name.lower()}{q}" for q in range(n)], 0, marked,
                     {(q, AB.index(e)): t for (q, e), t in trans.items()})


# One pair per verdict; each False pair fails the first check it reaches
# at the check it is named after.
BRANCHES = {
    "b lacks a transition": (_aut("A", 1, [], {(0, "a"): 0}), _aut("B", 1, [], {}), False),
    "map not a function": (_aut("A", 1, [], {(0, "a"): 0}),
                           _aut("B", 2, [], {(0, "a"): 1, (1, "a"): 0}), False),
    "map not onto": (_aut("A", 1, [], {(0, "a"): 0}),
                     _aut("B", 2, [], {(0, "a"): 0, (0, "b"): 1}), False),
    "marking mismatch": (_aut("A", 1, [0], {(0, "a"): 0}), _aut("B", 1, [], {(0, "a"): 0}),
                         False),
    "unwitnessed b transition": (_aut("A", 1, [], {(0, "a"): 0}),
                                 _aut("B", 1, [], {(0, "a"): 0, (0, "b"): 0}), False),
    "epimorphism": (_aut("A", 2, [], {(0, "a"): 1, (1, "a"): 0, (1, "b"): 1}),
                    _aut("B", 1, [], {(0, "a"): 0, (0, "b"): 0}), True),
}


def test_epimorphism_branches_match_oracle():
    for name, (a, b, verdict) in BRANCHES.items():
        got = _outcome(is_des_epimorphic, a, b)
        assert got == _outcome(bfs_oracle.is_des_epimorphic, a, b), name
        assert got[0] is verdict, name
    assert _outcome(is_des_epimorphic, *BRANCHES["epimorphism"][:2]) == (True, [(0, 0), (1, 0)])


def test_epimorphism_matches_oracle_on_seeded_pairs():
    """Random pairs, products onto their factors, inflated supervisors onto
    their cores and back, and pairs with unreachable states, which both
    refuse alike."""
    rng = random.Random(1)
    verdicts = {True: 0, False: 0, "refused": 0}
    for _ in range(200):
        alphabet = random_alphabet(rng, max_events=3)
        a = random_automaton(rng, alphabet, max_states=6)
        b = random_automaton(rng, alphabet, max_states=4)
        big = inflated_supervisor(a, rng.randint(1, 3))
        product = trim_reachable(sync_product(a, b))
        with_unreachable = _with_unreachable(rng, b, 1)
        for x, y in ((a, b), (b, a), (big, a), (a, big), (product, a), (product, b),
                     (with_unreachable, a), (a, with_unreachable)):
            got = _outcome(is_des_epimorphic, x, y)
            assert got == _outcome(bfs_oracle.is_des_epimorphic, x, y)
            verdicts["refused" if isinstance(got, str) else got[0]] += 1
    assert min(verdicts.values()) > 100

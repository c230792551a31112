"""The lockstep walk of a plant with two automata, against the product
automata and the path-tuple walk it replaced (``tests/lockstep_oracle.py``),
and the guards that the closed-loop checks read it instead of building
product automata and build strings only for witnesses."""

import random
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supred
from supred.automata import (Alphabet, Automaton, Event, Lockstep, sync_product,
                             sync_product_pairs)
from supred.errors import AlphabetMismatchError
from supred.ordering import compare_reductions, finer_than
from supred.reduction import build_super, extract_cover_from_simsup, generate_equivalent_supervisor
from supred.supervision import control_equivalent, is_normal

from tests import lockstep_oracle
from tests.generators import (
    loose_instance,
    random_alphabet,
    random_automaton,
    random_feasible_supervisor,
    random_plant,
)


def _with_unreachable(rng, a, extra=2):
    """``a`` plus ``extra`` states that nothing reachable leads to; they
    have outgoing transitions of their own."""
    n = a.n + extra
    trans = dict(a.trans)
    for q in range(a.n, n):
        for e in range(len(a.alphabet)):
            if rng.random() < 0.5:
                trans[(q, e)] = rng.randrange(n)
    marked = set(a.marked) | {q for q in range(a.n, n) if rng.random() < 0.5}
    names = list(a.states) + [f"u{q}" for q in range(a.n, n)]
    return Automaton(a.name, a.alphabet, names, a.initial, marked, trans)


def _triples():
    """(g, a, b) triples: supervisors of loose instances, then random
    automata with unreachable states."""
    for seed in range(30):
        rng = random.Random(seed)
        g, s = loose_instance(rng, max_plant=6, max_sup=6, max_events=4)
        other = random_feasible_supervisor(rng, s.alphabet, max_states=4, name="N")
        cands = [s, build_super(g, s), generate_equivalent_supervisor(g, s, seed), other]
        for a in cands:
            for b in cands:
                yield g, a, b
    rng = random.Random(4242)
    for _ in range(60):
        alphabet = random_alphabet(rng, max_events=4)
        g = _with_unreachable(rng, random_plant(rng, alphabet, max_states=6))
        a = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
        b = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
        yield g, a, b


def _product_walk(g, a, b):
    """The BFS order and depths of ``(g||a)||b``, mapped back to triples."""
    ga, pairs_ga = sync_product_pairs(g, a)
    gab, pairs = sync_product_pairs(ga, b)
    depth = [0] * gab.n
    seen = {0}
    queue = deque([0])
    while queue:
        p = queue.popleft()
        for _, t in gab.out(p):
            if t not in seen:
                seen.add(t)
                depth[t] = depth[p] + 1
                queue.append(t)
    return [(*pairs_ga[p], qb) for p, qb in pairs], depth


def test_lockstep_visits_the_product_in_bfs_order():
    count = 0
    for g, a, b in _triples():
        nodes, _ = _product_walk(g, a, b)
        walked = list(Lockstep(g, a, b))
        assert [node for node, _, _, _ in walked] == list(range(len(nodes)))
        assert [(x, qa, qb) for _, x, qa, qb in walked] == nodes
        count += 1
    assert count > 500


def test_lockstep_strings_replay_at_bfs_depth():
    for g, a, b in _triples():
        _, depth = _product_walk(g, a, b)
        walk = Lockstep(g, a, b)
        for node, x, qa, qb in walk:
            string = walk.string(node)
            assert (g.run(string), a.run(string), b.run(string)) == (x, qa, qb)
            assert len(string) == walk.depth[node] == depth[node]


def test_lockstep_strings_are_shortlex_least():
    """Each yielded string is the least of all strings reaching its triple,
    shortest first, ties broken by alphabet order: every other string of
    the same length or shorter reaches another triple or is larger."""
    rng = random.Random(9)
    for _ in range(20):
        alphabet = random_alphabet(rng, max_events=3)
        g = random_plant(rng, alphabet, max_states=4)
        a = random_automaton(rng, alphabet, max_states=3)
        b = random_automaton(rng, alphabet, max_states=3)
        first: dict = {}
        level = [()]
        for _ in range(7):
            for w in level:
                node = (g.run(w), a.run(w), b.run(w))
                if None not in node:
                    first.setdefault(node, w)
            level = [w + (e,) for w in level for e in range(len(alphabet))]
        walk = Lockstep(g, a, b)
        walked = {(x, qa, qb): walk.string(node) for node, x, qa, qb in walk}
        for node, w in walked.items():
            if len(w) < 7:
                assert first[node] == w


def test_lockstep_matches_the_path_tuple_oracle():
    """Same triples in the same order, same BFS depths, same strings; a
    second iteration of one walk starts afresh."""
    for g, a, b in _triples():
        expected = [(x, qa, qb, len(path), path)
                    for x, qa, qb, path in lockstep_oracle.lockstep(g, a, b)]
        walk = Lockstep(g, a, b)
        for _ in range(2):
            got = [(x, qa, qb, walk.depth[node], walk.string(node))
                   for node, x, qa, qb in walk]
            assert got == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 20))
def test_lockstep_keeps_the_triples_it_yielded(seed, stop):
    """After a full iteration the arrays hold the yielded triples in node
    order; an iteration cut short and then a fresh one leave the same
    arrays."""
    rng = random.Random(seed)
    alphabet = random_alphabet(rng, max_events=4)
    g = _with_unreachable(rng, random_plant(rng, alphabet, max_states=6))
    a = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
    b = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
    walk = Lockstep(g, a, b)
    yielded = list(walk)
    assert list(zip(range(len(walk.xs)), walk.xs, walk.qas, walk.qbs)) == yielded
    for node, _, _, _ in walk:
        if node == stop:
            break
    for _ in walk:
        pass
    assert list(zip(range(len(walk.xs)), walk.xs, walk.qas, walk.qbs)) == yielded


def _chain(n):
    """A one-state plant that allows and marks every string of one event,
    and an ``n``-state chain of that event marked at its end."""
    alphabet = Alphabet([Event("a", True, True)])
    plant = Automaton("G", alphabet, ["g"], 0, [0], {(0, 0): 0})
    chain = Automaton("C", alphabet, [f"c{i}" for i in range(n)], 0, [n - 1],
                      {(i, 0): i + 1 for i in range(n - 1)})
    return plant, chain


def test_walks_keep_no_string_per_triple():
    """The walk keeps a parent, an event and a depth per triple, not a
    string: a string per triple of a 3,000-state chain took over 30 MB."""
    plant, chain = _chain(3000)
    other = chain.renamed("D")
    tracemalloc.start()
    try:
        assert is_normal(plant, chain, other) == (True, None)
        assert control_equivalent(plant, chain, other) == (True, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5_000_000


def test_control_equivalent_rebuilds_a_deep_witness():
    plant, chain = _chain(3000)
    unmarked = Automaton("U", chain.alphabet, chain.states, 0, [], chain.trans)
    assert control_equivalent(plant, chain, unmarked) == (False, ["a"] * 2999)


def test_control_equivalent_of_an_automaton_with_itself_walks_nothing(monkeypatch):
    g, s = loose_instance(random.Random(0), max_plant=6, max_sup=6, max_events=4)

    def no_walk(self):
        raise AssertionError("walked")

    monkeypatch.setattr(Lockstep, "__iter__", no_walk)
    assert control_equivalent(g, s, s) == (True, None)
    with pytest.raises(AssertionError):
        control_equivalent(g, s, s.renamed("T"))
    first, *rest = s.alphabet.events
    other = s.with_alphabet(Alphabet([Event(first.name, not first.controllable,
                                            first.observable), *rest]))
    with pytest.raises(AlphabetMismatchError):
        control_equivalent(g, other, other)


@pytest.fixture
def product_calls(monkeypatch):
    """Counts ``sync_product_pairs`` calls made through any ``supred``
    module that binds it (``sync_product`` calls it too)."""
    calls = []
    original = sync_product_pairs

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (supred.automata, supred.supervision, supred.ordering, supred.reduction):
        if hasattr(module, "sync_product_pairs"):
            monkeypatch.setattr(module, "sync_product_pairs", counting)
    return calls


def test_closed_loop_checks_build_no_product(product_calls):
    compared = 0
    for seed in range(20):
        g, s = loose_instance(random.Random(seed), max_plant=6, max_sup=6, max_events=4)
        loop = sync_product(g, s)
        del product_calls[:]
        sup = build_super(g, s)
        equiv = generate_equivalent_supervisor(g, s, seed)
        control_equivalent(g, s, equiv)
        supred.language_equivalent(loop, loop)
        is_normal(g, s, equiv)
        is_normal(g, s, sup)
        finer_than(g, s, sup, equiv)
        finer_than(g, s, equiv, sup)
        if sup.n <= 6:
            compare_reductions(g, s, sup, equiv, cap_states=6)
            compared += 1
        extract_cover_from_simsup(sup, equiv, g, s)
        assert product_calls == []
    assert compared >= 10

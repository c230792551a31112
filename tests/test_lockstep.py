"""The lockstep walk of a plant with two automata, against the product
automata and the path-tuple walk it replaced (``tests/lockstep_oracle.py``),
and the guards that the closed-loop checks read it instead of building
product automata and build strings only for witnesses."""

import random
import tracemalloc
from bisect import bisect_right
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supred
from supred.automata import Alphabet, Automaton, Event, Lockstep, separating_string, sync_product
from supred.errors import AlphabetMismatchError
from supred.ordering import compare_full_vs_partial, compare_reductions, finer_than
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
from tests.product_oracle import sync_product_pairs


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


def _walked(walk):
    """``(node, x, qa, qb, level)`` per triple, read off each level as
    :meth:`Lockstep.levels` hands it over, before it is expanded."""
    return [(node, walk.xs[node], walk.qas[node], walk.qbs[node], level)
            for level, (lo, hi) in enumerate(walk.levels()) for node in range(lo, hi)]


def test_lockstep_visits_the_product_in_bfs_order():
    count = 0
    for g, a, b in _triples():
        nodes, _ = _product_walk(g, a, b)
        walked = _walked(Lockstep(g, a, b))
        assert [node for node, _, _, _, _ in walked] == list(range(len(nodes)))
        assert [(x, qa, qb) for _, x, qa, qb, _ in walked] == nodes
        walk = Lockstep(g, a, b).run()
        assert list(zip(walk.xs, walk.qas, walk.qbs)) == nodes
        count += 1
    assert count > 500


def test_lockstep_strings_replay_at_bfs_depth():
    """The level a node is handed over in, the level its start places it
    in, its product depth and the length of its string agree."""
    for g, a, b in _triples():
        _, depth = _product_walk(g, a, b)
        walk = Lockstep(g, a, b)
        for node, x, qa, qb, level in _walked(walk):
            string = walk.string(node)
            assert (g.run(string), a.run(string), b.run(string)) == (x, qa, qb)
            assert len(string) == level == depth[node]
            assert bisect_right(walk.starts, node) - 1 == level


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
        walk = Lockstep(g, a, b).run()
        walked = {triple: walk.string(node)
                  for node, triple in enumerate(zip(walk.xs, walk.qas, walk.qbs))}
        for node, w in walked.items():
            if len(w) < 7:
                assert first[node] == w


def test_lockstep_matches_the_path_tuple_oracle():
    """Same triples in the same order, same BFS depths, same strings; a
    second walk of one ``Lockstep`` starts afresh."""
    for g, a, b in _triples():
        expected = [(x, qa, qb, len(path), path)
                    for x, qa, qb, path in lockstep_oracle.lockstep(g, a, b)]
        walk = Lockstep(g, a, b)
        for _ in range(2):
            got = [(x, qa, qb, level, walk.string(node))
                   for node, x, qa, qb, level in _walked(walk)]
            assert got == expected


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 20))
def test_lockstep_keeps_the_triples_it_yielded(seed, stop):
    """After a full walk the arrays hold the handed-over triples in node
    order.  A walk cut short on receiving level ``stop`` holds the levels
    up to it, unexpanded, and their starts; a fresh walk then leaves the
    full arrays."""
    rng = random.Random(seed)
    alphabet = random_alphabet(rng, max_events=4)
    g = _with_unreachable(rng, random_plant(rng, alphabet, max_states=6))
    a = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
    b = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
    walk = Lockstep(g, a, b)
    walked = _walked(walk)
    arrays = (walk.xs[:], walk.qas[:], walk.qbs[:], walk.parent[:], walk.event[:])
    starts = walk.starts[:]
    assert [(node, x, qa, qb) for node, x, qa, qb, _ in walked] == list(
        zip(range(len(walk.xs)), walk.xs, walk.qas, walk.qbs))
    assert starts == [node for node, _, _, _, level in walked
                      if node == 0 or walked[node - 1][4] != level]
    for level, (lo, hi) in enumerate(walk.levels()):
        assert (lo, hi) == (starts[level], (starts + [len(walked)])[level + 1])
        if level == stop:
            break
    held = (starts + [len(walked)])[min(stop + 1, len(starts))]
    assert walk.starts == starts[:min(stop + 1, len(starts))]
    assert (walk.xs, walk.qas, walk.qbs, walk.parent, walk.event) == tuple(
        column[:held] for column in arrays)
    assert walk.run() is walk
    assert (walk.xs, walk.qas, walk.qbs, walk.parent, walk.event) == arrays
    assert walk.starts == starts


def _chain(n):
    """A one-state plant that allows and marks every string of one event,
    and an ``n``-state chain of that event marked at its end."""
    alphabet = Alphabet([Event("a", True, True)])
    plant = Automaton("G", alphabet, ["g"], 0, [0], {(0, 0): 0})
    chain = Automaton("C", alphabet, [f"c{i}" for i in range(n)], 0, [n - 1],
                      {(i, 0): i + 1 for i in range(n - 1)})
    return plant, chain


def test_walks_keep_no_string_per_triple():
    """The walk keeps a parent and an event per triple, not a string: a
    string per triple of a 3,000-state chain took over 30 MB."""
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


@pytest.mark.parametrize("depth", [0, 5])
def test_a_failing_check_stops_one_level_past_its_first_witness(depth):
    """A marking clash at level ``depth`` is a witness of that length, and
    the walk stops once level ``depth + 1`` is complete; an event just one
    side defines at level ``depth`` is a witness one longer, so the walk
    checks one more level.  Neither walks the 3,000-state closed loop."""
    plant, chain = _chain(3000)
    marked = Automaton("M", chain.alphabet, chain.states, 0, [depth, 2999], chain.trans)
    walk = Lockstep(plant, chain, marked)
    assert separating_string(walk) == ["a"] * depth
    assert (walk.qas, walk.starts) == (list(range(depth + 2)), list(range(depth + 2)))
    assert control_equivalent(plant, chain, marked) == (False, ["a"] * depth)

    alphabet = Alphabet([Event("a", True, True), Event("b", True, True)])
    plant = Automaton("G", alphabet, ["g"], 0, [0], {(0, 0): 0, (0, 1): 0})
    chain = Automaton("C", alphabet, chain.states, 0, chain.marked, chain.trans)
    loop = Automaton("L", alphabet, chain.states, 0, chain.marked,
                     {**chain.trans, (depth, 1): depth})
    walk = Lockstep(plant, chain, loop)
    assert separating_string(walk) == ["a"] * depth + ["b"]
    assert (walk.qas, walk.starts) == (list(range(depth + 3)), list(range(depth + 3)))


def test_control_equivalent_of_an_automaton_with_itself_walks_nothing(monkeypatch):
    g, s = loose_instance(random.Random(0), max_plant=6, max_sup=6, max_events=4)

    def no_walk(self):
        raise AssertionError("walked")

    monkeypatch.setattr(Lockstep, "levels", no_walk)
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
    """Counts ``sync_product`` calls made through the ``supred`` modules
    that bind it (``cli`` reads it off ``supred.automata``); patching a name
    a module no longer binds raises."""
    calls = []
    original = sync_product

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in (supred.automata, supred.ordering):
        monkeypatch.setattr(module, "sync_product", counting)
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


def test_full_vs_partial_builds_one_product(product_calls):
    """``compare_full_vs_partial`` builds the closed loop of ``s_full`` as a
    product, to test it for isomorphism, and builds no product for
    ``s_partial``: its observer is built on closed-loop pairs."""
    checked = 0
    for seed in range(20):
        g, s = loose_instance(random.Random(seed), max_plant=6, max_sup=6, max_events=4,
                              require_unobservable=True)
        s_full = sync_product(g, s, name="SF")
        s_partial = build_super(g, s)
        if max(s_full.n, s_partial.n) > 8:
            continue
        del product_calls[:]
        compare_full_vs_partial(g, s_full, s_partial)
        assert product_calls == [(g, s_full)]
        checked += 1
    assert checked >= 10

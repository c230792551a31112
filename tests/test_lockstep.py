"""The lockstep walk of a plant with two automata, against the product
automata, the path-tuple walk (``tests/lockstep_oracle.py``), the
complete triple walk it replaced (``TripleLockstep`` there) and the
level-by-level walk with its early-stopping witness search
(``tests/level_walk_oracle.py``), and the guards that the closed-loop
checks read it instead of building product automata and build strings
only for witnesses.  The node-level checks (breadth-first order, depths,
shortlex strings) are made on the witness search, ``Lockstep.triples``."""

import random
import tracemalloc
from collections import Counter, deque
from itertools import chain, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import supred
from supred.automata import Alphabet, Automaton, Event, Lockstep, separating_string, sync_product
from supred.errors import AlphabetMismatchError
from supred.ordering import (compare_full_vs_partial, compare_reductions, finer_than,
                             verify_super_is_finest)
from supred.reduction import build_super, extract_cover_from_simsup, generate_equivalent_supervisor
from supred.supervision import control_equivalent, is_normal, normal_in

from tests import closed_loop_oracle, level_walk_oracle, lockstep_oracle
from tests.generators import (
    loose_instance,
    random_alphabet,
    random_automaton,
    random_feasible_supervisor,
    random_plant,
)
from tests.product_oracle import sync_product_pairs
from tests.test_closed_loop_oracle import _candidates, _outcome


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
        for _, t in gab.out_rows[p]:
            if t not in seen:
                seen.add(t)
                depth[t] = depth[p] + 1
                queue.append(t)
    return [(*pairs_ga[p], qb) for p, qb in pairs], depth


def _walked(walk):
    """``(node, x, qa, qb, depth)`` per triple of the witness search run to
    its end, in node order, the depth counted along the parent pointers."""
    nodes = list(walk.triples())
    depth = [0] * len(nodes)
    for node in range(1, len(nodes)):
        assert walk.parent[node] < node
        depth[node] = depth[walk.parent[node]] + 1
    return [(node, x, walk.pair_a[p], walk.pair_b[p], depth[node])
            for node, (x, p) in enumerate(nodes)]


def _reached(walk):
    """Per pair ``(qa, qb)`` the walk reached, the plant states walked with
    it; the pair ids are not compared."""
    return dict(zip(zip(walk.pair_a, walk.pair_b), walk.reached))


def test_lockstep_visits_the_product_in_bfs_order():
    count = 0
    for g, a, b in _triples():
        nodes, depth = _product_walk(g, a, b)
        walked = _walked(Lockstep(g, a, b))
        assert [(x, qa, qb) for _, x, qa, qb, _ in walked] == nodes
        assert [level for _, _, _, _, level in walked] == depth
        count += 1
    assert count > 500


def test_lockstep_strings_replay_at_bfs_depth():
    """A node's depth along its parents, its product depth and the length
    of its string agree, and the string leads to its triple."""
    for g, a, b in _triples():
        _, depth = _product_walk(g, a, b)
        walk = Lockstep(g, a, b)
        for node, x, qa, qb, level in _walked(walk):
            string = walk.string(node)
            assert (g.run(string), a.run(string), b.run(string)) == (x, qa, qb)
            assert len(string) == level == depth[node]


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
        walked = {(x, qa, qb): walk.string(node) for node, x, qa, qb, _ in _walked(walk)}
        for node, w in walked.items():
            if len(w) < 7:
                assert first[node] == w


def test_lockstep_matches_the_path_tuple_oracle():
    """Same triples in the same order, same BFS depths, same strings."""
    for g, a, b in _triples():
        expected = [(x, qa, qb, len(path), path)
                    for x, qa, qb, path in lockstep_oracle.lockstep(g, a, b)]
        walk = Lockstep(g, a, b)
        got = [(x, qa, qb, level, walk.string(node)) for node, x, qa, qb, level in _walked(walk)]
        assert got == expected


def _nodes(walk):
    """The arrays of a triple walk, each node's pair given by its states."""
    pair_a, pair_b = walk.pair_a, walk.pair_b
    return [walk.xs, [(pair_a[p], pair_b[p]) for p in walk.pairs], walk.parent, walk.event]


def _searched(walk):
    """The arrays of the witness search run to its end, in the same form."""
    nodes = list(walk.triples())
    return [[x for x, _ in nodes], [(walk.pair_a[p], walk.pair_b[p]) for _, p in nodes],
            walk.parent, walk.event]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(0, 20))
def test_lockstep_keeps_the_triples_it_yielded(seed, stop):
    """The witness search lists every triple the level-by-level walk hands
    over, in its order, and the walk keeps the same plant states per pair:
    the search's arrays equal those of that walk run to the end, its level
    starts are where the depth along the parents grows, and the level walk
    cut short on receiving level ``stop`` holds a prefix of them."""
    rng = random.Random(seed)
    alphabet = random_alphabet(rng, max_events=4)
    g = _with_unreachable(rng, random_plant(rng, alphabet, max_states=6))
    a = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
    b = _with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
    walk, oracle = Lockstep(g, a, b), level_walk_oracle.Lockstep(g, a, b)
    assert _searched(walk) == _nodes(oracle.run())
    assert _reached(walk) == _reached(oracle)
    walked = _walked(walk)
    assert oracle.starts == [node for node, _, _, _, level in walked
                             if node == 0 or walked[node - 1][4] != level]
    for level, _ in enumerate(oracle.levels()):
        if level == stop:
            break
    held = len(oracle.xs)
    assert [f[:held] for f in _searched(walk)] == _nodes(oracle)


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


def _deep_chains():
    """(plant, chain, other, witness) over 3,000-state chains that first
    differ near depth 0, 5 and 2,000: by marking alone, by an event only
    ``other`` defines alone, and by both, with the marking clash one or two
    levels deeper; of two witnesses of one length the one ending in ``a``
    is the least."""
    plant, chain = _chain(3000)
    alphabet = Alphabet([Event("a", True, True), Event("b", True, True)])
    plant2 = Automaton("G", alphabet, ["g"], 0, [0], {(0, 0): 0, (0, 1): 0})
    chain2 = Automaton("C", alphabet, chain.states, 0, chain.marked, chain.trans)
    for depth in (0, 5, 2000):
        yield (plant, chain,
               Automaton("M", chain.alphabet, chain.states, 0, [depth, 2999], chain.trans),
               ["a"] * depth)
        loop = {**chain.trans, (depth, 1): depth}
        yield (plant2, chain2, Automaton("L", alphabet, chain.states, 0, chain.marked, loop),
               ["a"] * depth + ["b"])
        yield (plant2, chain2, Automaton("T", alphabet, chain.states, 0, [depth + 1, 2999], loop),
               ["a"] * (depth + 1))
        yield (plant2, chain2, Automaton("E", alphabet, chain.states, 0, [depth + 2, 2999], loop),
               ["a"] * depth + ["b"])


def test_witnesses_match_the_level_walk():
    """``separating_string`` on the complete walk gives the witness of the
    level walk that stops one level past its first witness, on seeded
    families and 2,000 random triples, over 700 of them separated and over
    700 not."""
    def random_triples(rng):
        for _ in range(2000):
            alphabet = random_alphabet(rng, max_events=3)
            g = random_plant(rng, alphabet, max_states=4)
            yield g, *(random_automaton(rng, alphabet, max_states=4) for _ in range(2))

    verdicts = Counter()
    for g, a, b in chain(_triples(), random_triples(random.Random(2929))):
        got = separating_string(Lockstep(g, a, b))
        assert got == level_walk_oracle.separating_string(level_walk_oracle.Lockstep(g, a, b))
        verdicts[got is None] += 1
    assert min(verdicts.values()) >= 700, verdicts


def test_deep_chains_give_the_least_witness():
    """On the deep chains the witness is the least, shorter first, and that
    of the level walk, which stops within a few levels of it."""
    for plant, chain, other, witness in _deep_chains():
        assert separating_string(Lockstep(plant, chain, other)) == witness
        assert level_walk_oracle.separating_string(
            level_walk_oracle.Lockstep(plant, chain, other)) == witness
        assert control_equivalent(plant, chain, other) == (False, witness)


def test_control_equivalent_of_an_automaton_with_itself_walks_nothing(monkeypatch):
    g, s = loose_instance(random.Random(0), max_plant=6, max_sup=6, max_events=4)

    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(supred.automata, "Lockstep", no_walk)
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


@pytest.fixture
def walk_calls(monkeypatch):
    """Counts ``Lockstep`` walks (constructions, each of which walks to the
    end) and ``closed_loop_pairs`` calls made through every ``supred``
    module that binds it."""
    calls = Counter()
    init, pairs = Lockstep.__init__, supred.automata.closed_loop_pairs

    def counting_init(self, *args):
        calls["Lockstep"] += 1
        init(self, *args)

    def counting_pairs(*args):
        calls["closed_loop_pairs"] += 1
        return pairs(*args)

    monkeypatch.setattr(Lockstep, "__init__", counting_init)
    for module in (supred.automata, supred.supervision, supred.ordering, supred.reduction):
        if hasattr(module, "closed_loop_pairs"):
            monkeypatch.setattr(module, "closed_loop_pairs", counting_pairs)
    return calls


def _small_equivalents():
    """(g, s, SUPER, a generated equivalent supervisor) where SUPER is
    small enough for ``compare_reductions`` at cap 6."""
    for seed in range(20):
        g, s = loose_instance(random.Random(seed), max_plant=6, max_sup=6, max_events=4)
        sup = build_super(g, s)
        if sup.n <= 6:
            yield g, s, sup, generate_equivalent_supervisor(g, s, seed)


def _assert_walks(walk_calls, call, lockstep, pairs):
    walk_calls.clear()
    call()
    assert (walk_calls["Lockstep"], walk_calls["closed_loop_pairs"]) == (lockstep, pairs)


def test_super_lists_closed_loop_pairs_only_for_plant_names_with_commas(walk_calls):
    """``build_super`` walks the closed loop once, as its subset
    construction, and ``generate_equivalent_supervisor`` reads SUPER's
    control data off the same construction: neither makes a ``Lockstep``
    walk or a ``closed_loop_pairs`` call (they made 1 and 2 pair walks),
    unless a plant state name holds ``,`` and pair names may collide, when
    one ``closed_loop_pairs`` call names them in the product's order."""
    for seed in range(20):
        g, s = loose_instance(random.Random(seed), max_plant=6, max_sup=6, max_events=4,
                              require_unobservable=seed % 2 == 0)
        commas = Automaton(g.name, g.alphabet, [f"{name},{k}" for k, name in enumerate(g.states)],
                           g.initial, g.marked, g.trans)
        for plant, pairs in ((g, 0), (commas, 1)):
            _assert_walks(walk_calls, lambda: build_super(plant, s), 0, pairs)
            _assert_walks(walk_calls, lambda: generate_equivalent_supervisor(plant, s, seed),
                          0, pairs)


def test_each_closed_loop_hypothesis_is_read_off_one_walk(walk_calls):
    """``compare_reductions`` walks each candidate once, against ``s`` for
    ``s1`` and against ``s1`` for ``s2``, and reads normality off that
    walk, whatever the reference; ``extract_cover_from_simsup`` reads
    normality off its equivalence walk, its second walk gives the cells and
    its ``closed_loop_pairs`` call is the loop controllability check's."""
    checked = 0
    for g, s, sup, equiv in _small_equivalents():
        _assert_walks(walk_calls, lambda: compare_reductions(g, s, sup, equiv, cap_states=6), 2, 0)
        _assert_walks(walk_calls, lambda: compare_reductions(g, sup, sup, equiv, cap_states=6),
                      2, 0)
        _assert_walks(walk_calls, lambda: extract_cover_from_simsup(sup, equiv, g, s), 2, 1)
        checked += 1
    assert checked >= 10


def test_normality_and_fineness_walk_once_per_candidate_checked(walk_calls):
    """``is_normal`` walks once; ``finer_than`` walks once, and once more
    to check ``s1`` against a third reference."""
    for g, s, sup, equiv in _small_equivalents():
        _assert_walks(walk_calls, lambda: is_normal(g, s, equiv), 1, 0)
        _assert_walks(walk_calls, lambda: finer_than(g, sup, sup, equiv), 1, 0)
        _assert_walks(walk_calls, lambda: finer_than(g, s, sup, equiv), 2, 0)


def test_verify_super_is_finest_walks_once(walk_calls):
    """SUPER is control equivalent to ``s`` by construction, so it serves
    as the reference and the check is one walk, of SUPER with the
    candidate; verdicts and refusals are those of the rebuilding oracle's
    ``finer_than(g, s, SUPER, s_prime)``."""
    outcomes = Counter()
    for seed in range(25):
        g, s, cands = _candidates(seed)
        sup = build_super(g, s)
        for cand in cands:
            walk_calls.clear()
            got = _outcome(verify_super_is_finest, g, s, cand)
            assert walk_calls["Lockstep"] == 1
            assert got == _outcome(closed_loop_oracle.finer_than, g, s, sup, cand)
            outcomes[got[0] if got[0] == "raised" else got[1].verdict] += 1
    assert outcomes[True] >= 80 and outcomes["raised"] >= 40, outcomes


def test_full_vs_partial_reads_both_control_data_off_its_equivalence_walk(walk_calls):
    """One ``Lockstep`` walk for the equivalence check, which also gives
    both sides' control data; ``closed_loop_pairs`` runs once, for the
    product of ``s_full``, and the observer of ``s_partial`` is its subset
    construction alone (it ran twice)."""
    checked = 0
    for seed in range(20):
        g, s = loose_instance(random.Random(seed), max_plant=6, max_sup=6, max_events=4,
                              require_unobservable=True)
        s_full = sync_product(g, s, name="SF")
        s_partial = build_super(g, s)
        if max(s_full.n, s_partial.n) <= 8:
            _assert_walks(walk_calls, lambda: compare_full_vs_partial(g, s_full, s_partial), 1, 1)
            checked += 1
    assert checked >= 10


def test_normality_reads_off_a_walk_with_any_equivalent_reference():
    """``normal_in`` on the walk of ``s1`` and ``sp`` gives the verdict and
    witness of ``is_normal(g, s, sp)`` whenever ``s1`` is control
    equivalent to ``s``: every fact it reads is one of the closed loop."""
    verdicts = Counter()
    for seed in range(25):
        g, s, cands = _candidates(seed)
        for s1, sp in product(cands[:-1], repeat=2):  # the last is mismatched
            if control_equivalent(g, s, s1)[0]:
                got = normal_in(Lockstep(g, s1, sp))
                assert got == is_normal(g, s, sp)
                verdicts[got[0]] += 1
    assert min(verdicts[True], verdicts[False]) >= 100, verdicts


def test_a_walk_that_separates_nothing_is_complete():
    """Every walk is complete when built, and ``separating_string`` only
    reads its pairs and walks the triples afresh, so ``normal_in`` and
    ``_finer`` may read the walk whatever it returned: the pairs, their
    plant states and the expansions stay as built, and are those of the
    level walk run to its end."""
    verdicts = Counter()
    for g, a, b in _triples():
        walk = Lockstep(g, a, b)
        built = (walk.pair_a[:], walk.pair_b[:], walk.reached[:], walk.expansions)
        verdicts[separating_string(walk) is None] += 1
        assert (walk.pair_a, walk.pair_b, walk.reached, walk.expansions) == built
        assert _reached(walk) == _reached(level_walk_oracle.Lockstep(g, a, b).run())
    assert verdicts[True] >= 300 and verdicts[False] >= 100, verdicts

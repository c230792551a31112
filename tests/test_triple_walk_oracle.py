"""Differential tests: the pair walk (``supred.automata.Lockstep``), which
closes each pair's plant states under the pair's selfloops and walks the
triples only to rebuild a witness, against the complete triple walk it
replaced (``tests/lockstep_oracle.py``: ``TripleLockstep``, with its node
readers ``separating_string`` and ``finer``), and against the pair walk
that kept a successor table per pair (``TableLockstep`` there).

The pairs and their plant states must agree on seeded families, on the
bench's ``finest_compare`` pairs and on automata with observable
selfloops, and the checks built on the walk must give the same verdicts,
witnesses and refusals as the same checks run on the oracle, on families
made to fail by a flipped marking or a cut transition."""

import functools
import random
from collections import Counter
from itertools import product

import supred
from supred.automata import Automaton, Lockstep, separating_string
from supred.ordering import _finer, compare_reductions, finer_than
from supred.reduction import build_super, extract_cover_from_simsup, generate_equivalent_supervisor

from tests import lockstep_oracle
from tests.generators import (
    loose_instance,
    partial_observation_pair,
    random_alphabet,
    random_automaton,
    random_plant,
    scale_pair,
)
from tests.test_closed_loop_oracle import _outcome
from tests.test_lockstep import _reached, _triples


@functools.cache
def _finest_compare_pairs():
    """(plant, S, SUPER) for the ten pairs of the ``finest_compare`` bench
    workload: seeds 0-4 of the counter-inflated and of the random
    partial-observation family."""
    pairs = [scale_pair(random.Random(i), core_states=8, factor=25) for i in range(5)]
    pairs += [partial_observation_pair(i) for i in range(5)]
    return [(g, s, build_super(g, s)) for g, s in pairs]


def _looped(rng, a, share=0.5):
    """``a`` with a selfloop on every observable event it leaves undefined,
    at about ``share`` of its states."""
    trans = dict(a.trans)
    for q in range(a.n):
        if rng.random() < share:
            for e, event in enumerate(a.alphabet.events):
                if event.observable and (q, e) not in trans:
                    trans[(q, e)] = q
    return Automaton(a.name, a.alphabet, a.states, a.initial, a.marked, trans)


def _looped_triples():
    """(g, a, b) over random automata with observable selfloops: ``a`` and
    ``b`` share their transitions, or ``b`` is drawn afresh, so that both
    selfloop together at many pairs."""
    rng = random.Random(3131)
    for _ in range(150):
        alphabet = random_alphabet(rng, max_events=4)
        g = random_plant(rng, alphabet, max_states=8)
        a = random_automaton(rng, alphabet, max_states=5)
        looped = _looped(rng, a)
        yield g, looped, _looped(rng, a)
        yield g, looped, _looped(rng, random_automaton(rng, alphabet, max_states=5))
        yield g, looped, looped.renamed("B")


def _all_triples():
    yield from _triples()
    yield from _looped_triples()
    for seed in range(3):
        g, s = partial_observation_pair(seed)
        sup = build_super(g, s)
        yield g, s, sup
        yield g, sup, s
    for g, s, sup in _finest_compare_pairs():
        yield g, s, sup
        yield g, sup, s


def test_pairs_reach_the_plant_states_of_the_triple_walk():
    """Every pair of the triple walk is reached, once, with the plant
    states of its triples, and the pair walk pops at most each pair once
    per plant state."""
    walks = looped = 0
    for g, a, b in _all_triples():
        walk = Lockstep(g, a, b)
        assert _reached(walk) == _reached(lockstep_oracle.TripleLockstep(g, a, b))
        assert len(walk.pair_a) == len(set(zip(walk.pair_a, walk.pair_b)))
        assert len(walk.pair_a) <= walk.expansions <= len(walk.pair_a) * g.n
        walks += 1
        looped += walk.expansions > len(walk.pair_a)
    assert walks > 1000 and looped > 20, (walks, looped)


def test_walk_matches_the_successor_table_walk():
    """Against the walk that kept a successor pair table next to its pair
    index (``TableLockstep``): the same pairs in the same order, with the
    same plant states and pops; the same triples in the same order with
    the same parents and events, hence the same strings; and the same
    separating strings and fineness witnesses.  At least 20 of the walks
    pop some pair more than once, so :meth:`Lockstep.triples` looks up
    successors of pairs whose plant states grew over several pops."""
    walks = repopped = separated = unfiner = 0
    for g, a, b in _all_triples():
        walk, table = Lockstep(g, a, b), lockstep_oracle.TableLockstep(g, a, b)
        assert (walk.pair_a, walk.pair_b, walk.reached, walk.expansions) == (
            table.pair_a, table.pair_b, table.reached, table.expansions)
        assert list(walk.triples()) == list(table.triples())
        assert (walk.parent, walk.event) == (table.parent, table.event)
        string = separating_string(walk)
        assert string == separating_string(table)
        witness = _finer(g, walk)[0]
        assert witness == _finer(g, table)[0]
        walks += 1
        repopped += walk.expansions > len(walk.pair_a)
        separated += string is not None
        unfiner += not witness
    assert walks > 1000 and repopped >= 20, (walks, repopped)
    assert min(separated, unfiner) >= 100, (separated, unfiner)


def test_finest_compare_pops_each_pair_once():
    """On the ten ``finest_compare`` pairs, in both orders, every pair is
    popped exactly once: 5,101 expansions, SUPER's 5,101 states.  Without
    the selfloop closure the walk pops pairs again as the plant states
    that the unobservable selfloops add reach them one by one."""
    for flip in (False, True):
        expansions = pairs = 0
        for g, s, sup in _finest_compare_pairs():
            walk = Lockstep(g, sup, s) if flip else Lockstep(g, s, sup)
            expansions += walk.expansions
            pairs += len(walk.pair_a)
        assert expansions == pairs == sum(sup.n for _, _, sup in _finest_compare_pairs()) == 5101


def _flipped(rng, s):
    """``s`` with the marking of one state flipped."""
    q = rng.randrange(s.n)
    return Automaton(f"{s.name}m", s.alphabet, s.states, s.initial, s.marked ^ {q}, s.trans)


def _cut(rng, s):
    """``s`` without one of its transitions (``s`` itself when it has
    none)."""
    trans = dict(s.trans)
    if trans:
        del trans[rng.choice(sorted(trans))]
    return Automaton(f"{s.name}c", s.alphabet, s.states, s.initial, s.marked, trans)


def _failing_families():
    """(g, s, SUPER, candidates): S, SUPER and a generated equivalent,
    each also with one marking flipped and with one transition cut."""
    for seed in range(25):
        rng = random.Random(seed)
        g, s = loose_instance(rng, max_plant=6, max_sup=6, max_events=4)
        sup = build_super(g, s)
        cands = [s, sup, generate_equivalent_supervisor(g, s, seed)]
        cands += [mutate(rng, c) for c in cands for mutate in (_flipped, _cut)]
        yield g, s, sup, cands


def _oracle_backed(monkeypatch, fn, *args):
    """``fn``'s outcome with the library's walk and node readers replaced by
    the triple walk's, in every module that binds them."""
    with monkeypatch.context() as patch:
        for module in (supred.automata, supred.supervision, supred.ordering, supred.reduction):
            if hasattr(module, "Lockstep"):
                patch.setattr(module, "Lockstep", lockstep_oracle.TripleLockstep)
            if hasattr(module, "separating_string"):
                patch.setattr(module, "separating_string", lockstep_oracle.separating_string)
        patch.setattr(supred.ordering, "_finer", lockstep_oracle.finer)
        return _outcome(fn, *args)


def _kind(outcome):
    if outcome[0] == "raised":
        return outcome[2].split("'")[1]  # the violated precondition
    verdict = outcome[1]
    return getattr(verdict, "verdict", verdict is not None)


def test_checks_match_the_triple_walk_on_failing_families(monkeypatch):
    """``separating_string``, ``finer_than``, ``compare_reductions`` and
    ``extract_cover_from_simsup`` give the same witnesses, clauses, sizes,
    covers and refusals as on the triple walk."""
    kinds = Counter()
    for g, s, sup, cands in _failing_families():
        for a, b in product(cands, repeat=2):
            got = separating_string(Lockstep(g, a, b))
            assert got == lockstep_oracle.separating_string(lockstep_oracle.TripleLockstep(g, a, b))
            kinds["equal" if got is None else "separated"] += 1
            for fn, args in ((finer_than, (g, s, a, b)), (finer_than, (g, b, a, b)),
                             (compare_reductions, (g, s, a, b, 6))):
                got = _outcome(fn, *args)
                assert got == _oracle_backed(monkeypatch, fn, *args)
                kinds[fn.__name__, _kind(got)] += 1
        for simsup in cands:
            got = _outcome(extract_cover_from_simsup, sup, simsup, g, s)
            assert got == _oracle_backed(monkeypatch, extract_cover_from_simsup, sup, simsup, g, s)
            kinds["extract", got[0]] += 1
    assert min(kinds["separated"], kinds["equal"]) >= 500, kinds
    assert min(kinds["finer_than", True], kinds["finer_than", False],
               kinds["finer_than", "control-equivalence"]) >= 50, kinds
    assert min(kinds["compare_reductions", "control-equivalence"],
               kinds["compare_reductions", True]) >= 20, kinds
    assert min(kinds["extract", "returned"], kinds["extract", "raised"]) >= 20, kinds


def test_witnesses_match_the_triple_walk_on_flipped_finest_compare_pairs():
    """On the ten ``finest_compare`` pairs with one marking of S flipped,
    and with one transition cut, the separating strings of S against SUPER
    are the triple walk's."""
    rng = random.Random(7)
    separated = 0
    for g, s, sup in _finest_compare_pairs():
        for bad in (_flipped(rng, s), _cut(rng, s)):
            for a, b in ((bad, sup), (sup, bad)):
                got = separating_string(Lockstep(g, a, b))
                assert got == lockstep_oracle.separating_string(
                    lockstep_oracle.TripleLockstep(g, a, b))
                separated += got is not None
    assert separated >= 30

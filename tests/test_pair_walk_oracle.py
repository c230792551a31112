"""Differential tests: the walks that intern pairs of automaton states and
keep one bitmask of plant states per pair (``supred.automata.Lockstep``,
whose triples its witness search lists) or per supervisor state
(``supred.supervision.closed_loop_pairs``), and the readers that fold
plant data once per distinct bitmask, against the walks that coded every
visited triple or pair as one int (``tests/lockstep_oracle.py``,
``tests/closed_loop_oracle.py``).

Arrays, strings, pairs, control data, the verdicts and witnesses of the
closed-loop checks and SUPER's text must all agree, on seeded families
that include automata with unreachable states, one-state plants and walks
whose triple walk is cut short at a level."""

import random
from itertools import product

from supred.automata import Automaton, Lockstep, serialize_automaton, sync_product
from supred.ordering import finer_than
from supred.reduction import build_super, generate_equivalent_supervisor, super_construction
from supred.supervision import (check_control_feasibility, closed_loop_pairs, control_data,
                                control_equivalent, is_normal)

from tests import closed_loop_oracle, lockstep_oracle
from tests.generators import (
    loose_instance,
    partial_observation_pair,
    random_alphabet,
    random_automaton,
    random_feasible_supervisor,
    random_plant,
)
from tests.product_oracle import subset_construction, sync_product_pairs
from tests.test_closed_loop_oracle import _outcome
from tests.test_lockstep import _with_unreachable


def _one_state_plant(rng, alphabet):
    """A one-state plant: every event, or a random part of them, as a
    selfloop, marked or not."""
    events = range(len(alphabet))
    if rng.random() < 0.5:
        events = [e for e in events if rng.random() < 0.7]
    return Automaton("P", alphabet, ["p"], 0, [0] if rng.random() < 0.8 else [],
                     {(0, e): 0 for e in events})


def _plants_and_sets(large=True):
    """(plant, reference, automata) families: a loose instance's plant
    with S, SUPER, a generated equivalent and a random supervisor; the
    same automata under a one-state plant; random automata with
    unreachable states, under a random plant with unreachable states and
    under a one-state plant; and, when ``large``, two 100-300-state
    partial-observation pairs with their SUPERs."""
    for seed in range(20):
        rng = random.Random(seed)
        g, s = loose_instance(rng, max_plant=6, max_sup=6, max_events=4)
        other = random_feasible_supervisor(rng, s.alphabet, max_states=4, name="N")
        cands = [s, build_super(g, s), generate_equivalent_supervisor(g, s, seed), other]
        yield g, s, cands
        yield _one_state_plant(rng, s.alphabet), s, cands
    rng = random.Random(2121)
    for _ in range(30):
        alphabet = random_alphabet(rng, max_events=4)
        cands = [_with_unreachable(rng, random_automaton(rng, alphabet, max_states=5))
                 for _ in range(3)]
        g = _with_unreachable(rng, random_plant(rng, alphabet, max_states=6))
        yield g, cands[0], cands
        yield _one_state_plant(rng, alphabet), cands[0], cands
    for seed in range(2 if large else 0):
        g, s = partial_observation_pair(seed)
        yield g, s, [s, build_super(g, s)]


def _arrays(walk):
    """Per node of the witness search run to its end, the plant state, both
    automaton states, parent and event."""
    nodes = list(walk.triples())
    return ([x for x, _ in nodes], [walk.pair_a[p] for _, p in nodes],
            [walk.pair_b[p] for _, p in nodes], walk.parent, walk.event)


def _old_arrays(walk):
    return walk.xs, walk.qas, walk.qbs, walk.parent, walk.event


def test_walk_matches_the_triple_walk():
    """The witness search lists the arrays and strings of the walk over
    int-coded triples, and the pair walk keeps, per pair of automaton
    states, the plant states of its nodes."""
    walks = 0
    for g, _, cands in _plants_and_sets():
        for a, b in product(cands, repeat=2):
            new, old = Lockstep(g, a, b), lockstep_oracle.Lockstep(g, a, b).run()
            assert _arrays(new) == _old_arrays(old)
            assert ([new.string(node) for node in range(len(old.xs))]
                    == [old.string(node) for node in range(len(old.xs))])
            reached: dict[tuple[int, int], int] = {}
            for x, qa, qb in zip(old.xs, old.qas, old.qbs):
                reached[(qa, qb)] = reached.get((qa, qb), 0) | 1 << x
            assert dict(zip(zip(new.pair_a, new.pair_b), new.reached)) == reached
            assert len(new.pair_a) == len(reached)
            walks += 1
    assert walks > 1000


def test_walks_cut_short_match_the_triple_walk():
    """The triple walk left on receiving level ``stop`` holds a prefix of
    the witness search's arrays: the search lists the levels in the same
    order."""
    for g, _, cands in _plants_and_sets():
        a, b = cands[0], cands[-1]
        new = _arrays(Lockstep(g, a, b))
        for stop in range(4):
            old = lockstep_oracle.Lockstep(g, a, b)
            for level, _ in enumerate(old.levels()):
                if level == stop:
                    break
            assert [column[:len(old.xs)] for column in new] == list(_old_arrays(old))


def test_pairs_and_control_data_match_the_pair_walk():
    """The pair walk with one plant bitmask per supervisor state lists the
    pairs of the walk over int-coded pairs, in its order, and the control
    data folded once per distinct bitmask equal those accumulated per
    pair, for supervisors and for automata of any shape."""
    for g, _, cands in _plants_and_sets():
        for s in cands:
            xs, zs = closed_loop_oracle.closed_loop_pairs(g, s)
            assert closed_loop_pairs(g, s)[:2] == (xs, zs)
            assert control_data(g, s) == closed_loop_oracle.control_data_from_pairs(
                g, s, zip(xs, zs))


def test_checks_match_the_rebuilding_oracle():
    """Verdicts, witnesses, fineness clauses and refusals of the checks
    that read the walk's pairs, against the versions that rebuild the
    closed loop."""
    for g, s, cands in _plants_and_sets(large=False):
        for a, b in product(cands, repeat=2):
            assert _outcome(control_equivalent, g, a, b) == _outcome(
                closed_loop_oracle.control_equivalent, g, a, b)
            assert _outcome(is_normal, g, a, b) == _outcome(
                closed_loop_oracle.is_normal, g, a, b)
            assert _outcome(finer_than, g, s, a, b) == _outcome(
                closed_loop_oracle.finer_than, g, s, a, b)
            assert _outcome(finer_than, g, b, a, b) == _outcome(
                closed_loop_oracle.finer_than, g, b, a, b)


def test_super_text_matches_the_subset_construction():
    """SUPER's text, with its members and images memoised per distinct
    plant-state set, is that of the subset construction of ``G||S`` for
    every automaton whose unobservable transitions are selfloops."""
    built = 0
    for g, _, cands in _plants_and_sets():
        for s in cands:
            if not check_control_feasibility(s)[0]:
                continue
            expected = subset_construction(sync_product_pairs(g, s)[0], name="SUPER")
            got = super_construction(g, s)[0]
            assert serialize_automaton(got) == serialize_automaton(expected)
            built += 1
    assert built > 150



def _comma_names(a):
    """``a`` with state ``i`` named by ``i + 1`` copies of ``q`` joined by
    commas, so that product pair names clash wherever the index sums
    agree: pairs ``(0, 1)`` and ``(1, 0)`` are both named ``(q,q,q)``."""
    names = [",".join(["q"] * (i + 1)) for i in range(a.n)]
    return Automaton.from_table(a.name, a.alphabet, names, a.initial, a.marked, a.succ,
                                [a.enabled(q) for q in range(a.n)])


def test_product_matches_the_pair_product():
    """The product built on ``closed_loop_pairs`` serialises as the one
    built by its own pair walk, in both orders of plant and automata, for
    automata with unreachable states, and with composite names that clash
    and are made distinct in the product's order."""
    clashing = 0
    families = [(g, cands) for g, _, cands in _plants_and_sets(large=False)]
    families += [(g, [s]) for g, s in map(partial_observation_pair, range(2))]
    for g, cands in families:
        for a, b in product([g, *cands], repeat=2):
            for left, right in ((a, b), (_comma_names(a), _comma_names(b))):
                got = serialize_automaton(sync_product(left, right, name="P"))
                assert got == serialize_automaton(sync_product_pairs(left, right, name="P")[0])
                clashing += "~" in got
    assert clashing > 100

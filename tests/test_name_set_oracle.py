"""Differential tests: the event-set bitmasks of the library against the
name-set reference code in ``tests/name_set_oracle.py``.  Masks must decode,
through ``Alphabet.names_of`` and in alphabet order, to the oracle's names;
marking flags, verdicts, witnesses and errors must be the same."""

import random
from itertools import product

from supred.automata import language_equivalent, sync_product
from supred.reduction import build_super, characterize_super_state
from supred.supervision import control_data

from tests import name_set_oracle as oracle
from tests.generators import loose_instance, partial_observation_pair
from tests.test_closed_loop_oracle import _candidates, _outcome


def _loose(seed):
    return loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)


def _decodes_to(alphabet, mask, names):
    """``mask`` lists exactly ``names``, in alphabet order."""
    return alphabet.names_of(mask) == sorted(names, key=alphabet.index)


def _assert_same_control_data(g, s):
    new, old = control_data(g, s), oracle.control_data(g, s)
    for z in range(s.n):
        assert _decodes_to(g.alphabet, new.enabled[z], old.enabled[z]), (s.name, z)
        assert _decodes_to(g.alphabet, new.disabled[z], old.disabled[z]), (s.name, z)
    assert new.marked_s == old.marked_s
    assert new.marked_g == old.marked_g
    assert new.reachable_in_loop == old.reachable_in_loop
    assert new.incompatibility_masks() == old.incompatibility_masks()


def _assert_same_characterization(g, s, sup, states):
    for z in states:
        enabled, disabled = characterize_super_state(g, s, sup, z)
        old_enabled, old_disabled = oracle.characterize_super_state(g, s, sup, z)
        assert _decodes_to(g.alphabet, enabled, old_enabled), z
        assert _decodes_to(g.alphabet, disabled, old_disabled), z


def test_names_of_lists_alphabet_order():
    g, _ = _loose(0)
    names = g.alphabet.names
    assert g.alphabet.names_of(0) == []
    assert g.alphabet.names_of((1 << len(names)) - 1) == list(names)
    assert g.alphabet.names_of(0b101) == [names[0], names[2]]


def test_control_data_matches_oracle_on_loose_instances():
    for seed in range(60):
        g, s = _loose(seed)
        _assert_same_control_data(g, s)
        _assert_same_control_data(g, build_super(g, s))


def test_control_data_matches_oracle_on_random_pairs():
    for seed in range(5):
        g, s = partial_observation_pair(seed)
        _assert_same_control_data(g, s)
        _assert_same_control_data(g, build_super(g, s))


def test_language_equivalent_matches_oracle_on_candidate_loops():
    """Every pair of closed loops and of candidates from the closed-loop
    oracle's candidate sets: equivalent, separated, mismatched alphabets."""
    kinds = set()
    for seed in range(25):
        g, _, cands = _candidates(seed)
        loops = [sync_product(g, c) for c in cands[:-1]]  # the last is mismatched
        for a, b in product(loops + cands, repeat=2):
            outcome = _outcome(language_equivalent, a, b)
            assert outcome == _outcome(oracle.language_equivalent, a, b)
            kinds.add(outcome[1][0] if outcome[0] == "returned" else outcome[1].__name__)
    assert kinds == {True, False, "AlphabetMismatchError"}


def test_characterize_matches_oracle():
    for seed in range(60):
        g, s = _loose(seed)
        sup = build_super(g, s)
        _assert_same_characterization(g, s, sup, range(sup.n))
    for seed in range(5):
        g, s = partial_observation_pair(seed)
        sup = build_super(g, s)
        _assert_same_characterization(g, s, sup, sorted({0, 1, sup.n // 2, sup.n - 1}))

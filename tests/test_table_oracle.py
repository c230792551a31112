"""Differential tests: SUPER and quotients built as one dense successor
row per state and handed to ``Automaton.from_table``, against the
dict-building constructions of ``tests/table_oracle.py`` and the
constructor of that time.  On the fixtures and on seeded families, both
must build the same automata field by field (``parse_oracle.differences``)
and refuse the same covers with the same message."""

import random

from supred.automata import parse_automaton
from supred.errors import CoverError, InfeasibleSupervisorError
from supred.reduction import (Cover, build_super, induce_quotient, reduce_exact_minimum,
                              reduce_heuristic)
from supred.supervision import closed_loop_pairs, control_data

from tests import table_oracle
from tests.conftest import FIXTURES
from tests.generators import loose_instance, partial_observation_pair, scale_pair
from tests.parse_oracle import differences


def _pairs():
    """Plant/supervisor pairs: the fixtures, 40 small loose instances with
    unobservable events, three bench-sized random supervisors and three
    counter-inflated ones."""
    for name, sups in (("tank.aut", ["S"]), ("ordering.aut", ["S1", "S2"]),
                       ("nontransitive.aut", ["S"])):
        blocks = {a.name: a for a in parse_automaton((FIXTURES / name).read_text())}
        for sup in sups:
            yield blocks["G"], blocks[sup], True
    for seed in range(40):
        yield (*loose_instance(random.Random(seed), max_plant=8, max_sup=8, max_events=4,
                               require_unobservable=seed % 2 == 0), True)
    for seed in range(3):
        yield (*partial_observation_pair(seed), False)
        yield (*scale_pair(random.Random(seed), core_states=4, factor=6), False)


def _quotient(build, s, data, cover):
    try:
        return build(s, data, cover)
    except CoverError as exc:
        return str(exc)


def _assert_same_quotient(s, data, cover):
    new = _quotient(induce_quotient, s, data, cover)
    old = _quotient(table_oracle.induce_quotient, s, data, cover)
    if isinstance(new, str) or isinstance(old, str):
        assert new == old
    else:
        assert differences(new, old) == []
    return not isinstance(new, str)


def _random_covers(rng, n, count):
    """Covers of ``n`` states: random cells plus one singleton per state
    no cell holds, so most are refused by a clash and some by an event."""
    for _ in range(count):
        cells = [rng.sample(range(n), rng.randint(1, min(n, 3))) for _ in range(rng.randint(1, n))]
        held = {z for cell in cells for z in cell}
        yield Cover.from_cells(cells + [[z] for z in range(n) if z not in held])


def test_super_matches_the_dict_construction():
    built = 0
    for g, s, _ in _pairs():
        try:
            sup = build_super(g, s)
        except InfeasibleSupervisorError:
            continue
        xs, zs, _ = closed_loop_pairs(g, s)
        assert differences(sup, table_oracle.super_from_pairs(g, s, xs, zs)) == []
        built += 1
    assert built >= 40


def test_quotients_match_the_dict_construction():
    rng = random.Random(0)
    built = refused = overlapping = 0
    for g, s, small in _pairs():
        try:
            sup = build_super(g, s)
            covers = [(s, reduce_heuristic(g, s)[1].cover), (sup, reduce_heuristic(g, sup)[1].cover)]
        except InfeasibleSupervisorError:
            covers = []
        if small:
            covers += [(s, reduce_exact_minimum(g, s, mode="cover")[1].cover)] if covers else []
            covers += [(s, cover) for cover in _random_covers(rng, s.n, 5)]
        covers.append((s, Cover.from_cells([z] for z in range(s.n))))
        for aut, cover in covers:
            ok = _assert_same_quotient(aut, control_data(g, aut), cover)
            built += ok
            refused += not ok
            overlapping += ok and not cover.is_partition
    assert built >= 250 and refused >= 100 and overlapping >= 10

"""Differential tests for the exact search.

Against ``tests/exact_oracle.py``, which looks one step ahead on the base
masks, the search must return the same cover in both modes.  Against the
search of ``tests/cover_oracle.py`` that carries its pending target sets
without the conflict-family bound, the cover search must return the same
cover in at most as many nodes; that search must return the same cover in
the same nodes as the one there that rebuilds its pending sets at every
node.  Against the partition search there that checks full assignments
only, the partition search must return the same partition, or none, at
every size it is asked for, in at most as many nodes.  All hold wherever
the reference finishes within its node budget."""

import pathlib
import random

from supred.automata import parse_automaton
from supred.reduction import _ExactSearch, reduce_exact_core
from supred.supervision import control_data

from tests import cover_oracle, exact_oracle
from tests.generators import loose_instance

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

# About 0.1-0.3 s of the reference search; every instance it cannot finish
# within this many nodes is skipped.
BUDGET = 20_000


def _assert_same_covers(instances):
    """Same cover and size in both modes as the reference search; returns
    the (seed, mode) runs the reference could not finish."""
    skipped = []
    for seed, (g, s) in instances:
        data = control_data(g, s)
        for mode in ("partition", "cover"):
            try:
                _, expected = exact_oracle.reduce_exact_core(s, data, mode, s.n, BUDGET)
            except exact_oracle.NodeBudgetExceeded:
                skipped.append((seed, mode))
                continue
            _, report = reduce_exact_core(s, data, mode, s.n)
            assert (report.cover, report.output_size) == (expected.cover, expected.output_size), \
                (seed, mode)
    return skipped


def test_same_covers_on_exact_small_family():
    instances = [(i, loose_instance(random.Random(i), max_plant=8, max_sup=10, max_events=5))
                 for i in range(120)]
    skipped = _assert_same_covers(instances)
    assert len(skipped) <= 5, skipped


def test_same_covers_on_larger_plants():
    instances = [(i, loose_instance(random.Random(1000 + i), max_plant=10, max_sup=10))
                 for i in range(40)]
    skipped = _assert_same_covers(instances)
    assert len(skipped) <= 5, skipped


def _assert_same_cover_search(instances):
    """Same cover and size in cover mode as the search without the
    conflict-family bound, in at most its nodes, and that search the same
    cover and nodes as the one that rebuilds its pending sets; returns the
    seeds it could not finish."""
    skipped = []
    for seed, (g, s) in instances:
        data = control_data(g, s)
        try:
            _, expected = cover_oracle.reduce_exact_core(s, data, "cover", s.n, BUDGET,
                                                         carried=True)
        except cover_oracle.NodeBudgetExceeded:
            skipped.append(seed)
            continue
        _, rebuilt = cover_oracle.reduce_exact_core(s, data, "cover", s.n, BUDGET)
        assert (rebuilt.cover, rebuilt.output_size, rebuilt.steps) == \
            (expected.cover, expected.output_size, expected.steps), seed
        _, report = reduce_exact_core(s, data, "cover", s.n)
        assert (report.cover, report.output_size) == (expected.cover, expected.output_size), seed
        assert report.steps <= expected.steps, seed
    return skipped


def test_same_cover_search_on_exact_small_family():
    instances = [(i, loose_instance(random.Random(i), max_plant=8, max_sup=10, max_events=5))
                 for i in (*range(120), 255)]
    skipped = _assert_same_cover_search(instances)
    assert len(skipped) <= 5, skipped


def test_same_cover_search_on_larger_plants():
    instances = [(i, loose_instance(random.Random(i), max_plant=10, max_sup=10))
                 for i in range(1000, 1040)]
    skipped = _assert_same_cover_search(instances)
    assert len(skipped) <= 5, skipped


def test_same_cover_search_on_sixteen_state_plants():
    instances = [(i, loose_instance(random.Random(i), max_plant=10, max_sup=16))
                 for i in range(1000, 1040)]
    skipped = _assert_same_cover_search(instances)
    assert len(skipped) <= 2, skipped


def _assert_same_partitions(instances, budget):
    """At every k from the clique bound up to the first k with a partition,
    the same partition, or None, as the search that checks full
    assignments only, in at most its nodes; returns the seeds that search
    could not finish."""
    skipped = []
    for seed, (g, s) in instances:
        data = control_data(g, s)
        search, reference = _ExactSearch(s, data), cover_oracle._ExactSearch(s, data, budget)
        for k in range(max(1, len(reference.clique)), s.n + 1):
            nodes, reference_nodes = search.steps, reference.steps
            try:
                expected = reference.find_partition(k)
            except cover_oracle.NodeBudgetExceeded:
                skipped.append(seed)
                break
            assert search.find_partition(k) == expected, (seed, k)
            assert search.steps - nodes <= reference.steps - reference_nodes, (seed, k)
            if expected is not None:
                break
    return skipped


def test_same_partitions_on_exact_small_family():
    instances = [(i, loose_instance(random.Random(i), max_plant=8, max_sup=10, max_events=5))
                 for i in (*range(119), 255)]
    assert _assert_same_partitions(instances, BUDGET) == []


def test_same_partitions_on_sixteen_state_plants():
    """About 1.5 s of the reference search over 200 seeds, four of which
    it cannot finish."""
    instances = [(i, loose_instance(random.Random(i), max_plant=10, max_sup=16))
                 for i in range(1000, 1200)]
    skipped = _assert_same_partitions(instances, 10 * BUDGET)
    assert len(skipped) <= 4, skipped


def test_same_cover_search_on_fixtures():
    g, s1, s2 = parse_automaton((FIXTURES / "ordering.aut").read_text())
    g91, s91, g255, s255 = parse_automaton((FIXTURES / "exact_blowup.aut").read_text())
    instances = [("S1", (g, s1)), ("S2", (g, s2)), ("S91", (g91, s91)), ("S255", (g255, s255))]
    assert _assert_same_cover_search(instances) == []


def test_same_cover_where_nodes_cover_every_state_with_sets_pending():
    """Two instances whose cover search reaches nodes that cover every
    state while target sets are still pending, so the next cell may start
    at any state: the cover is the reference's, found in at most the nodes
    it took when pinned."""
    for seed, n, nodes, cells in ((127, 7, 5_332, [[0, 4, 6], [1, 3, 6], [2, 3, 5], [4, 5]]),
                                  (380, 6, 36, [[0], [1, 4], [2, 3, 5], [3, 4]])):
        g, s = loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
        data = control_data(g, s)
        _, report = reduce_exact_core(s, data, "cover", s.n)
        _, expected = exact_oracle.reduce_exact_core(s, data, "cover", s.n, 4 * BUDGET)
        assert s.n == n, seed
        assert [sorted(cell) for cell in report.cover.cells] == cells, seed
        assert (report.cover, report.output_size) == (expected.cover, expected.output_size), seed
        assert report.steps <= nodes, seed

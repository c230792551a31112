"""Differential tests: the exact search on the successor-closed
incompatibility masks against the reference search in
``tests/exact_oracle.py``, which looks one step ahead on the base masks.
Both must return the same cover in both modes wherever the reference
finishes within its node budget."""

import random

from supred.reduction import reduce_exact_core
from supred.supervision import control_data

from tests import exact_oracle
from tests.generators import loose_instance

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

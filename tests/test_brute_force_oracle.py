"""The exact searches against the brute-force minimum of
``tests/brute_force_oracle.py``, which reads only the definition of a
control cover: the partition minimum on every supervisor of at most 8
states, the cover minimum on every one of at most 6, and the verdict of the
search over prime compatibles at every size, from no cells on those and
from each candidate cell of two states or more on those of at most 5.  The
verdicts are what show the dominance rule that picks the primes sound: a
prime set that missed every cover of some size would refute a size the
brute force accepts."""

import random

from supred.reduction import _ExactSearch, reduce_exact_minimum
from supred.supervision import control_data

from tests import brute_force_oracle
from tests.generators import loose_instance

# the bench exact_small family, and one whose minimum covers overlap more
# often (8 of its first 300 seeds against 4)
FAMILIES = [dict(max_plant=8, max_sup=10, max_events=5),
            dict(max_plant=8, max_sup=6, max_events=6)]


def _instances(upto):
    for params in FAMILIES:
        for seed in range(400):
            g, s = loose_instance(random.Random(seed), **params)
            if s.n <= upto:
                yield (seed, params), g, s, control_data(g, s)


def _bitmasks(cover):
    return [sum(1 << z for z in cell) for cell in cover.cells]


def _verdicts(search, cell=0):
    """The prime search's verdicts from the one cell ``cell`` (from no
    cells when 0), at every size from 1 to the number of states."""
    pending = [tb for tb in search.cell_targets(cell) if tb & ~cell]
    return [search._primes_complete(k, [cell] if cell else [], cell, pending)
            for k in range(1, search.n + 1)]


def test_partition_minimum_is_the_brute_force_minimum():
    checked = 0
    for key, g, s, data in _instances(8):
        _, report = reduce_exact_minimum(g, s, mode="partition")
        assert brute_force_oracle.is_control_cover(s, data, _bitmasks(report.cover)), key
        assert report.output_size == brute_force_oracle.minimum_partition(s, data), key
        checked += 1
    assert checked >= 600


def test_cover_minimum_and_prime_verdicts_are_brute_force():
    """The cover minimum, and at every size k the prime search accepts
    exactly when a control cover of at most k cells exists."""
    checked = overlapping = 0
    for key, g, s, data in _instances(6):
        _, report = reduce_exact_minimum(g, s, mode="cover")
        size = brute_force_oracle.minimum_cover(s, data)
        assert brute_force_oracle.is_control_cover(s, data, _bitmasks(report.cover)), key
        assert report.output_size == size, key
        verdicts = _verdicts(_ExactSearch(s, data))
        assert verdicts == [k >= size for k in range(1, s.n + 1)], key
        checked += 1
        overlapping += not report.cover.is_partition
    assert checked >= 500 and overlapping >= 5, (checked, overlapping)


def test_prime_completions_from_one_cell_are_brute_force():
    """From each candidate cell of two states or more, with its target
    sets pending, the prime search accepts size k exactly when a control
    cover of at most k cells holds that cell."""
    checked = 0
    for key, g, s, data in _instances(5):
        search = _ExactSearch(s, data)
        for cell in (c for row in search._cells() for c in row if c & (c - 1)):
            size = brute_force_oracle.completion_size(s, data, [cell])
            assert _verdicts(search, cell) == [k >= size for k in range(1, s.n + 1)], \
                (key, cell)
            checked += 1
    assert checked >= 2000

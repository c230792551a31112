"""The seeded generators keep drawing the same instances.

The bench's set-up and the seeded property suites replay these draws, so a
change to ``tests/generators.py`` must leave every one byte-identical."""

import hashlib
import random

from supred.automata import serialize_automaton

from tests.generators import loose_instance, partial_observation_pair, scale_pair

# SHA-256 of the serialised plant and supervisor of each pair, in order
DRAWS_SHA256 = "8505dd72c69dcc1e1d713afb84d830ecae12212013d2e5c33302ecc496f40306"


def test_bench_draws_are_pinned():
    """The draws of the four bench workloads: the 13 ``reduce_random``
    pairs, five ``scale_pair`` seeds (``reduce_inflated`` and
    ``finest_compare``) and the 120 ``exact_small`` loose instances."""
    pairs = [partial_observation_pair(i) for i in range(13)]
    pairs += [scale_pair(random.Random(i), 8, 25) for i in range(5)]
    pairs += [loose_instance(random.Random(i), max_plant=8, max_sup=10, max_events=5)
              for i in [*range(119), 255]]
    assert len(pairs) == 138
    digest = hashlib.sha256()
    for g, s in pairs:
        digest.update(serialize_automaton(g).encode())
        digest.update(serialize_automaton(s).encode())
    assert digest.hexdigest() == DRAWS_SHA256

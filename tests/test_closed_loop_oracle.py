"""Differential tests: the closed-loop checks, which walk plant and
supervisors in lockstep without building a closed loop, against the
reference versions in ``tests/closed_loop_oracle.py``, which re-trim and
rebuild it.  Verdicts, witnesses, covers, exception types and
exception messages must all agree."""

import random
from collections import Counter
from itertools import product

from supred.automata import (
    Alphabet,
    Automaton,
    Event,
    parse_automaton,
    serialize_automaton,
    sync_product,
    trim_reachable,
)
from supred.errors import PreconditionError, SupredError
from supred.ordering import compare_full_vs_partial, compare_reductions, finer_than
from supred.reduction import (build_super, extract_cover_from_simsup,
                              generate_equivalent_supervisor, super_from_pairs)
from supred.supervision import (check_control_feasibility, closed_loop_pairs, control_equivalent,
                                is_normal, loop_controllable)

from tests import closed_loop_oracle as oracle
from tests.conftest import FIXTURES
from tests.generators import (
    loose_instance,
    partial_observation_pair,
    random_alphabet,
    random_automaton,
    random_feasible_supervisor,
    random_plant,
    scale_pair,
)
from tests.product_oracle import subset_construction, sync_product_pairs


def _outcome(fn, *args):
    try:
        return "returned", fn(*args)
    except (SupredError, ValueError) as exc:
        return "raised", type(exc), str(exc)


def _assert_same(new, old, *args):
    assert _outcome(new, *args) == _outcome(old, *args)


def _mismatched(s):
    """``s`` over an alphabet with the first event's controllability flipped."""
    first, *rest = s.alphabet.events
    alphabet = Alphabet([Event(first.name, not first.controllable, first.observable), *rest])
    return s.with_alphabet(alphabet).renamed("X")


def _candidates(seed):
    """Plant, reference supervisor, and S, SUPER, a generated equivalent, a
    random (almost always non-equivalent) and an alphabet-mismatched
    candidate."""
    rng = random.Random(seed)
    g, s = loose_instance(rng, max_plant=6, max_sup=6, max_events=4)
    other = random_feasible_supervisor(rng, s.alphabet, max_states=4, name="N")
    cands = [s, build_super(g, s), generate_equivalent_supervisor(g, s, seed), other, _mismatched(s)]
    return g, s, cands


def _assert_same_checks(g, s, cands):
    for a, b in product(cands, repeat=2):
        _assert_same(control_equivalent, oracle.control_equivalent, g, a, b)
        _assert_same(is_normal, oracle.is_normal, g, a, b)
        _assert_same(finer_than, oracle.finer_than, g, s, a, b)
        _assert_same(finer_than, oracle.finer_than, g, a, a, b)
        _assert_same(finer_than, oracle.finer_than, g, b, a, b)
    for a in cands:
        try:
            sup = build_super(g, a)
        except (SupredError, ValueError):
            continue
        # the other candidates as ``super_`` reach the refusal of a closed
        # loop leaving it, and the mismatched one the alphabet check
        for super_, b in product([sup, *cands], cands):
            _assert_same(extract_cover_from_simsup, oracle.extract_cover_from_simsup,
                         super_, b, g, a)


def test_checks_match_oracle_on_candidate_sets():
    for seed in range(25):
        _assert_same_checks(*_candidates(seed))


def test_checks_match_oracle_on_mismatched_plant():
    for seed in range(25):
        g, s, cands = _candidates(seed)
        _assert_same_checks(_mismatched(g), s, cands)


def test_compare_reductions_matches_oracle():
    """Sizes, verdicts and refusals (inequivalent, not normal, over the
    cap, not finer, mismatched alphabets) as the version that built
    ``G||S`` five times per call."""
    outcomes = set()
    for seed in range(25):
        g, s, cands = _candidates(seed)
        plants = [g, _mismatched(g)] if seed < 3 else [g]
        for plant, ref, a, b in product(plants, cands[:1] + cands[-1:], cands, cands):
            for cap in (4, 10):
                got = _outcome(compare_reductions, plant, ref, a, b, cap)
                assert got == _outcome(oracle.compare_reductions, plant, ref, a, b, cap)
                if got[0] == "returned":
                    outcomes.add("returned")
                elif got[1] is PreconditionError:
                    outcomes.add(got[2].split("'")[1])
                else:
                    outcomes.add(got[1].__name__)
    assert outcomes == {"returned", "control-equivalence", "normality", "search-cap",
                        "fineness", "AlphabetMismatchError"}


def test_full_vs_partial_matches_oracle():
    g, s1, s2 = parse_automaton((FIXTURES / "ordering.aut").read_text())
    hidden = Alphabet([Event(e.name, e.controllable, e.observable and e.name != "c")
                       for e in g.alphabet])
    systems = [(g, s1, s2), tuple(a.with_alphabet(hidden) for a in (g, s1, s2))]
    rng = random.Random(3271)
    while len(systems) < 12:
        alphabet = random_alphabet(rng, max_events=4, require_unobservable=True)
        plant = random_plant(rng, alphabet, max_states=4)
        full = sync_product(plant, random_automaton(rng, alphabet, max_states=3), name="SF")
        if full.n <= 8:
            systems.append((plant, full, subset_construction(sync_product(plant, full), name="SP")))
    outcomes = Counter()
    for g, a, b in systems:
        for x, y in product((a, b, _mismatched(a)), repeat=2):
            got = _outcome(compare_full_vs_partial, g, x, y)
            assert got == _outcome(oracle.compare_full_vs_partial, g, x, y)
            if got[0] == "returned":
                outcomes["returned"] += 1
            elif got[1] is PreconditionError:
                outcomes[got[2].split("'")[1]] += 1
            else:
                outcomes[got[1].__name__] += 1
            _assert_same(control_equivalent, oracle.control_equivalent, g, x, y)
            _assert_same(finer_than, oracle.finer_than, g, x, x, y)
    assert set(outcomes) == {"returned", "full-isomorphism", "partial-isomorphism",
                             "control-equivalence", "AlphabetMismatchError"}, outcomes


def _serialized(build):
    return lambda g, s: serialize_automaton(build(g, s))


def test_build_super_matches_oracle():
    """Same SUPER or same refusal as the version that gated on a control
    data walk of its own before building ``G||S``: supervisors drawn
    without the loop-controllability filter, each also with an
    unobservable selfloop moved (structurally infeasible) and over a
    mismatched alphabet."""
    outcomes = set()
    for seed in range(60):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng, max_events=4, require_unobservable=seed % 2 == 0)
        g = random_plant(rng, alphabet, max_states=6)
        s = random_feasible_supervisor(rng, alphabet, max_states=6)
        cands = [s, _mismatched(s)]
        loops = [(q, e) for (q, e), t in s.trans.items() if alphabet.unobservable_mask >> e & 1]
        if loops and s.n > 1:
            q, e = rng.choice(loops)
            moved = dict(s.trans)
            moved[(q, e)] = (q + 1) % s.n
            infeasible = Automaton("M", alphabet, s.states, s.initial, s.marked, moved)
            cands += [infeasible, _mismatched(infeasible)]
        for cand in cands:
            got = _outcome(_serialized(build_super), g, cand)
            assert got == _outcome(_serialized(oracle.build_super), g, cand)
            outcomes.add(got[0] if got[0] == "returned" else got[2].split(":")[0])
    assert outcomes == {"returned", "supervisor fails the feasibility check",
                        "supervisor fails the controllability check",
                        "automata 'G' and 'X' have different alphabets"}


def _assert_same_super(g, s):
    assert _outcome(_serialized(build_super), g, s) == _outcome(_serialized(oracle.build_super), g, s)


# State names holding the separators of pair names: ("p,q", "r") and
# ("p", "q,r") both make the pair name "(p,q,r)".
PLANT_NAMES = ("p", "q", "p,q", "p,r)+(q")
SUPERVISOR_NAMES = ("r", "q,r", "p", "r)+(q,r")


def _named(a, names):
    return Automaton(a.name, a.alphabet, names, a.initial, a.marked, a.trans)


def test_build_super_matches_oracle_on_colliding_names():
    """Same SUPER, ``~k`` suffixes included, when pair names collide, and
    when two SUPER states join their member names to the same name: the
    pair ``("p", "r)+(q,r")`` is named as the pairs ``("p", "r")`` and
    ``("q", "r")`` together."""
    pair_clashes = 0
    for seed in range(300):
        rng = random.Random(seed)
        g, s = loose_instance(rng, max_plant=4, max_sup=4, max_events=4, require_unobservable=True)
        g = _named(g, rng.sample(PLANT_NAMES, g.n))
        s = _named(s, rng.sample(SUPERVISOR_NAMES, s.n))
        _assert_same_super(g, s)
        pair_clashes += any("~" in name for name in sync_product(g, s).states)
    assert pair_clashes >= 10
    alphabet = Alphabet([Event("a", True, True), Event("u", True, False)])
    g = Automaton("G", alphabet, ["p", "q"], 0, [0], {(0, 0): 0, (0, 1): 1})
    s = Automaton("S", alphabet, ["r", "r)+(q,r"], 0, [0, 1], {(0, 0): 1, (0, 1): 0})
    _assert_same_super(g, s)
    assert build_super(g, s).states == ("(p,r)+(q,r)", "(p,r)+(q,r)~1")


def test_build_super_matches_oracle_at_scale():
    """Same SUPER on 100-300-state partial-observation supervisors and on
    200-state counter-inflated ones.  Seeds 5, 8, 10 and 13 of the
    partial-observation family, whose SUPERs have 10.9k-32.3k states, are
    left out for time: the oracle takes 0.3-1.2 s on each."""
    for seed in (0, 1, 2, 3, 4, 6, 7, 9, 11, 12, 14, 15, 16):
        _assert_same_super(*partial_observation_pair(seed))
    for seed in range(3):
        _assert_same_super(*scale_pair(random.Random(seed), core_states=8, factor=25))


def test_super_from_pairs_matches_the_subset_construction():
    """The core of ``build_super`` without its gates, on supervisors whose
    unobservable transitions are selfloops, loop controllable or not: the
    same automaton, byte for byte, as the subset construction of the
    product ``G||S``."""
    checked = uncontrollable = 0
    for seed in range(1000):
        rng = random.Random(seed)
        alphabet = random_alphabet(rng, max_events=4, require_unobservable=seed % 2 == 0)
        g = random_plant(rng, alphabet, max_states=6)
        for s in (random_automaton(rng, alphabet, max_states=5),
                  random_feasible_supervisor(rng, alphabet, max_states=5)):
            if not check_control_feasibility(s)[0]:
                continue
            expected = subset_construction(sync_product_pairs(g, s)[0], name="SUPER")
            got = super_from_pairs(g, s, *closed_loop_pairs(g, s)[:2])
            assert serialize_automaton(got) == serialize_automaton(expected), seed
            checked += 1
            uncontrollable += not loop_controllable(g, s)[0]
    assert checked >= 1000 and uncontrollable >= 500, (checked, uncontrollable)


def _assert_product_is_trim(g, s):
    p = sync_product(g, s)
    assert serialize_automaton(trim_reachable(p)) == serialize_automaton(p)


def test_sync_product_is_already_trim():
    """The invariant that lets the checks skip ``trim_reachable``: the
    product is reachable and listed in BFS discovery order."""
    for seed in range(40):
        _assert_product_is_trim(*loose_instance(random.Random(seed), max_plant=8, max_sup=10,
                                                max_events=5))
    for seed in range(5):
        _assert_product_is_trim(*scale_pair(random.Random(seed), core_states=8, factor=5))
    rng = random.Random(17)
    for _ in range(10):
        alphabet = random_alphabet(rng, max_events=5)
        a = random_automaton(rng, alphabet, max_states=100)
        b = random_automaton(rng, alphabet, max_states=100)
        _assert_product_is_trim(a, b)
        _assert_product_is_trim(random_plant(rng, alphabet, max_states=10), b)

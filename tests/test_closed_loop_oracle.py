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
                              generate_equivalent_supervisor, super_construction)
from supred.supervision import (check_control_feasibility, closed_loop_pairs, control_equivalent,
                                is_normal, loop_controllable)

from tests import closed_loop_oracle as oracle
from tests import super_oracle
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
    assert outcomes == {"returned", "control-equivalence", "normality", "SearchCapError",
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
    data walk of its own before building ``G||S``, and as the version that
    gated on a pair walk before its subset construction: supervisors drawn
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
            assert got == _outcome(_serialized(super_oracle.build_super), g, cand)
            outcomes.add(got[0] if got[0] == "returned" else got[2].split(":")[0])
    assert outcomes == {"returned", "supervisor fails the feasibility check",
                        "supervisor fails the controllability check",
                        "automata 'G' and 'X' have different alphabets"}


def _assert_same_super(g, s):
    """Same SUPER or same refusal as both oracles; where SUPER is built,
    its keys are those of the pair-walking oracle's SUPER: per state, the
    state of ``s`` that ``SUPER||S`` pairs it with and the plant states
    ``G||SUPER`` pairs it with.  Returns whether SUPER was built."""
    got = _outcome(_serialized(build_super), g, s)
    assert got == _outcome(_serialized(super_oracle.build_super), g, s)
    assert got == _outcome(_serialized(oracle.build_super), g, s)
    if got[0] == "raised":
        return False
    sup = super_oracle.build_super(g, s)
    xs, zs, _ = closed_loop_pairs(sup, s)
    assert sorted(xs) == list(range(sup.n))  # one state of s per SUPER state
    z_of = dict(zip(xs, zs))
    assert super_construction(g, s)[1] == [
        (z_of[i], subset) for i, subset in enumerate(closed_loop_pairs(g, sup)[2])]
    return True


def _own_selfloop_sets(rng, s):
    """Variants of ``s`` with a set of unobservable selfloops no other of
    their states has: ``s`` with a state added that no string reaches, and
    ``s`` with its initial state's set changed.  A variant is left out
    where every set is taken."""
    unobs = s.alphabet.unobservable_mask
    events = [e for e in range(len(s.alphabet)) if unobs >> e & 1]
    subsets = [u for u in range(unobs + 1) if not u & ~unobs]
    own = [s.enabled(z) & unobs for z in range(s.n)]
    variants = []
    free = [u for u in subsets if u not in own]
    if free:
        loops, trans = rng.choice(free), dict(s.trans)
        trans.update(((s.n, e), s.n) for e in events if loops >> e & 1)
        observable = [e for e in range(len(s.alphabet)) if not unobs >> e & 1]
        if observable:
            trans[(s.n, rng.choice(observable))] = rng.randrange(s.n)
        variants.append(Automaton(s.name, s.alphabet, (*s.states, "unreached"), s.initial,
                                  s.marked, trans))
    free = [u for u in subsets if u not in own[:s.initial] + own[s.initial + 1:]]
    if free:
        loops = rng.choice(free)
        trans = {(q, e): t for (q, e), t in s.trans.items()
                 if q != s.initial or not unobs >> e & 1}
        trans.update(((s.initial, e), s.initial) for e in events if loops >> e & 1)
        variants.append(Automaton(s.name, s.alphabet, s.states, s.initial, s.marked, trans))
    return variants


# State names holding the separators of pair names: ("p,q", "r") and
# ("p", "q,r") both make the pair name "(p,q,r)".
PLANT_NAMES = ("p", "q", "p,q", "p,r)+(q")
SUPERVISOR_NAMES = ("r", "q,r", "p", "r)+(q,r")
# Plant names without "," that are prefixes of one another, followed by
# characters below and above "," in code-point order: "p" sorts before
# "p!", but the pair name "(p,r)" after "(p!,r)".
RANKED_PLANT_NAMES = ("p", "p!", "p+", "p)", "p-", "pq", "(p")
RANKED_SUPERVISOR_NAMES = ("r", "q,r", "r)+(p", "p)+(p,r")


def _named(a, names):
    return Automaton(a.name, a.alphabet, names, a.initial, a.marked, a.trans)


def test_build_super_matches_oracle_on_colliding_names():
    """Same SUPER, ``~k`` suffixes included, when pair names collide, and
    when two SUPER states join their member names to the same name: the
    pair ``("p", "r)+(q,r")`` is named as the pairs ``("p", "r")`` and
    ``("q", "r")`` together.  A second family has no ``,`` in plant names
    but plant-name order and pair-name order differ: the names build_super
    joins in the rank order of ``x + ","`` are those of the sorted pair
    names."""
    pair_clashes = reordered = 0
    for seed in range(300):
        rng = random.Random(seed)
        g, s = loose_instance(rng, max_plant=4, max_sup=4, max_events=4, require_unobservable=True)
        g = _named(g, rng.sample(PLANT_NAMES, g.n))
        s = _named(s, rng.sample(SUPERVISOR_NAMES, s.n))
        _assert_same_super(g, s)
        pair_clashes += any("~" in name for name in sync_product(g, s).states)
        g, s = loose_instance(rng, max_plant=7, max_sup=4, max_events=4,
                              require_unobservable=seed % 2 == 0)
        g = _named(g, rng.sample(RANKED_PLANT_NAMES, g.n))
        s = _named(s, rng.sample(RANKED_SUPERVISOR_NAMES, s.n))
        _assert_same_super(g, s)
        for _, subset in super_construction(g, s)[1]:
            names = [g.states[x] for x in range(g.n) if subset >> x & 1]
            reordered += sorted(names) != sorted(names, key=lambda name: name + ",")
    assert pair_clashes >= 10 and reordered >= 50, (pair_clashes, reordered)
    alphabet = Alphabet([Event("a", True, True), Event("u", True, False)])
    g = Automaton("G", alphabet, ["p", "q"], 0, [0], {(0, 0): 0, (0, 1): 1})
    s = Automaton("S", alphabet, ["r", "r)+(q,r"], 0, [0, 1], {(0, 0): 1, (0, 1): 0})
    _assert_same_super(g, s)
    assert build_super(g, s).states == ("(p,r)+(q,r)", "(p,r)+(q,r)~1")


def test_build_super_matches_oracle_at_scale():
    """Same SUPER on 100-300-state partial-observation supervisors and on
    200-state counter-inflated ones.  Seeds 5, 8, 10 and 13 of the
    partial-observation family, whose SUPERs have 10.9k-32.3k states, are
    left out for time: the oracle takes 0.3-1.2 s on each.  Also on
    supervisors with a set of unobservable selfloops that only a state no
    string reaches has, or only the initial state: SUPER's step tables are
    built for every set before its walk, and the start state reads its
    closure from its set's table."""
    for seed in (0, 1, 2, 3, 4, 6, 7, 9, 11, 12, 14, 15, 16):
        _assert_same_super(*partial_observation_pair(seed))
    for seed in range(3):
        _assert_same_super(*scale_pair(random.Random(seed), core_states=8, factor=25))
    built = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        g, s = loose_instance(rng, max_plant=6, max_sup=5, max_events=4, require_unobservable=True)
        for variant in _own_selfloop_sets(rng, s):
            built[variant.n > s.n] += _assert_same_super(g, variant)
    g, s = scale_pair(random.Random(0), core_states=8, factor=25)
    for variant in _own_selfloop_sets(random.Random(0), s):
        assert _assert_same_super(g, variant)
    assert min(built.values()) >= 50, built


def test_super_from_pairs_matches_the_subset_construction():
    """The core of ``build_super`` without its gates, on supervisors whose
    unobservable transitions are selfloops, loop controllable or not: the
    same automaton, byte for byte, as the subset construction of the
    product ``G||S`` and as the former core ``super_from_pairs`` on the
    pairs of ``closed_loop_pairs``."""
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
            got = serialize_automaton(super_construction(g, s)[0])
            assert got == serialize_automaton(expected), seed
            former = super_oracle.super_from_pairs(g, s, *closed_loop_pairs(g, s)[:2])
            assert got == serialize_automaton(former), seed
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

"""Covers, quotient supervisors, the finest supervisor, cover extraction,
heuristic and exact reduction, state characterization."""

import random

import pytest

from supred.automata import (
    Alphabet,
    Automaton,
    Event,
    is_des_isomorphic,
    parse_automaton,
    sync_product,
    trim_reachable,
)
from supred.errors import (AlphabetMismatchError, CoverError, InfeasibleSupervisorError,
                           PreconditionError, SearchCapError)
from supred.ordering import compare_full_vs_partial, finer_than
from supred.reduction import (
    Cover,
    build_super,
    characterize_super_state,
    extract_cover_from_simsup,
    generate_equivalent_supervisor,
    induce_quotient,
    reduce_exact_minimum,
    reduce_heuristic,
    validate_cover,
)
from supred.supervision import (
    check_control_feasibility,
    closed_incompatibility,
    control_data,
    control_equivalent,
    is_normal,
    loop_controllable,
)

from tests.conftest import FIXTURES
from tests.generators import (loose_instance, partial_observation_pair, scale_pair,
                              strict_instance)
from tests.product_oracle import subset_construction_with_members, sync_product_pairs


# ---------------------------------------------------------------------------
# covers and quotients


def test_tank_cover_is_valid(tank):
    g, s = tank
    data = control_data(g, s)
    ok, violation = validate_cover(s, data, Cover.from_cells([{0, 1, 2}, {3}]))
    assert ok and violation is None


def test_tank_all_states_cover_invalid(tank):
    g, s = tank
    data = control_data(g, s)
    ok, violation = validate_cover(s, data, Cover.from_cells([{0, 1, 2, 3}]))
    assert not ok
    kind, _, pair = violation
    assert kind == "pair" and "z3" in pair


def test_singleton_cover_always_valid():
    rng = random.Random(61)
    for _ in range(20):
        g, s = loose_instance(rng)
        data = control_data(g, s)
        cover = Cover.from_cells([{z} for z in range(s.n)])
        assert validate_cover(s, data, cover)[0]


def test_malformed_covers_raise(tank):
    g, s = tank
    data = control_data(g, s)
    with pytest.raises(CoverError):
        validate_cover(s, data, Cover(cells=(frozenset(),)))
    with pytest.raises(CoverError):
        validate_cover(s, data, Cover.from_cells([{0, 99}]))
    with pytest.raises(CoverError):
        validate_cover(s, data, Cover.from_cells([{0, 1}]))  # misses z2, z3


def test_cover_canonical_order():
    c = Cover.from_cells([{3}, {0, 2}, {0, 1}])
    assert c.cells == (frozenset({0, 1}), frozenset({0, 2}), frozenset({3}))
    assert not c.is_partition
    assert Cover.from_cells([{0, 1}, {2}]).is_partition


def test_tank_quotient_matches_published_reduction(tank):
    g, s = tank
    data = control_data(g, s)
    quotient = induce_quotient(s, data, Cover.from_cells([{0, 1, 2}, {3}]))
    assert quotient.n == 2
    assert check_control_feasibility(quotient)[0]
    assert loop_controllable(g, quotient)[0]
    assert control_equivalent(g, s, quotient) == (True, None)
    # the high cell keeps the close command disabled
    high = quotient.state_index("z3")
    assert "qo0" not in quotient.alphabet.names_of(quotient.enabled(high))


def test_singleton_quotient_isomorphic(tank):
    g, s = tank
    data = control_data(g, s)
    quotient = induce_quotient(s, data, Cover.from_cells([{z} for z in range(s.n)]))
    assert is_des_isomorphic(quotient, s).verdict


def test_quotient_size_equals_cover_size():
    rng = random.Random(67)
    for _ in range(20):
        g, s = strict_instance(rng)
        sup = build_super(g, s)
        data = control_data(g, sup)
        quotient = induce_quotient(sup, data, Cover.from_cells([{z} for z in range(sup.n)]))
        assert quotient.n == sup.n


def test_invalid_cover_rejected_by_quotient(tank):
    g, s = tank
    data = control_data(g, s)
    with pytest.raises(CoverError):
        induce_quotient(s, data, Cover.from_cells([{0, 1, 2, 3}]))


# ---------------------------------------------------------------------------
# the finest supervisor


def test_super_tank_is_isomorphic_to_supervisor(tank):
    g, s = tank
    sup = build_super(g, s)
    assert sup.n == 4
    assert is_des_isomorphic(sup, s).verdict
    assert check_control_feasibility(sup)[0]
    assert control_equivalent(g, s, sup) == (True, None)


def test_super_full_observation_identity(ordering_example):
    g, s1, _ = ordering_example
    loop = trim_reachable(sync_product(g, s1))
    sup = build_super(g, s1)
    assert is_des_isomorphic(sup, loop).verdict


def test_super_idempotent_random():
    rng = random.Random(71)
    for _ in range(25):
        g, s = loose_instance(rng, require_unobservable=True)
        sup = build_super(g, s)
        again = build_super(g, sup)
        assert is_des_isomorphic(sup, again).verdict


def test_super_rejects_infeasible():
    alphabet = Alphabet([Event("u", True, False), Event("o", True, True)])
    g = Automaton("G", alphabet, ["x0", "x1"], 0, [], {(0, 0): 1, (0, 1): 1})
    bad = Automaton("B", alphabet, ["z0", "z1"], 0, [], {(0, 0): 1})
    with pytest.raises(InfeasibleSupervisorError) as err:
        build_super(g, bad)
    assert err.value.check == "feasibility"


def _supervisor_states_per_subset(g, s):
    """Per state of the subset construction of ``G||S``, the supervisor
    states among its members."""
    loop, pairs = sync_product_pairs(g, s)
    _, members = subset_construction_with_members(loop)
    return [{pairs[p][1] for p in subset} for subset in members]


def test_super_subsets_hold_one_supervisor_state():
    """What ``build_super`` rests on: with every unobservable transition of
    S a selfloop, S's state after a closed-loop string depends only on its
    observed projection, so each subset of ``G||S`` holds one supervisor
    state.  A moving unobservable transition breaks this, and
    ``build_super`` refuses such a supervisor before building anything."""
    instances = [loose_instance(random.Random(seed), max_plant=6, max_sup=6, max_events=4,
                                require_unobservable=True) for seed in range(60)]
    instances += [partial_observation_pair(seed) for seed in range(3)]
    instances += [scale_pair(random.Random(seed), core_states=8, factor=5) for seed in range(3)]
    for g, s in instances:
        assert all(len(zs) == 1 for zs in _supervisor_states_per_subset(g, s))
    alphabet = Alphabet([Event("u", True, False), Event("o", True, True)])
    g = Automaton("G", alphabet, ["x0", "x1"], 0, [], {(0, 0): 1, (0, 1): 1})
    moving = Automaton("M", alphabet, ["z0", "z1"], 0, [], {(0, 0): 1})
    assert {0, 1} in _supervisor_states_per_subset(g, moving)
    with pytest.raises(InfeasibleSupervisorError) as err:
        build_super(g, moving)
    assert err.value.check == "feasibility"


def test_super_rejects_disabled_uncontrollable():
    alphabet = Alphabet([Event("u", False, True), Event("c", True, True)])
    g = Automaton("G", alphabet, ["x0", "x1"], 0, [], {(0, 0): 1})
    s = Automaton("S", alphabet, ["z0"], 0, [], {(0, 1): 0})
    with pytest.raises(InfeasibleSupervisorError) as err:
        build_super(g, s)
    assert err.value.check == "controllability"


# ---------------------------------------------------------------------------
# cover extraction


def test_extract_identity(tank):
    g, s = tank
    sup = build_super(g, s)
    cover = extract_cover_from_simsup(sup, sup, g, s)
    assert cover.cells == tuple(frozenset({z}) for z in range(sup.n))
    data = control_data(g, sup)
    quotient = induce_quotient(sup, data, cover)
    assert is_des_isomorphic(quotient, sup).verdict


def test_extract_tank_quotient(tank):
    g, s = tank
    data = control_data(g, s)
    simsup = induce_quotient(s, data, Cover.from_cells([{0, 1, 2}, {3}]))
    sup = build_super(g, s)
    cover = extract_cover_from_simsup(sup, simsup, g, s)
    assert sorted(len(c) for c in cover.cells) == [1, 3]
    quotient = induce_quotient(sup, control_data(g, sup), cover)
    assert is_des_isomorphic(quotient, simsup).verdict


def test_extract_rejects_inequivalent(ordering_example):
    g, s1, _ = ordering_example
    sup = build_super(g, s1)
    # disabling the (controllable) d1 after 'a' stays feasible but shrinks
    # the closed loop, so the candidate is not control equivalent
    trans = {k: v for k, v in s1.trans.items() if k != (1, s1.alphabet.index("d1"))}
    narrower = Automaton("N", s1.alphabet, s1.states, s1.initial, s1.marked, trans)
    with pytest.raises(PreconditionError) as err:
        extract_cover_from_simsup(sup, narrower, g, s1)
    assert err.value.name == "control-equivalence"


def test_extract_rejects_a_finest_supervisor_that_leaves_the_loop(ordering_example):
    """``super_`` must define every event the closed loop takes; one built
    from a narrower supervisor does not, and one over another alphabet is
    refused outright."""
    g, s1, _ = ordering_example
    trans = {k: v for k, v in s1.trans.items() if k != (1, s1.alphabet.index("d1"))}
    narrower = Automaton("N", s1.alphabet, s1.states, s1.initial, s1.marked, trans)
    with pytest.raises(PreconditionError, match="leaves the candidate supervisor") as err:
        extract_cover_from_simsup(build_super(g, narrower), s1, g, s1)
    assert err.value.name == "control-equivalence"
    first, *rest = s1.alphabet.events
    flipped = Alphabet([Event(first.name, not first.controllable, first.observable), *rest])
    with pytest.raises(AlphabetMismatchError):
        extract_cover_from_simsup(build_super(g, s1).with_alphabet(flipped), s1, g, s1)


def test_extract_rejects_nonnormal(tank):
    g, s = tank
    sup = build_super(g, s)
    trans = dict(s.trans)
    trans[(0, s.alphabet.index("hEH"))] = 0
    padded = Automaton("P", s.alphabet, s.states, s.initial, s.marked, trans)
    with pytest.raises(PreconditionError) as err:
        extract_cover_from_simsup(sup, padded, g, s)
    assert err.value.name == "normality"


def test_extract_roundtrip_on_normal_quotients():
    rng = random.Random(73)
    done = 0
    while done < 25:
        g, s = loose_instance(rng, require_unobservable=rng.random() < 0.5)
        sup = build_super(g, s)
        simsup = generate_equivalent_supervisor(g, s, rng.randrange(2**32))
        if not is_normal(g, s, simsup)[0]:
            continue
        cover = extract_cover_from_simsup(sup, simsup, g, s)
        ok, violation = validate_cover(sup, control_data(g, sup), cover)
        assert ok, violation
        quotient = induce_quotient(sup, control_data(g, sup), cover)
        assert is_des_isomorphic(quotient, simsup).verdict
        done += 1


# ---------------------------------------------------------------------------
# heuristic reduction


def test_heuristic_tank_reaches_published_size(tank):
    g, s = tank
    reduced, report = reduce_heuristic(g, s)
    assert report.output_size == 2 and reduced.n == 2
    data = control_data(g, s)
    expected = induce_quotient(s, data, Cover.from_cells([{0, 1, 2}, {3}]))
    assert is_des_isomorphic(reduced, expected).verdict


def test_heuristic_no_merges_when_all_incompatible(nontransitive_example):
    # make every pair incompatible by conflicting enable/disable data
    alphabet = Alphabet([Event("a", True, True), Event("b", True, True)])
    g = Automaton("G", alphabet, ["x0", "x1"], 0, [],
                  {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    s = Automaton("S", alphabet, ["z0", "z1"], 0, [],
                  {(0, 0): 1, (1, 1): 0})
    reduced, report = reduce_heuristic(g, s)
    assert reduced.n == s.n
    assert is_des_isomorphic(reduced, s).verdict


def test_heuristic_output_contract_random():
    rng = random.Random(79)
    for _ in range(30):
        g, s = loose_instance(rng)
        reduced, report = reduce_heuristic(g, s)
        assert report.output_size <= report.input_size
        assert report.cover.is_partition
        assert check_control_feasibility(reduced)[0]
        assert loop_controllable(g, reduced)[0]
        assert control_equivalent(g, s, reduced) == (True, None)


def test_heuristic_scales_to_two_hundred_states():
    rng = random.Random(83)
    g, big = scale_pair(rng, core_states=8, factor=25)
    assert big.n == 200
    reduced, report = reduce_heuristic(g, big)
    assert reduced.n <= big.n
    assert report.steps <= 5 * big.n**4
    assert control_equivalent(g, big, reduced) == (True, None)


# ---------------------------------------------------------------------------
# exact reduction


def test_exact_ordering_sizes(ordering_example):
    g, s1, s2 = ordering_example
    _, r1 = reduce_exact_minimum(g, s1, mode="cover")
    _, r2 = reduce_exact_minimum(g, s2, mode="cover")
    assert (r1.output_size, r2.output_size) == (2, 3)
    _, p1 = reduce_exact_minimum(g, s1, mode="partition")
    assert p1.output_size == 2


def test_exact_cap_enforced(tank):
    g, s = tank
    with pytest.raises(SearchCapError):
        reduce_exact_minimum(g, s, cap_states=3)


def test_exact_not_larger_than_heuristic():
    rng = random.Random(89)
    for _ in range(25):
        g, s = loose_instance(rng, max_plant=5, max_sup=3)
        _, heuristic = reduce_heuristic(g, s)
        _, exact = reduce_exact_minimum(g, s, mode="cover")
        _, exact_partition = reduce_exact_minimum(g, s, mode="partition")
        assert exact.output_size <= exact_partition.output_size <= heuristic.output_size
        assert heuristic.output_size <= s.n


def _brute_force_minimum_cover(s, data, partitions_only):
    """Smallest valid cover by enumerating every candidate family of
    nonempty state subsets (independent of the backtracking search)."""
    import itertools

    states = range(s.n)
    subsets = [frozenset(c) for r in range(1, s.n + 1)
               for c in itertools.combinations(states, r)]
    for k in range(1, s.n + 1):
        for family in itertools.combinations(subsets, k):
            union = frozenset().union(*family)
            if union != frozenset(states):
                continue
            if partitions_only and sum(len(c) for c in family) != s.n:
                continue
            if validate_cover(s, data, Cover.from_cells(family))[0]:
                return k
    raise AssertionError("singleton cover always valid")


def test_exact_matches_brute_force_minimum():
    rng = random.Random(93)
    for _ in range(12):
        g, s = loose_instance(rng, max_plant=4, max_sup=4, max_events=3)
        if s.n > 4:
            continue
        data = control_data(g, s)
        _, cover_report = reduce_exact_minimum(g, s, mode="cover")
        assert cover_report.output_size == _brute_force_minimum_cover(s, data, False)
        _, part_report = reduce_exact_minimum(g, s, mode="partition")
        assert part_report.output_size == _brute_force_minimum_cover(s, data, True)


def test_exact_output_is_valid_quotient():
    rng = random.Random(97)
    for _ in range(15):
        g, s = loose_instance(rng, max_plant=4, max_sup=3)
        reduced, report = reduce_exact_minimum(g, s, mode="cover")
        assert reduced.n == len(report.cover)
        assert control_equivalent(g, s, reduced) == (True, None)


def test_exact_answers_the_blowup_pairs():
    # every supervisor state pair is incompatible once the relation is
    # closed under successors, so the search stops at its lower bound
    g91, s91, g255, s255 = parse_automaton((FIXTURES / "exact_blowup.aut").read_text())
    for g, s, size in ((g91, s91, 8), (g255, s255, 9)):
        for mode in ("partition", "cover"):
            _, report = reduce_exact_minimum(g, s, mode=mode)
            assert report.output_size == size and report.steps <= 20, (s.name, mode)


def test_exact_cover_node_count_on_seed_40():
    g, s = loose_instance(random.Random(40), max_plant=8, max_sup=10, max_events=5)
    _, report = reduce_exact_minimum(g, s, mode="cover")
    assert report.steps <= 5_000


def _assert_cells_closed_compatible(g, s, covers):
    """Returns whether the closure marked any pair the base masks leave open."""
    base = control_data(g, s).incompatibility_masks()
    closed = closed_incompatibility(s, base)
    for cover in covers:
        for cell in cover.cells:
            cell_mask = sum(1 << z for z in cell)
            assert all(not closed[z] & cell_mask for z in cell), (s.name, sorted(cell))
    return closed != list(base)


def test_every_cover_cell_is_closed_compatible():
    """No valid control cover puts a pair the closure marks into one cell:
    checked on heuristic, exact and extracted covers, over supervisors and
    their finest supervisors."""
    refined = extracted = 0
    for seed in range(60):
        rng = random.Random(seed)
        g, s = loose_instance(rng, max_plant=8, max_sup=8, require_unobservable=seed % 2 == 1)
        sup = build_super(g, s)
        for x in (s, sup):
            covers = [reduce_heuristic(g, x)[1].cover]
            if x.n <= 10:
                covers += [reduce_exact_minimum(g, x, mode)[1].cover for mode in ("partition", "cover")]
            refined += _assert_cells_closed_compatible(g, x, covers)
        simsup = generate_equivalent_supervisor(g, s, seed)
        if is_normal(g, s, simsup)[0]:
            _assert_cells_closed_compatible(g, sup, [extract_cover_from_simsup(sup, simsup, g, s)])
            extracted += 1
    assert refined >= 10 and extracted >= 30, (refined, extracted)


# ---------------------------------------------------------------------------
# state characterization


def _bounded_enumeration_characterization(g, s, observation, bound):
    """All strings of the closed loop with the given observation and length
    at most ``bound``: reachable plant/supervisor pairs via shortest-path
    layers, then read the defining sets off those pairs."""
    product, pairs = sync_product_pairs(g, s)
    unobs = frozenset(e for e, ev in enumerate(g.alphabet) if not ev.observable)
    dist = {(product.initial, 0): 0}
    frontier = [(product.initial, 0)]
    while frontier:
        nxt = []
        for p, k in frontier:
            d = dist[(p, k)]
            for e, pt in product.out_rows[p]:
                if e in unobs:
                    key = (pt, k)
                elif k < len(observation) and e == observation[k]:
                    key = (pt, k + 1)
                else:
                    continue
                if key not in dist:
                    dist[(key[0], key[1])] = d + 1
                    nxt.append(key)
        frontier = nxt
    reached = [p for (p, k), d in dist.items() if k == len(observation) and d <= bound]
    names = g.alphabet.names
    enabled, disabled = set(), set()
    for p in reached:
        for e, _ in product.out_rows[p]:
            enabled.add(names[e])
        x, z = pairs[p]
        for e, _ in g.out_rows[x]:
            if s.step(z, e) is None:
                disabled.add(names[e])
    return frozenset(enabled), frozenset(disabled)


def _characterization_names(g, s, sup, z):
    """``characterize_super_state`` with both masks decoded to name sets."""
    return tuple(frozenset(g.alphabet.names_of(mask))
                 for mask in characterize_super_state(g, s, sup, z))


def _observations_per_super_state(sup):
    """Shortest observation (event index string) reaching each state."""
    observations = {sup.initial: ()}
    queue = [sup.initial]
    while queue:
        q = queue.pop(0)
        for e, t in sup.out_rows[q]:
            if t != q and t not in observations:
                observations[t] = observations[q] + (e,)
                queue.append(t)
    return observations


def test_characterize_full_observation_matches_control_data(ordering_example):
    g, s1, _ = ordering_example
    sup = build_super(g, s1)
    data = control_data(g, sup)
    for z in range(sup.n):
        enabled, disabled = characterize_super_state(g, s1, sup, z)
        assert enabled == data.enabled[z]
        assert disabled == data.disabled[z]


def test_characterize_tank_matches_table(tank):
    g, s = tank
    sup = build_super(g, s)
    iso = is_des_isomorphic(sup, s)
    table = control_data(g, s)
    for z in range(sup.n):
        enabled, disabled = characterize_super_state(g, s, sup, z)
        assert enabled == table.enabled[iso.mapping[z]]
        assert disabled == table.disabled[iso.mapping[z]]


def test_characterize_matches_enumeration_oracle():
    rng = random.Random(101)
    done = 0
    while done < 25:
        g, s = loose_instance(rng, max_plant=4, max_sup=3, require_unobservable=True)
        product = trim_reachable(sync_product(g, s))
        if product.n > 5:
            continue
        sup = build_super(g, s)
        observations = _observations_per_super_state(sup)
        assert set(observations) == set(range(sup.n))
        for z, w in observations.items():
            bound = (len(w) + 1) * product.n
            expected = _bounded_enumeration_characterization(g, s, w, bound)
            assert _characterization_names(g, s, sup, z) == expected
        done += 1


def test_characterize_reads_states_not_names():
    """A copy of SUPER with every state renamed gives the masks SUPER
    gives: the members are the closed-loop states walked with each state,
    not looked up by name."""
    for seed in range(20):
        g, s = loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
        sup = build_super(g, s)
        renamed = Automaton("renamed", sup.alphabet, [f"r{q}" for q in range(sup.n)],
                            sup.initial, sorted(sup.marked), sup.trans)
        for z in range(sup.n):
            assert (characterize_super_state(g, s, renamed, z)
                    == characterize_super_state(g, s, sup, z))


def test_characterize_unknown_state(tank):
    g, s = tank
    sup = build_super(g, s)
    with pytest.raises(ValueError):
        characterize_super_state(g, s, sup, 99)


# ---------------------------------------------------------------------------
# random equivalent supervisors


def test_generate_without_merges_reproduces_super():
    # states pairwise incompatible: every sampled cover is the singleton
    # cover, so every seed returns the finest supervisor itself
    alphabet = Alphabet([Event("a", True, True), Event("b", True, True)])
    g = Automaton("G", alphabet, ["x0", "x1"], 0, [],
                  {(0, 0): 1, (0, 1): 1, (1, 0): 0, (1, 1): 0})
    s = Automaton("S", alphabet, ["z0", "z1"], 0, [],
                  {(0, 0): 1, (1, 1): 0})
    sup = build_super(g, s)
    for seed in range(6):
        out = generate_equivalent_supervisor(g, s, seed)
        assert is_des_isomorphic(out, sup).verdict


def test_generate_deterministic_per_seed():
    rng = random.Random(103)
    g, s = loose_instance(rng)
    a = generate_equivalent_supervisor(g, s, 12345)
    b = generate_equivalent_supervisor(g, s, 12345)
    assert is_des_isomorphic(a, b).verdict


def test_generate_outputs_equivalent():
    rng = random.Random(107)
    for _ in range(10):
        g, s = loose_instance(rng, max_plant=4, max_sup=3)
        for seed in range(5):
            out = generate_equivalent_supervisor(g, s, seed)
            assert control_equivalent(g, s, out) == (True, None)


# ---------------------------------------------------------------------------
# which automata build transition rows


def _row_traffic_pairs():
    """Plant/supervisor pairs no other test has walked: the fixtures read
    anew, three bench-sized random supervisors (SUPERs of 177-251 states)
    and three ``exact_small`` bench instances on which the cover search
    runs.  The flag says whether the exact search fits them."""
    for name in ("tank.aut", "ordering.aut"):
        g, s, *_ = parse_automaton((FIXTURES / name).read_text())
        yield g, s, True
    for seed in (1, 2, 4):
        yield (*partial_observation_pair(seed), False)
    for seed in (1, 21, 30):
        yield (*loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5),
               True)


def test_only_plants_build_transition_rows(monkeypatch):
    """``Automaton.out_rows`` are built on first read, and only walks that
    read an automaton as their plant read them: after SUPER, the fineness
    and equivalence checks, normality, both reducers, the reachability and
    isomorphism checks and the full-against-partial comparison, no
    supervisor, SUPER, product or quotient holds rows.  A new
    supervisor-side reader of ``out_rows`` fails here instead of building
    rows for every SUPER.  No automaton on that traffic, plants included,
    holds the ``trans`` dict either: the library reads ``succ`` only.
    Both constructors are recorded, the dict one and the table one."""
    built = []
    init, from_table = Automaton.__init__, Automaton.from_table

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self)

    def recording_from_table(*args, **kwargs):
        built.append(a := from_table(*args, **kwargs))
        return a

    monkeypatch.setattr(Automaton, "__init__", recording_init)
    monkeypatch.setattr(Automaton, "from_table", staticmethod(recording_from_table))
    for g, s, exact in _row_traffic_pairs():
        assert "out_rows" not in vars(s)
        built.clear()
        sup = build_super(g, s)
        assert finer_than(g, s, sup, s).verdict
        assert control_equivalent(g, s, sup) == (True, None)
        assert is_normal(g, s, sup)[0]
        assert is_des_isomorphic(sup, trim_reachable(sup)).verdict
        outputs = [sup, reduce_heuristic(g, s)[0]]
        if exact:
            outputs += [reduce_exact_minimum(g, s, mode=mode)[0]
                        for mode in ("cover", "partition")]
            assert compare_full_vs_partial(g, sync_product(g, s, name="SF"), sup)[2]
        assert "out_rows" in vars(g)
        assert all(a is g for a in [s, *outputs, *built] if "out_rows" in vars(a))
        assert all(any(a is b for b in built) for a in outputs)
        assert not [a for a in [g, s, *outputs, *built] if "trans" in vars(a)]

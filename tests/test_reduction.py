"""Covers, quotient supervisors, the finest supervisor, cover extraction,
heuristic and exact reduction, state characterization."""

import random
import sys

import pytest

from supred import reduction
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
    _ExactSearch,
    build_super,
    characterize_super_state,
    extract_cover_from_simsup,
    generate_equivalent_supervisor,
    induce_quotient,
    reduce_exact_minimum,
    reduce_heuristic,
    super_construction,
    validate_cover,
)
from supred.supervision import (
    check_control_feasibility,
    closed_incompatibility,
    closed_loop_pairs,
    control_data,
    control_data_from_sets,
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


def test_quotients_carry_the_masks_of_their_table():
    """Every quotient that the heuristic, both exact modes and the
    equivalent-supervisor draw return, on the bench families and 120 loose
    instances, has the enabled masks of its own table.  The exact search
    refuses the bench families' supervisors at its default cap, as the
    draw refuses SUPERs above its cap."""
    pairs = ([scale_pair(random.Random(i), core_states=8, factor=25) for i in range(3)]
             + [partial_observation_pair(i) for i in range(13)]
             + [loose_instance(random.Random(i), max_plant=8, max_sup=10, max_events=5)
                for i in range(120)])
    reducers = [lambda g, s, _: reduce_heuristic(g, s)[0],
                lambda g, s, _: reduce_exact_minimum(g, s, mode="partition")[0],
                lambda g, s, _: reduce_exact_minimum(g, s, mode="cover")[0],
                generate_equivalent_supervisor]
    built = 0
    for seed, (g, s) in enumerate(pairs):
        for reduce in reducers:
            try:
                q = reduce(g, s, seed)
            except SearchCapError:
                continue
            m = len(q.alphabet)
            assert [q.enabled(z) for z in range(q.n)] == [
                sum(1 << e for e, t in enumerate(q.succ[z * m:(z + 1) * m]) if t >= 0)
                for z in range(q.n)]
            built += 1
    assert built > 4 * 120


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


def test_cover_without_cells_raises(tank):
    g, s = tank
    with pytest.raises(CoverError, match="no cells"):
        validate_cover(s, control_data(g, s), Cover(()))


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


def _mask_pass_spy(monkeypatch):
    """Patches the target-mask pass of ``_cover_targets`` to record the
    cover of every call."""
    reached = []
    original = reduction._cover_target_masks

    def spy(s, data, c):
        reached.append(c)
        return original(s, data, c)

    monkeypatch.setattr(reduction, "_cover_target_masks", spy)
    return reached


def test_valid_partitions_never_reach_the_target_mask_pass(monkeypatch):
    """Heuristic, partition-mode and ``--seed`` covers, on the fixtures and
    seeded families, are settled from the cell of each state; a silent
    fall-back to the target masks fails here, not only in bench time."""
    pairs = [(g, s) for g, *sups in (parse_automaton((FIXTURES / name).read_text())
                                     for name in ("tank.aut", "ordering.aut", "nontransitive.aut"))
             for s in sups]
    pairs += [scale_pair(random.Random(i), core_states=8, factor=5) for i in range(3)]
    pairs += [partial_observation_pair(i) for i in range(3)]
    pairs += [loose_instance(random.Random(i), max_plant=8, max_sup=10, max_events=5)
              for i in range(40)]
    reached = _mask_pass_spy(monkeypatch)
    covers = joint = 0
    for seed, (g, s) in enumerate(pairs):
        data = control_data(g, s)
        reports = [reduce_heuristic(g, s)[1]]
        try:
            reports.append(reduce_exact_minimum(g, s, mode="partition")[1])
        except SearchCapError:
            pass
        for report in reports:
            assert validate_cover(s, data, report.cover) == (True, None)
            joint += len(report.cover) < s.n
        try:
            generate_equivalent_supervisor(g, s, seed)
        except SearchCapError:
            pass
        covers += len(reports)
    assert reached == []
    assert covers >= 90 and joint >= 60


def test_overlapping_covers_always_reach_the_target_mask_pass(monkeypatch):
    """Heuristic covers padded with subcells (valid) or with one state put
    into a second cell (mostly invalid): every check and quotient over
    them runs the target-mask pass once."""
    reached = _mask_pass_spy(monkeypatch)
    rng = random.Random(37)
    calls = valid = 0
    for seed in range(20):
        g, s = scale_pair(random.Random(seed), core_states=8, factor=3)
        data = control_data(g, s)
        cells = list(reduce_heuristic(g, s)[1].cover.cells)
        padded = cells + [rng.sample(sorted(cell), rng.randint(1, len(cell))) for cell in cells]
        moved = [*cells[1:], cells[0] | {rng.choice(sorted(cells[1]))}] if len(cells) > 1 else []
        for cover in map(Cover.from_cells, (padded, moved) if moved else (padded,)):
            assert not cover.is_partition
            ok, _ = validate_cover(s, data, cover)
            calls += 1
            if ok:
                induce_quotient(s, data, cover)
                calls += 1
                valid += 1
            assert len(reached) == calls
    assert valid >= 20 and calls >= 55


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


def test_extract_rejects_a_simsup_state_the_loop_never_reaches(tank):
    """An isolated unmarked state passes the normality check, which looks
    at transitions and marked states, and is refused once its cell comes
    out empty."""
    g, s = tank
    lone = Automaton("L", s.alphabet, [*s.states, "lone"], s.initial, s.marked, s.trans)
    with pytest.raises(PreconditionError, match="never reached by the closed loop") as err:
        extract_cover_from_simsup(build_super(g, s), lone, g, s)
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


def test_exact_refuses_a_search_deeper_than_the_recursion_limit():
    """Both searches recurse once per state: a 1,200-state supervisor under
    a cap of 5,000 outgrows the interpreter's recursion limit and is
    refused with :class:`SearchCapError` instead of a ``RecursionError``;
    an 800-state one still reduces."""
    g, s = scale_pair(random.Random(0), core_states=8, factor=150)
    for mode in ("partition", "cover"):
        with pytest.raises(SearchCapError) as err:
            reduce_exact_minimum(g, s, mode=mode, cap_states=5000)
        assert str(err.value) == ("exact search recursion cap exceeded: "
                                  f"1200 states > cap {sys.getrecursionlimit()}")
    g, s = scale_pair(random.Random(0), core_states=8, factor=100)
    for mode in ("partition", "cover"):
        assert reduce_exact_minimum(g, s, mode=mode, cap_states=5000)[1].output_size == 8


def test_exact_refuses_an_unknown_mode(tank):
    g, s = tank
    with pytest.raises(ValueError, match="unknown mode 'bogus'"):
        reduce_exact_minimum(g, s, mode="bogus")


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
    assert report.steps <= 1_898


def test_exact_cover_node_count_on_exact_small():
    """Cover-mode nodes summed over the bench ``exact_small`` instances
    (seeds 0-118 and 255)."""
    steps = 0
    for seed in (*range(119), 255):
        g, s = loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
        steps += reduce_exact_minimum(g, s, mode="cover")[1].steps
    assert steps == 2_793


def test_exact_cover_on_seed_1011():
    """A 16-state supervisor whose cover search ran 6.9M nodes without the
    conflict-family bound and 0.36M with it; the cover is the one it found
    before."""
    g, s = loose_instance(random.Random(1011), max_plant=10, max_sup=16)
    _, report = reduce_exact_minimum(g, s, mode="cover", cap_states=64)
    assert [sorted(cell) for cell in report.cover.cells] == \
        [[0, 8, 15], [1, 11], [2, 14], [3, 6, 7, 9], [4, 10, 13], [5], [12]]


def test_exact_partition_prunes_a_large_supervisor_with_a_tiny_minimum():
    """A 200-state supervisor whose minimum has 2 states: the partition
    search, which runs first in both modes, did not finish in 20 minutes
    when it checked successors only on full assignments."""
    g, s = scale_pair(random.Random(2), core_states=8, factor=25)
    for mode in ("partition", "cover"):
        _, report = reduce_exact_minimum(g, s, mode=mode, cap_states=200)
        assert report.output_size == 2 and report.steps <= 232, mode


def test_exact_partition_on_seed_1134():
    """A 15-state supervisor whose partition search took 7,611,433 nodes
    when it checked successors only on full assignments; the partition is
    the one it found."""
    g, s = loose_instance(random.Random(1134), max_plant=10, max_sup=16)
    _, report = reduce_exact_minimum(g, s, mode="partition", cap_states=64)
    assert report.steps <= 5_818
    assert [sorted(cell) for cell in report.cover.cells] == \
        [[0, 7], [1, 3, 12], [2, 4, 13], [5, 6, 11], [8, 14], [9], [10]]


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


def test_super_keys_give_the_control_data_of_super():
    """The closed loop meets SUPER state ``(z, X)`` with exactly the plant
    states ``X``, so the construction's keys are the plant-state sets of
    ``G||SUPER`` and give SUPER's control data, which
    ``generate_equivalent_supervisor`` reads instead of walking that loop:
    on the ten ``finest_compare`` bench pairs and 300 loose instances."""
    pairs = [scale_pair(random.Random(seed), core_states=8, factor=25) for seed in range(5)]
    pairs += [partial_observation_pair(seed) for seed in range(5)]
    pairs += [loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
              for seed in range(300)]
    for g, s in pairs:
        sup, keys = super_construction(g, s)
        sets = [subset for _, subset in keys]
        assert sets == closed_loop_pairs(g, sup)[2]
        assert control_data_from_sets(g, sup, sets) == control_data(g, sup)


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


def test_cell_of_names_the_first_cell_holding_a_state():
    cover = Cover.from_cells([{1, 2}, {0, 1}])
    assert (cover.cell_of(0), cover.cell_of(1), cover.cell_of(2)) == (0, 0, 1)
    with pytest.raises(ValueError, match="state 3 not covered"):
        cover.cell_of(3)


def test_extract_cover_refuses_a_simsup_moving_on_an_unobservable_event(tank):
    """Tank's ``S`` with its unobservable ``z1 qo0`` selfloop retargeted to
    ``z2`` is refused by the structural feasibility check, which names the
    moving transition, before any closed loop is read."""
    g, s = tank
    z1, z2 = s.states.index("z1"), s.states.index("z2")
    moved = Automaton("M", s.alphabet, s.states, s.initial, sorted(s.marked),
                      {**s.trans, (z1, s.alphabet.index("qo0")): z2})
    with pytest.raises(PreconditionError) as err:
        extract_cover_from_simsup(build_super(g, s), moved, g, s)
    assert err.value.name == "feasibility"
    assert "simsup: ('z1', 'qo0', 'z2')" in str(err.value)


def test_cover_search_above_the_minimum_returns_a_valid_cover():
    """Asked for 6 cells on a 6-state supervisor whose minimum cover has 5,
    the cover search meets nodes that cover every state with nothing
    pending, which it refuses (a smaller cover exists), and still returns
    a valid cover of 6 cells."""
    g, s = loose_instance(random.Random(1), max_plant=8, max_sup=10, max_events=5)
    data = control_data(g, s)
    assert s.n == 6
    assert reduce_exact_minimum(g, s, mode="cover")[1].output_size == 5
    cells = _ExactSearch(s, data).find_cover(6)
    assert len(cells) == 6
    assert validate_cover(s, data, Cover.from_cells(cells)) == (True, None)

"""Feasibility checks, control data (against a string-enumeration oracle),
compatibility, control equivalence, normality."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supred.automata import Alphabet, Automaton, Event, sync_product, trim_reachable
from supred.supervision import (
    check_control_existence,
    check_control_feasibility,
    closed_incompatibility,
    closed_loop_pairs,
    compatibility_relation,
    compatible,
    control_data,
    control_equivalent,
    is_normal,
    loop_controllable,
    successor_incompatibility,
)

from tests.generators import (
    loose_instance,
    random_alphabet,
    random_automaton,
    random_feasible_supervisor,
    random_plant,
)
from tests.product_oracle import sync_product_pairs


def _names(alphabet, mask):
    return frozenset(alphabet.names_of(mask))


# ---------------------------------------------------------------------------
# feasibility checks


def test_existence_all_uncontrollable_selflooped():
    alphabet = Alphabet([Event("c1", True, True), Event("u1", False, True), Event("u2", False, True)])
    trans = {(0, 1): 0, (0, 2): 0, (1, 1): 1, (1, 2): 1, (0, 0): 1}
    s = Automaton("S", alphabet, ["a", "b"], 0, [0], trans)
    assert check_control_existence(s) == (True, None)


def test_existence_missing_uncontrollable():
    alphabet = Alphabet([Event("u1", False, True)])
    s = Automaton("S", alphabet, ["a", "b"], 0, [], {(0, 0): 1})
    ok, witness = check_control_existence(s)
    assert not ok and witness == "b"


def test_existence_on_tank_supervisor_is_strict(tank):
    # the printed enabled sets omit plant-impossible uncontrollable events,
    # so the strict control-pattern reading rejects this supervisor while
    # the loop-relative condition accepts it
    g, s = tank
    ok, witness = check_control_existence(s)
    assert not ok and witness == "z0"
    assert loop_controllable(g, s) == (True, None)


def test_feasibility_full_observation_vacuous(ordering_example):
    _, s1, _ = ordering_example
    assert check_control_feasibility(s1) == (True, None)


def test_feasibility_rejects_moving_unobservable():
    alphabet = Alphabet([Event("u", True, False)])
    s = Automaton("S", alphabet, ["a", "b"], 0, [], {(0, 0): 1})
    ok, witness = check_control_feasibility(s)
    assert not ok and witness == ("a", "u", "b")


def test_feasibility_tank_supervisor(tank):
    _, s = tank
    assert check_control_feasibility(s) == (True, None)


def test_feasibility_witness_is_the_least_moving_transition():
    """The witness is the least violating (state, event) in index order,
    whatever order ``trans`` arrives in."""
    rng = random.Random(47)
    violated = 0
    for _ in range(60):
        alphabet = random_alphabet(rng, max_events=4, require_unobservable=True)
        a = random_automaton(rng, alphabet, max_states=6)
        items = list(a.trans.items())
        rng.shuffle(items)
        s = Automaton("S", alphabet, a.states, a.initial, a.marked, dict(items))
        moving = sorted((q, e, t) for (q, e), t in items
                        if not alphabet.events[e].observable and t != q)
        expected = (True, None)
        if moving:
            q, e, t = moving[0]
            expected = (False, (s.states[q], alphabet.name(e), s.states[t]))
            violated += len(moving) > 1
        assert check_control_feasibility(s) == expected
    assert violated >= 10


# ---------------------------------------------------------------------------
# control data


def test_tank_control_data_rows(tank):
    g, s = tank
    data = control_data(g, s)
    z = {name: i for i, name in enumerate(s.states)}
    assert _names(g.alphabet, data.enabled[z["z3"]]) == {"qo1", "hM", "hH"}
    assert _names(g.alphabet, data.disabled[z["z3"]]) == {"qo0"}
    assert data.marked_s[z["z3"]] is False and data.marked_g[z["z3"]] is False
    assert _names(g.alphabet, data.enabled[z["z2"]]) == {"qo0", "qo1", "hL", "hM", "hH"}
    assert _names(g.alphabet, data.disabled[z["z2"]]) == frozenset()
    assert data.marked_s[z["z2"]] is True and data.marked_g[z["z2"]] is True
    assert all(data.reachable_in_loop)


def test_unreachable_supervisor_state_gets_vacuous_data():
    alphabet = Alphabet([Event("a", True, True), Event("b", False, True)])
    g = Automaton("G", alphabet, ["x"], 0, [0], {(0, 0): 0})
    # state "off" is reachable in s (via b) but the plant never emits b
    s = Automaton("S", alphabet, ["on", "off"], 0, [1], {(0, 0): 0, (0, 1): 1, (1, 0): 1})
    data = control_data(g, s)
    off = s.state_index("off")
    assert not data.reachable_in_loop[off]
    assert _names(alphabet, data.disabled[off]) == frozenset()
    assert data.marked_s[off] is False and data.marked_g[off] is False


def _brute_force_control_data(g, s, max_len):
    """Evaluate the defining string quantifications directly on all strings
    tracked by both automata up to max_len."""
    n_events = len(g.alphabet)
    disabled = [set() for _ in range(s.n)]
    marked_s = [False] * s.n
    marked_g = [False] * s.n
    frontier = [((), g.initial, s.initial)]
    for _ in range(max_len + 1):
        nxt = []
        for string, x, z in frontier:
            if x in g.marked:
                marked_g[z] = True
                if z in s.marked:
                    marked_s[z] = True
            for e in range(n_events):
                xt, zt = g.step(x, e), s.step(z, e)
                if xt is not None and zt is None:
                    disabled[z].add(g.alphabet.name(e))
                if xt is not None and zt is not None:
                    nxt.append((string + (e,), xt, zt))
        frontier = nxt
    return disabled, marked_s, marked_g


def test_control_data_matches_brute_force():
    rng = random.Random(41)
    for _ in range(30):
        g, s = loose_instance(rng, max_plant=4, max_sup=3, max_events=3)
        data = control_data(g, s)
        bound = trim_reachable(sync_product(g, s)).n + 1
        disabled, marked_s, marked_g = _brute_force_control_data(g, s, bound)
        for z in range(s.n):
            assert _names(g.alphabet, data.disabled[z]) == disabled[z], (z, s.states[z])
            assert data.marked_s[z] == marked_s[z]
            assert data.marked_g[z] == marked_g[z]


def test_closed_loop_pairs_follow_the_product_order():
    """The pairs ``control_data`` and ``build_super`` read are the states of
    the oracle ``sync_product_pairs``, in its order, for supervisors and
    for automata of any shape; the plant sets hold, per supervisor state,
    the plant states of its pairs."""
    rng = random.Random(47)
    for _ in range(40):
        g, s = loose_instance(rng, max_plant=6, max_sup=8, max_events=4)
        a = random_automaton(rng, s.alphabet, max_states=6)
        for other in (s, a):
            xs, zs, sets = closed_loop_pairs(g, other)
            assert list(zip(xs, zs)) == sync_product_pairs(g, other)[1]
            assert sets == [sum(1 << x for x, z in zip(xs, zs) if z == q)
                            for q in range(other.n)]


def test_control_data_invariants_random():
    rng = random.Random(43)
    uncontrollable_ok = 0
    for _ in range(60):
        g, s = loose_instance(rng)
        data = control_data(g, s)
        for z in range(s.n):
            assert not data.enabled[z] & data.disabled[z]
            assert not (data.marked_s[z] and not data.marked_g[z])
        if check_control_existence(s)[0]:
            uncontrollable = sum(1 << e for e in g.alphabet.uncontrollable)
            for z in range(s.n):
                assert not data.disabled[z] & uncontrollable
            uncontrollable_ok += 1
    assert uncontrollable_ok > 0


# ---------------------------------------------------------------------------
# compatibility


def test_tank_compatible_pairs(tank):
    g, s = tank
    data = control_data(g, s)
    z = {name: i for i, name in enumerate(s.states)}
    assert compatible(data, z["z0"], z["z1"])
    assert not compatible(data, z["z2"], z["z3"])  # qo0 enabled vs disabled
    assert compatible(data, z["z3"], z["z3"])
    rel = compatibility_relation(data)
    off_diagonal = {(i, j) for (i, j) in rel.pairs() if i < j}
    assert off_diagonal == {(0, 1), (0, 2), (0, 3), (1, 2)}


def test_compatibility_single_state():
    alphabet = Alphabet([Event("a", True, True)])
    g = Automaton("G", alphabet, ["x"], 0, [], {})
    s = Automaton("S", alphabet, ["z"], 0, [], {})
    rel = compatibility_relation(control_data(g, s))
    assert rel.matrix == ((True,),)


def test_compatibility_all_true_when_data_vacuous():
    alphabet = Alphabet([Event("a", True, True)])
    g = Automaton("G", alphabet, ["x"], 0, [], {(0, 0): 0})
    s = Automaton("S", alphabet, ["p", "q"], 0, [], {(0, 0): 1, (1, 0): 0})
    rel = compatibility_relation(control_data(g, s))
    assert all(all(row) for row in rel.matrix)


def test_compatibility_reflexive_symmetric_not_transitive(nontransitive_example):
    g, s = nontransitive_example
    rel = compatibility_relation(control_data(g, s))
    n = len(rel.states)
    assert all(rel.holds(i, i) for i in range(n))
    assert all(rel.holds(i, j) == rel.holds(j, i) for i in range(n) for j in range(n))
    r = {name: i for i, name in enumerate(s.states)}
    assert rel.holds(r["r0"], r["r1"])
    assert rel.holds(r["r1"], r["r2"])
    assert not rel.holds(r["r0"], r["r2"])


def test_compatibility_reflexive_symmetric_random():
    rng = random.Random(47)
    for _ in range(40):
        g, s = loose_instance(rng)
        rel = compatibility_relation(control_data(g, s))
        n = len(rel.states)
        for i in range(n):
            assert rel.holds(i, i)
            for j in range(n):
                assert rel.holds(i, j) == rel.holds(j, i)


def test_compatible_unknown_state(tank):
    g, s = tank
    with pytest.raises(ValueError):
        compatible(control_data(g, s), 0, 99)
    with pytest.raises(IndexError):
        compatibility_relation(control_data(g, s)).holds(0, 99)


# ---------------------------------------------------------------------------
# incompatibility closed under successors


def _implication_chart(s, masks):
    """Textbook implication chart over a pair table: mark a pair whenever
    some event defined at both states leads to a marked pair, and sweep
    the whole table again until a sweep marks nothing."""
    marked = {(i, j) for i in range(s.n) for j in range(s.n) if masks[i] >> j & 1}
    changed = True
    while changed:
        changed = False
        for i in range(s.n):
            for j in range(s.n):
                if (i, j) in marked:
                    continue
                for e in range(len(s.alphabet)):
                    ti, tj = s.step(i, e), s.step(j, e)
                    if ti is not None and tj is not None and (ti, tj) in marked:
                        marked.add((i, j))
                        changed = True
                        break
    return [sum(1 << j for j in range(s.n) if (i, j) in marked) for i in range(s.n)]


@st.composite
def _automaton_with_masks(draw):
    """A deterministic automaton of at most 8 states and symmetric base
    incompatibility masks over its states."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 3))
    alphabet = Alphabet([Event(f"e{e}", True, True) for e in range(m)])
    targets = draw(st.lists(st.none() | st.integers(0, n - 1), min_size=n * m, max_size=n * m))
    trans = {(q, e): t for (q, e), t in zip(((q, e) for q in range(n) for e in range(m)), targets)
             if t is not None}
    s = Automaton("S", alphabet, [f"z{q}" for q in range(n)], 0, [], trans)
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6))
    masks = [0] * n
    for i, j in pairs:
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    return s, masks


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_automaton_with_masks())
def test_closed_incompatibility_is_the_implication_chart(case):
    s, masks = case
    closed = closed_incompatibility(s, masks)
    assert closed == _implication_chart(s, masks)
    assert closed_incompatibility(s, closed) == closed
    for i in range(s.n):
        assert masks[i] & ~closed[i] == 0
        for j in range(s.n):
            assert closed[i] >> j & 1 == closed[j] >> i & 1
            if closed[i] >> j & 1:
                continue
            for e in range(len(s.alphabet)):
                ti, tj = s.step(i, e), s.step(j, e)
                assert ti is None or tj is None or not closed[ti] >> tj & 1


def test_closed_incompatibility_follows_a_chain():
    # e walks z0 -> z1 -> z2 and z3 -> z4 -> z5; only (z2, z5) conflicts
    alphabet = Alphabet([Event("e", True, True)])
    trans = {(0, 0): 1, (1, 0): 2, (3, 0): 4, (4, 0): 5}
    s = Automaton("S", alphabet, [f"z{q}" for q in range(6)], 0, [], trans)
    masks = [0, 0, 1 << 5, 0, 0, 1 << 2]
    closed = closed_incompatibility(s, masks)
    pairs = {(i, j) for i in range(6) for j in range(i) if closed[i] >> j & 1}
    assert pairs == {(5, 2), (4, 1), (3, 0)}


def _one_round(s, masks):
    """One round of the implication chart over a pair table: a pair is
    marked when the base masks mark it or some event defined at both
    states leads to a pair the base masks mark."""
    marked = set()
    for i in range(s.n):
        for j in range(s.n):
            if masks[i] >> j & 1:
                marked.add((i, j))
                continue
            for e in range(len(s.alphabet)):
                ti, tj = s.step(i, e), s.step(j, e)
                if ti is not None and tj is not None and masks[ti] >> tj & 1:
                    marked.add((i, j))
                    break
    return [sum(1 << j for j in range(s.n) if (i, j) in marked) for i in range(s.n)]


def _assert_one_step_masks(s, masks):
    one_step = successor_incompatibility(s, masks)
    assert one_step == _one_round(s, masks)
    closed = closed_incompatibility(s, masks)
    for i in range(s.n):
        assert masks[i] & ~one_step[i] == 0
        assert one_step[i] & ~closed[i] == 0
        for j in range(s.n):
            assert one_step[i] >> j & 1 == one_step[j] >> i & 1
    return one_step


@settings(derandomize=True, max_examples=200, deadline=None)
@given(_automaton_with_masks())
def test_successor_incompatibility_is_one_round_of_the_chart(case):
    _assert_one_step_masks(*case)


def test_successor_incompatibility_on_seeded_supervisors():
    """Control-data masks of seeded loose instances and of 40-80 state
    partial-observation supervisors; the one-step masks must add pairs on
    some of them, and the closure must equal the textbook chart."""
    widened = 0
    for seed in range(40):
        g, s = loose_instance(random.Random(seed), max_plant=8, max_sup=10, max_events=5)
        masks = compatibility_relation(control_data(g, s)).masks
        widened += _assert_one_step_masks(s, masks) != list(masks)
        assert closed_incompatibility(s, masks) == _implication_chart(s, masks)
    rng = random.Random(13)
    checked = 0
    while checked < 4:
        alphabet = random_alphabet(rng, max_events=5, require_unobservable=True)
        g = random_plant(rng, alphabet, max_states=10, uncontrollable_complete=True)
        try:
            s = random_feasible_supervisor(rng, alphabet, max_states=80, full_gamma=True)
        except ValueError:  # too few observable events for a spanning tree
            continue
        if s.n < 40:
            continue
        masks = compatibility_relation(control_data(g, s)).masks
        widened += _assert_one_step_masks(s, masks) != list(masks)
        assert closed_incompatibility(s, masks) == _implication_chart(s, masks)
        checked += 1
    assert widened >= 10


def test_successor_incompatibility_stops_after_one_step():
    # the chain of test_closed_incompatibility_follows_a_chain: one round
    # marks (z1, z4) but not (z0, z3), which the closure reaches
    alphabet = Alphabet([Event("e", True, True)])
    trans = {(0, 0): 1, (1, 0): 2, (3, 0): 4, (4, 0): 5}
    s = Automaton("S", alphabet, [f"z{q}" for q in range(6)], 0, [], trans)
    masks = [0, 0, 1 << 5, 0, 0, 1 << 2]
    one_step = successor_incompatibility(s, masks)
    pairs = {(i, j) for i in range(6) for j in range(i) if one_step[i] >> j & 1}
    assert pairs == {(5, 2), (4, 1)}


# ---------------------------------------------------------------------------
# control equivalence


def test_tank_closed_loop_language():
    """Bounded enumeration of the tank's closed loop: the overflow event
    never occurs under supervision although the plant alone can reach it,
    and the valve is never closed while the level is high."""
    from tests.conftest import FIXTURES
    from supred.automata import parse_automaton

    g, s = parse_automaton((FIXTURES / "tank.aut").read_text())
    heh = g.alphabet.index("hEH")
    qo0 = g.alphabet.index("qo0")
    hh, hm = g.alphabet.index("hH"), g.alphabet.index("hM")

    plant_reaches_overflow = False
    frontier = [((), g.initial, s.initial)]
    for _ in range(9):
        nxt = []
        for string, x, z in frontier:
            for e in range(len(g.alphabet)):
                xt = g.step(x, e)
                if xt is None:
                    continue
                assert not (e == heh and s.step(z, e) is not None)
                zt = s.step(z, e)
                if zt is None:
                    continue
                word = string + (e,)
                if e == qo0:
                    # no close command while the most recent level is high
                    levels = [ev for ev in word if ev in (hh, hm)]
                    assert not (levels and levels[-1] == hh)
                nxt.append((word, xt, zt))
        frontier = nxt
    # the plant alone does reach the overflow event
    seen, stack = {g.initial}, [g.initial]
    while stack:
        x = stack.pop()
        for e, t in g.out_rows[x]:
            if e == heh:
                plant_reaches_overflow = True
            if t not in seen:
                seen.add(t)
                stack.append(t)
    assert plant_reaches_overflow


def test_control_equivalent_reflexive(tank):
    g, s = tank
    assert control_equivalent(g, s, s) == (True, None)


def test_control_equivalent_ordering_pair(ordering_example):
    g, s1, s2 = ordering_example
    assert control_equivalent(g, s1, s2) == (True, None)


def test_control_equivalent_tank_quotient(tank):
    from supred.reduction import Cover, induce_quotient

    g, s = tank
    data = control_data(g, s)
    quotient = induce_quotient(s, data, Cover.from_cells([{0, 1, 2}, {3}]))
    assert control_equivalent(g, s, quotient) == (True, None)


def test_control_equivalence_is_equivalence_relation():
    from supred.reduction import generate_equivalent_supervisor

    rng = random.Random(53)
    for _ in range(10):
        g, s = loose_instance(rng, max_plant=4, max_sup=3)
        members = [s] + [generate_equivalent_supervisor(g, s, seed) for seed in (1, 2)]
        for a in members:
            assert control_equivalent(g, a, a)[0]
            for b in members:
                ab = control_equivalent(g, a, b)[0]
                assert ab == control_equivalent(g, b, a)[0]
                for c in members:
                    if ab and control_equivalent(g, b, c)[0]:
                        assert control_equivalent(g, a, c)[0]


# ---------------------------------------------------------------------------
# normality


def test_normal_closed_loop_itself(ordering_example):
    g, s1, _ = ordering_example
    loop = trim_reachable(sync_product(g, s1))
    assert is_normal(g, s1, loop) == (True, None)


def test_normal_rejects_impossible_transition(tank):
    g, s = tank
    # add an hEH transition the closed loop can never exercise
    trans = dict(s.trans)
    trans[(0, s.alphabet.index("hEH"))] = 0
    sp = Automaton("SP", s.alphabet, s.states, s.initial, s.marked, trans)
    ok, witness = is_normal(g, s, sp)
    assert not ok and witness == ("transition", "z0", "hEH")


def test_normal_rejects_unreachable_marked_state():
    # three-state candidate with every transition exercised but a marked
    # tail state reached only by strings outside the marked closed loop
    alphabet = Alphabet([Event("a", False, True), Event("b", False, True)])
    g = Automaton("G", alphabet, ["x0", "x1", "x2"], 0, [1], {(0, 0): 1, (1, 1): 2})
    s = Automaton("S", alphabet, ["z0", "z1", "z2"], 0, [1], {(0, 0): 1, (1, 1): 2})
    sp = Automaton(
        "SP", alphabet, ["y0", "y1", "y2"], 0, [1, 2], {(0, 0): 1, (1, 1): 2}
    )
    ok, witness = is_normal(g, s, sp)
    assert not ok and witness == ("marked", "y2")
    # brute-force confirmation over every string the loop tracks:
    # none that ends in y2 is marked by both plant and supervisor
    for string in ([], [0], [0, 1], [1], [1, 0]):
        end_g, end_s, end_sp = g.run(string), s.run(string), sp.run(string)
        if end_g is not None and end_s is not None and end_sp == 2:
            assert not (end_g in g.marked and end_s in s.marked)

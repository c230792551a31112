"""The fineness order and the size comparisons it predicts."""

import random

import pytest

from supred.automata import Alphabet, Automaton, Event, sync_product, trim_reachable
from supred.errors import InfeasibleSupervisorError, PreconditionError
from supred.ordering import (
    compare_full_vs_partial,
    compare_reductions,
    finer_than,
    verify_super_is_finest,
)
from supred.reduction import build_super, generate_equivalent_supervisor
from supred.supervision import control_data

from tests.generators import loose_instance


def c_unobservable(*automata):
    """Reread automata with the event c turned unobservable."""
    base = automata[0].alphabet
    alphabet = Alphabet(
        [Event(e.name, e.controllable, e.observable and e.name != "c") for e in base]
    )
    return tuple(a.with_alphabet(alphabet) for a in automata)


def test_finer_reflexive(tank):
    g, s = tank
    assert finer_than(g, s, s, s).verdict


def test_ordering_example_is_ordered(ordering_example):
    g, s1, s2 = ordering_example
    assert finer_than(g, s1, s1, s2).verdict


def test_ordering_example_reverse_fails_at_empty_string(ordering_example):
    g, s1, s2 = ordering_example
    witness = finer_than(g, s1, s2, s1)
    assert not witness.verdict
    string, clause = witness.counterexample
    assert string == []
    # at the initial pair the coarser supervisor already blurs c into its
    # initial state: both its disabled set and its marking indicators
    # strictly exceed the finer one's; the first clause in definition
    # order to break is the disabled-set containment
    assert clause == "disabled"
    data1, data2 = control_data(g, s2), control_data(g, s1)
    assert data1.disabled[s2.initial] & ~data2.disabled[s1.initial]
    assert data1.marked_s[s2.initial] and not data2.marked_s[s1.initial]


def test_order_witness_is_false_when_not_finer(ordering_example):
    """An ``OrderWitness`` reads as its verdict, so a failed comparison is
    falsy and not merely a non-empty result."""
    g, s1, s2 = ordering_example
    assert finer_than(g, s1, s1, s2)
    assert not finer_than(g, s1, s2, s1)


def test_finer_refuses_inequivalent_candidates(tank, ordering_example):
    g, s = tank
    g2, s1, _ = ordering_example
    # same-alphabet candidate with a different closed loop
    import supred.automata as am

    narrower = am.Automaton(
        "N", s.alphabet, ["z"], 0, [], {(0, s.alphabet.index("hL")): 0}
    )
    with pytest.raises(PreconditionError) as err:
        finer_than(g, s, narrower, s)
    assert err.value.name == "control-equivalence"


def test_counterexample_replays(ordering_example):
    g, s1, s2 = ordering_example
    witness = finer_than(g, s1, s2, s1)
    string, clause = witness.counterexample
    idx = [g.alphabet.index(x) for x in string]
    z1, z2 = s2.run(idx), s1.run(idx)
    data1, data2 = control_data(g, s2), control_data(g, s1)
    checks = {
        "enabled": lambda: not data1.enabled[z1] & ~data2.enabled[z2],
        "disabled": lambda: not data1.disabled[z1] & ~data2.disabled[z2],
        "markedS": lambda: (not data1.marked_s[z1]) or data2.marked_s[z2],
        "markedG": lambda: (not data1.marked_g[z1]) or data2.marked_g[z2],
    }
    assert not checks[clause]()


def test_counterexample_replays_random():
    rng = random.Random(127)
    replayed = 0
    while replayed < 15:
        g, s = loose_instance(rng, max_plant=4, max_sup=3)
        sup = build_super(g, s)
        coarse = generate_equivalent_supervisor(g, s, rng.randrange(2**32))
        witness = finer_than(g, s, coarse, sup)
        if witness.verdict:
            continue
        string, clause = witness.counterexample
        idx = [g.alphabet.index(x) for x in string]
        z1, z2 = coarse.run(idx), sup.run(idx)
        data1, data2 = control_data(g, coarse), control_data(g, sup)
        holds = {
            "enabled": not data1.enabled[z1] & ~data2.enabled[z2],
            "disabled": not data1.disabled[z1] & ~data2.disabled[z2],
            "markedS": (not data1.marked_s[z1]) or data2.marked_s[z2],
            "markedG": (not data1.marked_g[z1]) or data2.marked_g[z2],
        }
        assert not holds[clause]
        replayed += 1


def test_finer_reflexive_transitive_random():
    rng = random.Random(109)
    for _ in range(8):
        g, s = loose_instance(rng, max_plant=4, max_sup=3)
        members = [build_super(g, s)] + [
            generate_equivalent_supervisor(g, s, seed) for seed in (5, 6, 7)
        ]
        for a in members:
            assert finer_than(g, s, a, a).verdict
        for a in members:
            for b in members:
                for c in members:
                    ab = finer_than(g, s, a, b).verdict
                    bc = finer_than(g, s, b, c).verdict
                    if ab and bc:
                        assert finer_than(g, s, a, c).verdict


def test_super_is_finest_on_fixture(tank):
    g, s = tank
    assert verify_super_is_finest(g, s, s).verdict
    sup = build_super(g, s)
    assert verify_super_is_finest(g, s, sup).verdict


def test_super_is_finest_on_generated():
    rng = random.Random(113)
    for _ in range(10):
        g, s = loose_instance(rng, max_plant=4, max_sup=3)
        for seed in range(3):
            candidate = generate_equivalent_supervisor(g, s, seed)
            assert verify_super_is_finest(g, s, candidate).verdict


def test_compare_reductions_ordering_example(ordering_example):
    g, s1, s2 = ordering_example
    assert compare_reductions(g, s1, s1, s2) == (2, 3, True)


def test_compare_reductions_equal_inputs(ordering_example):
    g, s1, _ = ordering_example
    size1, size2, ordered = compare_reductions(g, s1, s1, s1)
    assert size1 == size2 == 2 and ordered


def test_compare_reductions_computes_control_data_once_per_candidate(
    ordering_example, monkeypatch
):
    import supred.ordering
    import supred.reduction
    import supred.supervision

    g, s1, s2 = ordering_example
    seen = []
    build = supred.supervision.control_data_from_sets

    def counting(plant, s, sets):
        seen.append(s.name)
        return build(plant, s, sets)

    # every ControlData comes from the one builder, after a walk of its own
    # or off the fineness walk, through whichever module binds it
    for module in (supred.supervision, supred.ordering, supred.reduction):
        monkeypatch.setattr(module, "control_data_from_sets", counting)
    assert compare_reductions(g, s1, s1, s2) == (2, 3, True)
    assert seen == ["S1", "S2"]


def test_compare_reductions_gates_feasibility_after_fineness(ordering_example):
    """With c unobservable, S1 tracks c across states and is infeasible:
    it passes the closed-loop gates and fails only the feasibility gate
    of the reduction, while the reverse order fails fineness first."""
    g, s1, s2 = c_unobservable(*ordering_example)
    with pytest.raises(InfeasibleSupervisorError) as err:
        compare_reductions(g, s1, s1, s2)
    assert err.value.check == "feasibility"
    with pytest.raises(PreconditionError) as err:
        compare_reductions(g, s1, s2, s1)
    assert err.value.name == "fineness"
    assert compare_reductions(g, s1, s2, s2) == (3, 3, True)


def test_compare_reductions_names_failed_precondition(ordering_example):
    g, s1, s2 = ordering_example
    import supred.automata as am

    trans = dict(s1.trans)
    trans[(3, s1.alphabet.index("e"))] = 3   # never exercised after c
    padded = am.Automaton("P", s1.alphabet, s1.states, s1.initial, s1.marked, trans)
    with pytest.raises(PreconditionError) as err:
        compare_reductions(g, s1, s1, padded)
    assert err.value.name == "normality"


def test_full_vs_partial_same_supervisor(ordering_example):
    g, s1, _ = ordering_example
    size_f, size_p, ordered = compare_full_vs_partial(g, s1, s1)
    assert size_f == size_p == 2 and ordered


def test_full_vs_partial_ordering_example(ordering_example):
    g, s1, s2 = c_unobservable(*ordering_example)
    assert compare_full_vs_partial(g, s1, s2) == (2, 3, True)


def test_full_vs_partial_names_failed_hypothesis(ordering_example):
    g, s1, s2 = c_unobservable(*ordering_example)
    with pytest.raises(PreconditionError) as err:
        compare_full_vs_partial(g, s2, s1)
    assert err.value.name == "full-isomorphism"


def test_full_vs_partial_walks_the_partial_loop_once(ordering_example, monkeypatch):
    """The observer of ``s_partial`` is its subset construction, the one
    walk of its closed loop outside the equivalence walk: no pair walk of
    that loop is made (there was one), and ``closed_loop_pairs`` runs
    once, for the product of ``s_full``."""
    import supred.automata
    import supred.ordering
    import supred.reduction
    import supred.supervision

    g, s1, s2 = c_unobservable(*ordering_example)
    seen = []
    walk = supred.supervision.closed_loop_pairs

    def counting(plant, s):
        seen.append(s)
        return walk(plant, s)

    for module in (supred.automata, supred.supervision, supred.ordering, supred.reduction):
        if hasattr(module, "closed_loop_pairs"):
            monkeypatch.setattr(module, "closed_loop_pairs", counting)
    assert compare_full_vs_partial(g, s1, s2) == (2, 3, True)
    assert [s is s1 for s in seen] == [True]


def test_full_vs_partial_walks_each_automaton_to_reachability_once(monkeypatch):
    """The reachability guards and the isomorphism checks read one BFS
    order per automaton: ``SF``, its closed loop, ``s_partial`` and its
    observer, each walked once (the walks were 2, 1, 2 and 1)."""
    import supred.automata

    g, s = loose_instance(random.Random(0), max_plant=6, max_sup=6, max_events=4,
                          require_unobservable=True)
    s_full = trim_reachable(sync_product(g, s, name="SF"))
    s_partial = build_super(g, s)
    walked, walk = [], supred.automata._reachable_set

    def counting(a):
        walked.append(a)
        return walk(a)

    monkeypatch.setattr(supred.automata, "_reachable_set", counting)
    assert compare_full_vs_partial(g, s_full, s_partial) == (6, 6, True)
    assert len({id(a) for a in walked}) == len(walked)
    assert sorted(a.name for a in walked) == ["G||SF", "SF", "SUPER", "SUPER"]
    assert s_full in walked and s_partial in walked


def _with_unreachable(a, extra):
    """``a`` plus ``extra`` states that nothing leads to."""
    states = list(a.states) + [f"dead{i}" for i in range(extra)]
    return Automaton(a.name, a.alphabet, states, a.initial, sorted(a.marked), dict(a.trans))


@pytest.mark.parametrize("extra", [1, 2])
def test_full_vs_partial_refuses_unreachable_sides_by_their_isomorphism_name(extra):
    """A side with unreachable states is refused by its own isomorphism
    name, whether it has as many states as its closed loop or observer
    (``extra`` 2, where the morphism check would refuse it as
    ``reachable``) or not (``extra`` 1)."""
    alphabet = Alphabet([Event("a", True, True)])
    g = Automaton("G", alphabet, ["x0", "x1", "x2"], 0, [2], {(0, 0): 1, (1, 0): 2})
    loop = Automaton("S", alphabet, ["z0"], 0, [0], {(0, 0): 0})
    chain = sync_product(g, loop, name="SF")  # its own closed loop and observer
    assert chain.n == 3
    assert compare_full_vs_partial(g, chain, chain) == (1, 1, True)
    padded = _with_unreachable(loop, extra)
    for s_full, s_partial, name in ((padded, chain, "full-isomorphism"),
                                    (chain, padded, "partial-isomorphism")):
        with pytest.raises(PreconditionError) as err:
            compare_full_vs_partial(g, s_full, s_partial)
        assert err.value.name == name

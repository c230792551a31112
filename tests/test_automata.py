"""Automata core: format round-trips, product, trimming, projection,
morphisms, language equivalence, and the subset construction oracle of
``tests/product_oracle.py``."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supred.automata import (
    Alphabet,
    Automaton,
    Event,
    distinct_names,
    is_des_epimorphic,
    is_des_isomorphic,
    language_equivalent,
    parse_automaton,
    project_string,
    serialize_automaton,
    sync_product,
    trim_reachable,
)
from supred.errors import AlphabetMismatchError, ParseError

from tests.generators import random_alphabet, random_automaton
from tests.parse_oracle import DictAutomaton, differences
from tests.product_oracle import subset_construction

MINIMAL = """
automaton M
events 1
a c o
states 1
only
initial only
marked 0
trans 0
end
"""


def universal_one_state(alphabet, name="U"):
    trans = {(0, e): 0 for e in range(len(alphabet))}
    return Automaton(name, alphabet, ["u"], 0, [0], trans)


# ---------------------------------------------------------------------------
# names


@pytest.mark.parametrize("name", ["", "a b", "a\tb", "a\u00a0b", "a\u3000b", "a\x1cb",
                                  "#", "p#1", "a#"])
def test_constructors_reject_empty_or_spaced_names(name):
    """Names are single tokens without ``#``, which starts a comment in the
    ``.aut`` format: any other name would serialize to text that does not
    parse back."""
    with pytest.raises(ValueError, match="bad event name"):
        Alphabet([Event(name, True, True)])
    alphabet = Alphabet([Event("a", True, True)])
    with pytest.raises(ValueError, match="bad state name"):
        Automaton("A", alphabet, [name], 0, [], {})
    with pytest.raises(ValueError, match="bad state name"):
        Automaton("A", alphabet, ["q", name], 0, [], {})
    with pytest.raises(ValueError, match="bad automaton name"):
        Automaton(name, alphabet, ["q"], 0, [], {})
    with pytest.raises(ValueError) as raised:
        Automaton("A", alphabet, ["q"], 0, [], {}).renamed(name)
    with pytest.raises(ValueError) as reference:
        DictAutomaton(name, alphabet, ["q"], 0, [], {})
    assert str(raised.value) == str(reference.value) == f"bad automaton name {name!r}"


@pytest.mark.parametrize("name", ["(x1,z2)", "z1+z2"])
def test_constructors_accept_product_and_subset_names(name):
    alphabet = Alphabet([Event(name, True, True)])
    assert Automaton("A", alphabet, [name], 0, [], {}).states == (name,)


def test_distinct_names_keeps_distinct_names():
    names = ["(x1,z2)", "z1+z2", "a~1"]
    assert distinct_names(names) is names


def test_distinct_names_suffixes_repeats():
    assert distinct_names(["a", "a", "a~1", "a"]) == ["a", "a~2", "a~1", "a~3"]
    for names in (["(p,q,r)", "(p,q,r)"], ["x", "x~1", "x", "x~1"]):
        out = distinct_names(names)
        assert len(set(out)) == len(out)
        assert all(n.split() == [n] and "#" not in n for n in out)
        assert distinct_names(names) == out


def test_state_index_reads_the_name_table(tank):
    _, s = tank
    assert [s.state_index(name) for name in s.states] == list(range(s.n))
    with pytest.raises(ValueError, match="unknown state 'nope' in automaton 'S'"):
        s.state_index("nope")
    with pytest.raises(ValueError, match="duplicate state name 'z0'"):
        Automaton("A", s.alphabet, ["z0", "z1", "z0"], 0, [], {})


def _checked_by_item(states, initial, marked, trans, m):
    """The constructor's checks and rows as per-item loops, kept as the
    reference for its bulk checks: the first fault's message, or the
    name index, transition rows and enabled masks."""
    n = len(states)
    if n == 0:
        return "automaton needs at least one state"
    index = {}
    for i, s in enumerate(states):
        if s.split() != [s] or "#" in s:
            return f"bad state name {s!r}"
        if s in index:
            return f"duplicate state name {s!r}"
        index[s] = i
    if not (0 <= initial < n):
        return "initial state out of range"
    if any(not (0 <= q < n) for q in marked):
        return "marked state out of range"
    for (q, e), t in trans.items():
        if not (0 <= q < n and 0 <= t < n and 0 <= e < m):
            return f"transition ({q},{e})->{t} out of range"
    out = [[] for _ in range(n)]
    for (q, e), t in trans.items():
        out[q].append((e, t))
    rows = tuple(tuple(sorted(row)) for row in out)
    enabled = tuple(sum(1 << e for e, _ in row) for row in rows)
    return index, rows, enabled


@st.composite
def _constructor_arguments(draw):
    """Valid states, initial state, marked states and a transition map in
    any key order, over up to three events (none included), with some
    states left without transitions."""
    m = draw(st.integers(0, 3))
    states = draw(st.lists(st.sampled_from(["a", "b", "c", "d", "(a,b)", "z1+z2"]),
                           min_size=1, max_size=5, unique=True))
    n = len(states)
    initial = draw(st.integers(0, n - 1))
    marked = draw(st.lists(st.integers(0, n - 1), max_size=3))
    trans = {}
    if m:
        trans = draw(st.dictionaries(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)),
                                     st.integers(0, n - 1), max_size=12))
    idle = draw(st.sets(st.integers(0, n - 1), max_size=n - 1))
    trans = {(q, e): t for (q, e), t in trans.items() if q not in idle}
    trans = dict(draw(st.permutations(list(trans.items()))))
    where = draw(st.integers(0, n))
    return m, states, initial, marked, trans, where


def _with_one_fault(m, states, initial, marked, trans, where):
    """The arguments with one fault put in each way: a bad, repeated or
    missing state name, or an index just out of range."""
    n = len(states)
    for name in ["", "a b", "\u3000", "a#b", states[-1]]:
        yield m, states[:where] + [name] + states[where:], initial, marked, trans
    yield m, [], initial, marked, trans
    for state in (-1, n):
        yield m, states, state, marked, trans
        yield m, states, initial, marked + [state], trans
        yield m, states, initial, marked, {**trans, (state, 0): 0}
        yield m, states, initial, marked, {**trans, (0, 0): state}
    for event in (-1, m):
        yield m, states, initial, marked, {**trans, (0, event): 0}


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_constructor_arguments())
def test_constructor_matches_per_item_checks(case):
    *valid, where = case
    for m, states, initial, marked, trans in [valid, *_with_one_fault(*valid, where)]:
        alphabet = Alphabet([Event(f"e{e}", True, True) for e in range(m)])
        expected = _checked_by_item(states, initial, marked, trans, m)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as raised:
                Automaton("A", alphabet, states, initial, marked, trans)
            with pytest.raises(ValueError) as reference:
                DictAutomaton("A", alphabet, states, initial, marked, trans)
            assert str(raised.value) == str(reference.value) == expected
            continue
        a = Automaton("A", alphabet, states, initial, marked, trans)
        assert "trans" not in vars(a)  # derived from the table on first read
        index, rows, enabled = expected
        succ = [-1] * (len(states) * m)
        for q, row in enumerate(rows):
            for e, t in row:
                succ[q * m + e] = t
        assert [a.state_index(s) for s in index] == list(index.values())
        assert "out_rows" not in vars(a)  # rows are built on first read
        assert a.succ == succ
        assert tuple(a.out_rows[q] for q in range(a.n)) == rows
        assert tuple(a.enabled(q) for q in range(a.n)) == enabled
        rows_first = Automaton("A", alphabet, states, initial, marked, trans)
        assert tuple(rows_first.out_rows[q] for q in range(rows_first.n)) == rows
        assert rows_first.succ == succ
        assert differences(a, DictAutomaton("A", alphabet, states, initial, marked, trans)) == []


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_constructor_arguments())
def test_dense_table_matches_trans(case):
    """``succ`` is the caller's ``trans`` as one dense table, the derived
    ``trans`` is that map again, in key order, and ``step`` and ``run``
    agree with it: None on an undefined step, out-of-range indices
    included."""
    m, states, initial, marked, trans, _ = case
    alphabet = Alphabet([Event(f"e{e}", True, True) for e in range(m)])
    a = Automaton("A", alphabet, states, initial, marked, trans)
    assert len(a.succ) == a.n * m
    assert a.trans == trans and list(a.trans) == sorted(trans)
    for q in range(a.n):
        for e in range(m):
            assert a.succ[q * m + e] == trans.get((q, e), -1)
            assert a.step(q, e) == trans.get((q, e))
            assert a.run([e], start=q) == trans.get((q, e))
    for q, e in [(-1, 0), (a.n, 0), (0, -1), (0, m)]:
        assert a.step(q, e) is None and a.run([e], start=q) is None


def test_caller_dict_edits_change_nothing():
    """The constructor reads the caller's dict once; editing it afterwards
    changes neither the table nor any view derived from it."""
    alphabet = Alphabet([Event("a", True, True), Event("u", False, False)])
    trans = {(1, 1): 1, (0, 0): 1}
    a = Automaton("A", alphabet, ["p", "q"], 0, [1], trans)
    text = serialize_automaton(a)
    trans[(0, 1)] = 0
    trans[(1, 0)] = 5
    del trans[(0, 0)]
    assert a.succ == [1, -1, -1, 1]
    assert a.trans == {(0, 0): 1, (1, 1): 1} and a.trans is not trans
    assert a.out_rows == (((0, 1),), ((1, 1),))
    assert (a.enabled(0), a.enabled(1), a.n_trans) == (1, 2, 2)
    assert serialize_automaton(a) == text
    assert a.step(0, 1) is None and a.run([0, 1, 1]) == 1 and a.run([0, 0]) is None


def test_table_constructor_keeps_the_table(tank):
    """``from_table`` keeps the caller's table and computes the enabled
    masks and the name index when they are not given; ``renamed`` and
    ``with_alphabet`` share the table; ``trans`` is built on first read."""
    _, s = tank
    m = len(s.alphabet)
    table = list(s.succ)
    a = Automaton.from_table("T", s.alphabet, s.states, s.initial, s.marked, table)
    assert a.succ is table and "trans" not in vars(a)
    assert [a.enabled(q) for q in range(a.n)] == [s.enabled(q) for q in range(s.n)]
    assert [a.state_index(name) for name in s.states] == list(range(s.n))
    assert serialize_automaton(a) == serialize_automaton(s).replace("automaton S", "automaton T")
    hidden = Alphabet(Event(ev.name, ev.controllable, False) for ev in s.alphabet)
    for b in (a.renamed("R"), a.with_alphabet(hidden)):
        assert b.succ is table and "trans" not in vars(b)
    assert a.trans == {(q, e): t for q in range(a.n) for e in range(m)
                       if (t := table[q * m + e]) >= 0}
    assert "trans" in vars(a)


# ---------------------------------------------------------------------------
# parsing and serialization


def test_parse_minimal():
    (a,) = parse_automaton(MINIMAL)
    assert a.n == 1 and not a.trans and not a.marked


def test_parse_rejects_nondeterminism():
    text = """
automaton N
events 1
a c o
states 3
q r s
initial q
marked 0
trans 2
q a r
q a s
end
"""
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert err.value.kind == "nondeterministic"


@pytest.mark.parametrize(
    "mutation,kind",
    [
        ("q a r", "unknown"),           # unknown state r
        ("q b q", "unknown"),           # unknown event b
    ],
)
def test_parse_rejects_unknown_names(mutation, kind):
    text = f"""
automaton N
events 1
a c o
states 1
q
initial q
marked 0
trans 1
{mutation}
end
"""
    with pytest.raises(ParseError) as err:
        parse_automaton(text)
    assert err.value.kind == kind


def test_parse_rejects_duplicates():
    with pytest.raises(ParseError) as err:
        parse_automaton(
            "automaton D\nevents 2\na c o\na u o\nstates 1\nq\ninitial q\nmarked 0\ntrans 0\nend\n"
        )
    assert err.value.kind == "duplicate"


def test_parse_reports_position():
    with pytest.raises(ParseError) as err:
        parse_automaton("automaton X\nevents 1\na c q\n")
    assert err.value.line == 3


def test_parse_rejects_empty_automaton():
    with pytest.raises(ParseError):
        parse_automaton("automaton E\nevents 0\nstates 0\ninitial\n")


def test_parse_ordering_fixture(ordering_example):
    g, s1, s2 = ordering_example
    assert len(g.alphabet) == 6
    uncontrollable = g.alphabet.names_of(g.alphabet.uncontrollable_mask)
    assert set(g.alphabet.names) - set(uncontrollable) == {"d1", "d2"}
    assert g.alphabet.unobservable_mask == 0


def test_serialize_is_canonical_fixed_point():
    (a,) = parse_automaton(MINIMAL)
    once = serialize_automaton(a)
    again = serialize_automaton(parse_automaton(once)[0])
    assert once == again


def test_serialize_zero_marked_states():
    (a,) = parse_automaton(MINIMAL)
    assert "marked 0" in serialize_automaton(a)


def test_roundtrip_tank_supervisor(tank):
    _, s = tank
    text = serialize_automaton(s)
    (back,) = parse_automaton(text)
    assert back.states == ("z0", "z1", "z2", "z3")
    assert is_des_isomorphic(back, s).verdict
    assert serialize_automaton(back) == text


def test_roundtrip_random():
    rng = random.Random(7)
    for _ in range(25):
        a = random_automaton(rng, random_alphabet(rng))
        text = serialize_automaton(a)
        (back,) = parse_automaton(text)
        assert serialize_automaton(back) == text
        assert is_des_isomorphic(a, back).verdict


# ---------------------------------------------------------------------------
# synchronous product and trimming


def test_product_idempotent_on_self(tank):
    g, _ = tank
    p = sync_product(g, g)
    assert is_des_isomorphic(p, trim_reachable(g)).verdict


def test_product_universal_identity(tank):
    g, _ = tank
    u = universal_one_state(g.alphabet)
    assert is_des_isomorphic(sync_product(g, u), trim_reachable(g)).verdict


def test_product_requires_same_alphabet(tank):
    g, _ = tank
    other = Alphabet([Event("x", True, True)])
    b = Automaton("B", other, ["q"], 0, [], {})
    with pytest.raises(AlphabetMismatchError):
        sync_product(g, b)


def test_product_commutative_associative_up_to_iso():
    rng = random.Random(11)
    for _ in range(20):
        alphabet = random_alphabet(rng)
        a = random_automaton(rng, alphabet, max_states=5)
        b = random_automaton(rng, alphabet, max_states=5)
        c = random_automaton(rng, alphabet, max_states=5)
        assert is_des_isomorphic(sync_product(a, b), sync_product(b, a)).verdict
        left = sync_product(sync_product(a, b), c)
        right = sync_product(a, sync_product(b, c))
        assert is_des_isomorphic(left, right).verdict


def test_trim_removes_unreachable_marked_state():
    alphabet = Alphabet([Event("a", True, True)])
    a = Automaton("T", alphabet, ["p", "dead"], 0, [1], {(0, 0): 0})
    t = trim_reachable(a)
    assert t.n == 1 and not t.marked


def test_trim_fixed_point_on_reachable(tank):
    g, _ = tank
    assert is_des_isomorphic(trim_reachable(g), g).verdict


def test_trim_idempotent_random():
    rng = random.Random(13)
    for _ in range(100):
        a = random_automaton(rng, random_alphabet(rng), max_states=6)
        once = trim_reachable(a)
        twice = trim_reachable(once)
        assert serialize_automaton(once) == serialize_automaton(twice)


# ---------------------------------------------------------------------------
# natural projection


def test_project_empty(tank):
    g, _ = tank
    assert project_string([], g.alphabet) == []


def test_project_identity_when_all_observable(ordering_example):
    g, _, _ = ordering_example
    assert project_string(["a", "c", "d1"], g.alphabet) == ["a", "c", "d1"]


def test_project_erases_unobservable(tank):
    g, _ = tank
    assert project_string(["qo1", "hM"], g.alphabet) == ["hM"]


def test_project_unknown_event(tank):
    g, _ = tank
    with pytest.raises(ValueError):
        project_string(["nope"], g.alphabet)


def test_project_is_monoid_morphism():
    rng = random.Random(17)
    for _ in range(50):
        alphabet = random_alphabet(rng, require_unobservable=True)
        names = alphabet.names
        s = [rng.choice(names) for _ in range(rng.randint(0, 6))]
        t = [rng.choice(names) for _ in range(rng.randint(0, 6))]
        assert project_string(s + t, alphabet) == project_string(s, alphabet) + project_string(t, alphabet)


# ---------------------------------------------------------------------------
# subset construction (the oracle SUPER is checked against)


def test_subset_identity_under_full_observation(ordering_example):
    g, s1, _ = ordering_example
    p = trim_reachable(sync_product(g, s1))
    assert is_des_isomorphic(subset_construction(p), p).verdict


def test_subset_single_state_selfloop():
    alphabet = Alphabet([Event("u", True, False)])
    a = Automaton("L", alphabet, ["q"], 0, [0], {(0, 0): 0})
    d = subset_construction(a)
    assert d.n == 1 and d.trans == {(0, 0): 0} and 0 in d.marked


def test_subset_unobservable_events_only_selfloop():
    rng = random.Random(19)
    for _ in range(40):
        alphabet = random_alphabet(rng, require_unobservable=True)
        a = trim_reachable(random_automaton(rng, alphabet, max_states=5))
        d = subset_construction(a)
        unobs = alphabet.unobservable_mask
        for (q, e), t in d.trans.items():
            if q != t:
                assert not unobs >> e & 1


def test_subset_marking_and_product_preserves_language():
    # composing the deterministic observer with the original automaton
    # must not change the closed or marked behaviour
    rng = random.Random(23)
    for _ in range(30):
        alphabet = random_alphabet(rng, require_unobservable=True)
        a = trim_reachable(random_automaton(rng, alphabet, max_states=5))
        d = subset_construction(a)
        combined = trim_reachable(sync_product(a, d))
        equal, witness = language_equivalent(combined, a)
        assert equal, witness


# ---------------------------------------------------------------------------
# morphisms


def _definition_epimorphism_holds(a, b, theta):
    """Direct transcription of the four morphism conditions for an
    explicit candidate map (exhaustive-oracle helper)."""
    if set(theta.values()) != set(range(b.n)):
        return False
    if theta[a.initial] != b.initial:
        return False
    if {theta[x] for x in a.marked} != set(b.marked):
        return False
    for (x, e), x2 in a.trans.items():
        if b.step(theta[x], e) != theta[x2]:
            return False
    for (y, e) in b.trans:
        if not any(theta[x] == y and a.step(x, e) is not None for x in range(a.n)):
            return False
    return True


def _exhaustive_epimorphic(a, b):
    import itertools

    for values in itertools.product(range(b.n), repeat=a.n):
        theta = dict(enumerate(values))
        if _definition_epimorphism_holds(a, b, theta):
            return True
    return False


def test_epimorphism_identity(tank):
    g, _ = tank
    r = is_des_epimorphic(g, g)
    assert r.verdict and r.mapping == {i: i for i in range(g.n)}


def test_epimorphism_renaming(tank):
    _, s = tank
    renamed = Automaton("R", s.alphabet, [f"w{i}" for i in range(s.n)], s.initial, s.marked, s.trans)
    assert is_des_epimorphic(s, renamed).verdict
    assert is_des_isomorphic(s, renamed).verdict


def test_epimorphism_chain_merge_oracle():
    alphabet = Alphabet([Event("e", True, True)])
    chain = Automaton("A", alphabet, ["s0", "s1", "s2"], 0, [2], {(0, 0): 1, (1, 0): 2, (2, 0): 2})
    merged = Automaton("B", alphabet, ["t0", "t1"], 0, [1], {(0, 0): 1, (1, 0): 1})
    forward = is_des_epimorphic(chain, merged)
    assert forward.verdict and forward.mapping == {0: 0, 1: 1, 2: 1}
    assert _exhaustive_epimorphic(chain, merged)
    backward = is_des_epimorphic(merged, chain)
    assert not backward.verdict
    assert not _exhaustive_epimorphic(merged, chain)


def test_epimorphism_agrees_with_exhaustive_oracle():
    rng = random.Random(29)
    checked = 0
    for _ in range(80):
        alphabet = random_alphabet(rng, max_events=3)
        a = trim_reachable(random_automaton(rng, alphabet, max_states=3))
        b = trim_reachable(random_automaton(rng, alphabet, max_states=3))
        assert is_des_epimorphic(a, b).verdict == _exhaustive_epimorphic(a, b)
        checked += 1
    assert checked == 80


def test_isomorphism_rejects_different_sizes(tank):
    g, s = tank
    assert not is_des_isomorphic(g, s).verdict


# ---------------------------------------------------------------------------
# language equivalence


def _language_membership(a, string):
    q = a.run(string)
    return q is not None, q is not None and q in a.marked


def _brute_force_equivalent(a, b, max_len):
    """Enumerate strings alive in either automaton up to max_len; return a
    shortest difference (closed or marked) if any."""
    frontier = [()]
    best = None
    for _ in range(max_len + 1):
        nxt = []
        for string in frontier:
            in_a, m_a = _language_membership(a, string)
            in_b, m_b = _language_membership(b, string)
            if in_a != in_b or m_a != m_b:
                if best is None or len(string) < len(best):
                    best = string
            if in_a or in_b:
                for e in range(len(a.alphabet)):
                    nxt.append(string + (e,))
        frontier = nxt
        if best is not None:
            return best
    return best


def test_language_equivalent_reflexive(tank):
    g, _ = tank
    assert language_equivalent(g, g) == (True, None)


def test_language_equivalent_detects_marking_flip(tank):
    _, s = tank
    flipped = Automaton("F", s.alphabet, s.states, s.initial, s.marked ^ {1}, s.trans)
    equal, witness = language_equivalent(s, flipped)
    assert not equal
    end = s.run([s.alphabet.index(x) for x in witness])
    assert end == 1  # witness reaches the flipped state


def test_language_equivalent_matches_brute_force():
    rng = random.Random(31)
    for _ in range(40):
        alphabet = random_alphabet(rng, max_events=3)
        a = trim_reachable(random_automaton(rng, alphabet, max_states=3))
        b = trim_reachable(random_automaton(rng, alphabet, max_states=3))
        equal, witness = language_equivalent(a, b)
        oracle = _brute_force_equivalent(a, b, a.n * b.n + 1)
        assert equal == (oracle is None)
        if not equal:
            assert len(witness) == len(oracle)  # both shortest
            wit = [a.alphabet.index(x) for x in witness]
            assert _language_membership(a, wit) != _language_membership(b, wit)

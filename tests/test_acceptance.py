"""Acceptance suite.

Each test realises one acceptance criterion at its stated budget and prints
one ``PASS``/``FAIL`` line (run with ``pytest -s`` to see the lines as they
happen).  All randomness is seeded, so the suite is deterministic.
"""

import contextlib
import io
import json
import random
import time
from pathlib import Path

from supred.automata import (
    is_des_isomorphic,
    parse_automaton,
    serialize_automaton,
    sync_product,
    trim_reachable,
)
from supred.cli import run as cli_run
from supred.errors import PreconditionError
from supred.ordering import compare_full_vs_partial, compare_reductions, finer_than
from supred.reduction import (
    Cover,
    _congruence_from_merges,
    build_super,
    extract_cover_from_simsup,
    generate_equivalent_supervisor,
    induce_quotient,
    reduce_exact_minimum,
    reduce_heuristic,
    validate_cover,
)
from supred.supervision import (
    check_control_existence,
    check_control_feasibility,
    control_data,
    control_equivalent,
    is_normal,
    loop_controllable,
)

from tests.conftest import FIXTURES
from tests.generators import loose_instance, scale_pair, strict_instance
from tests.product_oracle import subset_construction
from tests.test_reduction import (
    _bounded_enumeration_characterization,
    _characterization_names,
    _observations_per_super_state,
)

TANK = str(FIXTURES / "tank.aut")
ORDERING = str(FIXTURES / "ordering.aut")


@contextlib.contextmanager
def criterion(name: str, budget_seconds: float):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"FAIL {name} ({time.monotonic() - started:.2f}s)")
        raise
    elapsed = time.monotonic() - started
    status = "PASS" if elapsed < budget_seconds else "FAIL"
    print(f"{status} {name} ({elapsed:.2f}s, budget {budget_seconds:.0f}s)")
    assert elapsed < budget_seconds, f"{name} exceeded {budget_seconds}s"


def _random_cover_on(rng, sup, data) -> Cover:
    pairs = [(i, j) for i in range(sup.n) for j in range(i + 1, sup.n)]
    rng.shuffle(pairs)
    cover, _ = _congruence_from_merges(sup, data, pairs[: rng.randint(0, len(pairs))])
    return cover


def test_tank_control_data_table():
    """The single-tank supervisor's control-data table, exactly."""
    with criterion("tank-data-table", 1.0):
        out = io.StringIO()
        result = cli_run(["data", "-g", f"{TANK}:G", "-s", f"{TANK}:S"], stdout=out)
        assert result.exit_code == 0
        assert out.getvalue() == (
            "z0: En={hL,hM} D={} M=false T=false\n"
            "z1: En={qo0,qo1,hL,hM} D={} M=false T=false\n"
            "z2: En={qo0,qo1,hL,hM,hH} D={} M=true T=true\n"
            "z3: En={qo1,hM,hH} D={qo0} M=false T=false\n"
        )


def test_tank_reduction():
    """The published two-cell cover reduces the tank supervisor to 2 states."""
    with criterion("tank-reduction", 1.0):
        g, s = parse_automaton(Path(TANK).read_text())
        data = control_data(g, s)
        cover = Cover.from_cells([{0, 1, 2}, {3}])
        ok, violation = validate_cover(s, data, cover)
        assert ok, violation
        quotient = induce_quotient(s, data, cover)
        assert quotient.n == 2
        assert check_control_feasibility(quotient)[0]
        assert loop_controllable(g, quotient)[0]
        assert control_equivalent(g, s, quotient) == (True, None)


def test_ordering_example_sizes():
    """Fineness verdict plus exact reduced sizes 2 and 3 on the ordering pair."""
    with criterion("ordering-sizes", 5.0):
        g, s1, s2 = parse_automaton(Path(ORDERING).read_text())
        assert finer_than(g, s1, s1, s2).verdict
        _, r1 = reduce_exact_minimum(g, s1, mode="cover")
        _, r2 = reduce_exact_minimum(g, s2, mode="cover")
        assert (r1.output_size, r2.output_size) == (2, 3)
        assert compare_reductions(g, s1, s1, s2) == (2, 3, True)


def test_quotient_construction_suite():
    """Quotients of the finest supervisor by random valid covers stay
    feasible (both checks) and control equivalent: 200 instances."""
    with criterion("quotient-suite", 60.0):
        rng = random.Random(2024)
        instances = 0
        while instances < 200:
            g, s = strict_instance(rng)
            sup = build_super(g, s)
            data = control_data(g, sup)
            cover = _random_cover_on(rng, sup, data)
            assert validate_cover(sup, data, cover)[0]
            quotient = induce_quotient(sup, data, cover)
            assert quotient.n == len(cover)
            ok, witness = check_control_existence(quotient)
            assert ok, witness
            ok, witness = check_control_feasibility(quotient)
            assert ok, witness
            equal, separating = control_equivalent(g, s, quotient)
            assert equal, separating
            instances += 1
        assert instances >= 200


def test_cover_extraction_suite():
    """Every normal equivalent supervisor is a quotient of the finest one:
    100 generated candidates, extraction validates, quotient isomorphic."""
    with criterion("cover-extraction-suite", 60.0):
        rng = random.Random(4099)
        accepted = 0
        while accepted < 100:
            g, s = loose_instance(rng, max_plant=5, max_sup=3,
                                  require_unobservable=rng.random() < 0.5)
            sup = build_super(g, s)
            candidates = [reduce_heuristic(g, s)[0]]
            candidates += [
                generate_equivalent_supervisor(g, s, rng.randrange(2**32))
                for _ in range(2)
            ]
            for simsup in candidates:
                if not is_normal(g, s, simsup)[0]:
                    continue
                cover = extract_cover_from_simsup(sup, simsup, g, s)
                ok, violation = validate_cover(sup, control_data(g, sup), cover)
                assert ok, violation
                quotient = induce_quotient(sup, control_data(g, sup), cover)
                assert is_des_isomorphic(quotient, simsup).verdict
                accepted += 1
        assert accepted >= 100


def test_state_characterization_suite():
    """Member-based enabled/disabled sets of finest-supervisor states equal
    the bounded string-enumeration oracle: 50 partial-observation instances."""
    with criterion("state-characterization-oracle", 60.0):
        rng = random.Random(6151)
        accepted = 0
        while accepted < 50:
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
            accepted += 1
        assert accepted >= 50


def test_finest_supervisor_suite():
    """The subset-construction supervisor is finer than every generated
    control-equivalent supervisor: 200 candidates."""
    with criterion("finest-supervisor-suite", 60.0):
        rng = random.Random(8191)
        checked = 0
        while checked < 200:
            g, s = loose_instance(rng, max_plant=4, max_sup=3,
                                  require_unobservable=rng.random() < 0.5)
            sup = build_super(g, s)
            candidates = [s] + [
                generate_equivalent_supervisor(g, s, rng.randrange(2**32))
                for _ in range(7)
            ]
            for candidate in candidates:
                witness = finer_than(g, s, sup, candidate)
                assert witness.verdict, witness.counterexample
                checked += 1
        assert checked >= 200


def test_reduction_rate_suite():
    """Finer supervisors reduce at least as well: 50 ordered normal pairs,
    exact minimum cover sizes compared."""
    with criterion("reduction-rate-suite", 120.0):
        rng = random.Random(1201)
        pairs = 0
        while pairs < 50:
            g, s = loose_instance(rng, max_plant=4, max_sup=3,
                                  require_unobservable=rng.random() < 0.5)
            sup = build_super(g, s)
            if sup.n > 8:
                continue
            assert is_normal(g, s, sup)[0]
            coarse = generate_equivalent_supervisor(g, s, rng.randrange(2**32))
            if not is_normal(g, s, coarse)[0]:
                continue
            fine = sup if rng.random() < 0.7 else generate_equivalent_supervisor(
                g, s, rng.randrange(2**32))
            if fine.n > 8 or not is_normal(g, s, fine)[0]:
                continue
            if not finer_than(g, s, fine, coarse).verdict:
                continue
            size_fine, size_coarse, ordered = compare_reductions(g, s, fine, coarse)
            assert ordered, (size_fine, size_coarse)
            pairs += 1
        assert pairs >= 50


def test_full_vs_partial_suite():
    """Full observation reduces at least as well as partial observation:
    20 instances satisfying the isomorphism hypotheses."""
    with criterion("full-vs-partial-suite", 120.0):
        from tests.generators import random_alphabet, random_automaton, random_plant

        rng = random.Random(3271)
        accepted = 0
        while accepted < 20:
            alphabet = random_alphabet(rng, max_events=4, require_unobservable=True)
            g = random_plant(rng, alphabet, max_states=4)
            shape = random_automaton(rng, alphabet, max_states=3)
            s_full = trim_reachable(sync_product(g, shape, name="SF"))
            if s_full.n > 8:
                continue
            s_partial = subset_construction(
                trim_reachable(sync_product(g, s_full)), name="SP")
            if s_partial.n > 8:
                continue
            try:
                size_f, size_p, ordered = compare_full_vs_partial(g, s_full, s_partial)
            except PreconditionError:
                continue
            assert ordered, (size_f, size_p)
            accepted += 1
        assert accepted >= 20


def test_scale_bounds():
    """Heuristic reduction of a 200-state supervisor finishes fast; exact
    search above the cap refuses with exit code 4 instead of hanging."""
    with criterion("scale", 15.0):
        rng = random.Random(5407)
        g, big = scale_pair(rng, core_states=8, factor=25)
        assert big.n == 200
        started = time.monotonic()
        reduced, report = reduce_heuristic(g, big)
        elapsed = time.monotonic() - started
        assert elapsed < 10.0, f"heuristic took {elapsed:.1f}s"
        assert reduced.n <= big.n
        assert check_control_feasibility(reduced)[0]
        assert loop_controllable(g, reduced)[0]
        equal, separating = control_equivalent(g, big, reduced)
        assert equal, separating

        g2, eleven = scale_pair(rng, core_states=11, factor=1)
        assert eleven.n == 11
        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as tmp:
            gf = pathlib.Path(tmp) / "g.aut"
            sf = pathlib.Path(tmp) / "s.aut"
            gf.write_text(serialize_automaton(g2))
            sf.write_text(serialize_automaton(eleven))
            result = cli_run(
                ["reduce", "--exact", "-g", str(gf), "-s", str(sf)],
                stdout=io.StringIO(), stderr=io.StringIO())
            assert result.exit_code == 4


def test_cli_contract():
    """Canonical-form stability plus the documented exit-code matrix."""
    with criterion("cli-contract", 30.0):
        # canonical form is a fixed point of parse/serialize
        for path in (TANK, ORDERING):
            for a in parse_automaton(Path(path).read_text()):
                text = serialize_automaton(a)
                assert serialize_automaton(parse_automaton(text)[0]) == text

        import tempfile, pathlib

        with tempfile.TemporaryDirectory() as tmp:
            tmp = pathlib.Path(tmp)
            (tmp / "nd.aut").write_text(
                "automaton N\nevents 1\na c o\nstates 2\nq r\ninitial q\n"
                "marked 0\ntrans 2\nq a r\nq a q\nend\n")
            (tmp / "bad.aut").write_text("automaton X\nevents nope\n")
            infeasible = (
                "automaton I\nevents 2\nu c n\no c o\nstates 2\np q\ninitial p\n"
                "marked 0\ntrans 1\np u q\nend\n")
            (tmp / "inf.aut").write_text(infeasible)
            (tmp / "plant.aut").write_text(
                "automaton P\nevents 2\nu c n\no c o\nstates 2\np q\ninitial p\n"
                "marked 0\ntrans 2\np u q\np o q\nend\n")
            matrix = [
                (["verify", "equiv", "-g", f"{ORDERING}:G",
                  "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2"], 0),
                (["iso", f"{TANK}:G", f"{TANK}:S"], 1),
                (["frobnicate"], 2),
                (["parse", str(tmp / "bad.aut")], 2),
                (["verify", "equiv", "-g", f"{TANK}:G",
                  "-s1", f"{TANK}:S", "-s2", f"{ORDERING}:S1"], 3),
                (["super", "-g", str(tmp / "plant.aut"), "-s", str(tmp / "inf.aut")], 3),
                (["parse", str(tmp / "nd.aut")], 3),
                (["reduce", "--exact", "-g", f"{TANK}:G", "-s", f"{TANK}:S",
                  "--cap", "2"], 4),
            ]
            for argv, expected in matrix:
                result = cli_run(argv, stdout=io.StringIO(), stderr=io.StringIO())
                assert result.exit_code == expected, (argv, result.exit_code, expected)

            # JSON schema stability on a verdict, an artifact and an error
            for argv in (
                ["verify", "equiv", "-g", f"{ORDERING}:G",
                 "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2", "--json"],
                ["reduce", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "--json"],
                ["parse", str(tmp / "bad.aut"), "--json"],
            ):
                out = io.StringIO()
                cli_run(argv, stdout=out, stderr=io.StringIO())
                payload = json.loads(out.getvalue())
                assert set(payload) == {"command", "verdict", "sizes", "witness", "output_file"}

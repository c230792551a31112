"""Command-line contract: subcommand behaviour, JSON schema, exit codes."""

import io
import json
import time
from pathlib import Path

from supred.automata import parse_automaton
from supred.cli import run
from supred.reduction import EQUIVALENT_DRAW_CAP
from supred.supervision import control_equivalent

from tests.conftest import FIXTURES

TANK = str(FIXTURES / "tank.aut")
ORDERING = str(FIXTURES / "ordering.aut")


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    result = run(list(argv), stdout=out, stderr=err)
    return result, out.getvalue(), err.getvalue()


def invoke_json(*argv):
    result, out, err = invoke(*argv, "--json")
    payload = json.loads(out)
    assert set(payload) == {"command", "verdict", "sizes", "witness", "output_file"}
    return result, payload


def test_parse_ok():
    result, out, _ = invoke("parse", TANK)
    assert result.exit_code == 0
    assert result.sizes == {"G": 10, "S": 4}
    assert "G: 10 states" in out


def test_parse_missing_file():
    result, _, err = invoke("parse", "no/such/file.aut")
    assert result.exit_code == 2 and "error" in err


def test_parse_syntax_error(tmp_path):
    bad = tmp_path / "bad.aut"
    bad.write_text("automaton X\nevents zero\n")
    result, _, err = invoke("parse", str(bad))
    assert result.exit_code == 2


def test_parse_nondeterministic_is_precondition_error(tmp_path):
    bad = tmp_path / "nd.aut"
    bad.write_text(
        "automaton N\nevents 1\na c o\nstates 2\nq r\ninitial q\n"
        "marked 0\ntrans 2\nq a r\nq a q\nend\n"
    )
    result, _, _ = invoke("parse", str(bad))
    assert result.exit_code == 3


def test_usage_error_unknown_command():
    result, _, _ = invoke("frobnicate")
    assert result.exit_code == 2


def test_usage_error_missing_flag():
    result, _, _ = invoke("verify", "equiv", "-g", f"{TANK}:G")
    assert result.exit_code == 2


def test_product_roundtrip(tmp_path):
    out_file = tmp_path / "prod.aut"
    result, _, _ = invoke("product", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "-o", str(out_file))
    assert result.exit_code == 0
    (reparsed,) = parse_automaton(out_file.read_text())
    assert reparsed.n == 7
    assert result.sizes == {"output": 7}


def test_super_command(tmp_path):
    out_file = tmp_path / "super.aut"
    result, _, _ = invoke("super", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "-o", str(out_file))
    assert result.exit_code == 0 and result.sizes == {"output": 4}
    (sup,) = parse_automaton(out_file.read_text())
    assert sup.name == "SUPER"


def test_super_alphabet_mismatch():
    result, _, _ = invoke("super", "-g", f"{TANK}:G", "-s", f"{ORDERING}:S1")
    assert result.exit_code == 3


def test_reduce_heuristic_json():
    result, payload = invoke_json("reduce", "-g", f"{TANK}:G", "-s", f"{TANK}:S")
    assert result.exit_code == 0
    assert payload["sizes"] == {"input": 4, "output": 2}
    assert payload["verdict"] is None


def test_reduce_exact_cover_sizes():
    result, payload = invoke_json(
        "reduce", "--exact", "--mode", "cover", "-g", f"{ORDERING}:G", "-s", f"{ORDERING}:S2"
    )
    assert result.exit_code == 0
    assert payload["sizes"]["output"] == 3


def test_reduce_exact_answers_the_blowup_pairs():
    blowup = str(FIXTURES / "exact_blowup.aut")
    for seed, size in ((91, 8), (255, 9)):
        for mode in ("partition", "cover"):
            result, payload = invoke_json(
                "reduce", "--exact", "--mode", mode, "-g", f"{blowup}:G{seed}", "-s", f"{blowup}:S{seed}"
            )
            assert result.exit_code == 0
            assert payload["sizes"]["output"] == size


def test_reduce_exact_cap_exit_code():
    result, _, _ = invoke(
        "reduce", "--exact", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "--cap", "3"
    )
    assert result.exit_code == 4


def test_reduce_seeded_sample(tmp_path):
    out_file = tmp_path / "eq.aut"
    result, _, _ = invoke(
        "reduce", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "--seed", "7", "-o", str(out_file)
    )
    assert result.exit_code == 0
    (sampled,) = parse_automaton(out_file.read_text())
    assert 1 <= sampled.n <= 4


def test_reduce_seeded_sample_refuses_large_super(tmp_path):
    """The draw shuffles every state pair of SUPER, so above the cap
    ``--seed`` refuses with exit 4 before drawing: here SUPER is a plant
    chain of one state more than the cap."""
    n = EQUIVALENT_DRAW_CAP + 1
    states = " ".join(f"x{i}" for i in range(n))
    trans = "\n".join(f"x{i} a x{i + 1}" for i in range(n - 1))
    chain = tmp_path / "chain.aut"
    chain.write_text(
        f"automaton G\nevents 1\na c o\nstates {n}\n{states}\ninitial x0\nmarked 0\n"
        f"trans {n - 1}\n{trans}\nend\n"
        "automaton S\nevents 1\na c o\nstates 1\nz\ninitial z\nmarked 0\n"
        "trans 1\nz a z\nend\n"
    )
    start = time.perf_counter()
    result, _, err = invoke("reduce", "-g", f"{chain}:G", "-s", f"{chain}:S", "--seed", "7")
    assert time.perf_counter() - start < 10
    assert result.exit_code == 4
    assert err == (f"error: equivalent-supervisor draw cap exceeded: "
                   f"{n} states > cap {EQUIVALENT_DRAW_CAP}\n")


def test_verify_equiv_true():
    result, payload = invoke_json(
        "verify", "equiv", "-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2"
    )
    assert result.exit_code == 0 and payload["verdict"] is True


def test_verify_equiv_false_has_witness():
    result, payload = invoke_json(
        "verify", "equiv", "-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:G"
    )
    assert result.exit_code == 1 and payload["verdict"] is False
    assert isinstance(payload["witness"], str)


def test_verify_feasible_and_existence():
    result, _, _ = invoke("verify", "feasible", "-s", f"{TANK}:S")
    assert result.exit_code == 0
    result, _, _ = invoke("verify", "existence", "-s", f"{TANK}:S")
    assert result.exit_code == 1  # strict control-pattern check fails on the fixture


def test_verify_normal():
    result, _, _ = invoke(
        "verify", "normal", "-g", f"{ORDERING}:G", "-s", f"{ORDERING}:S1", "-sp", f"{ORDERING}:S2"
    )
    assert result.exit_code == 0


def test_verify_cover():
    result, _, _ = invoke(
        "verify", "cover", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "--cells", "z0,z1,z2;z3"
    )
    assert result.exit_code == 0
    result, _, _ = invoke(
        "verify", "cover", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "--cells", "z0,z1,z2,z3"
    )
    assert result.exit_code == 1
    result, _, _ = invoke(
        "verify", "cover", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "--cells", "z0,z1"
    )
    assert result.exit_code == 3  # malformed: not a cover


def test_compare_order():
    result, _, _ = invoke(
        "compare", "order", "-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2"
    )
    assert result.exit_code == 0
    result, payload = invoke_json(
        "compare", "order", "-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S2", "-s2", f"{ORDERING}:S1"
    )
    assert result.exit_code == 1
    assert "[disabled]" in payload["witness"]


def test_compare_reads_a_repeated_spec_once(monkeypatch):
    import supred.automata

    parsed = []
    original = supred.automata.parse_automaton

    def counting(text):
        parsed.append(text)
        return original(text)

    monkeypatch.setattr(supred.automata, "parse_automaton", counting)
    for what in ("order", "reductions"):
        for ref in ([], ["--ref", f"{ORDERING}:S1"]):
            del parsed[:]
            result, _, _ = invoke("compare", what, "-g", f"{ORDERING}:G",
                                  "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2", *ref)
            assert result.exit_code == 0
            assert len(parsed) == 3
    del parsed[:]
    result, _, _ = invoke("compare", "fullpartial", "-g", f"{ORDERING}:G",
                          "-sf", f"{ORDERING}:S1", "-sp", f"{ORDERING}:S1")
    assert result.exit_code == 0 and len(parsed) == 2


def test_compare_reductions():
    result, payload = invoke_json(
        "compare", "reductions", "-g", f"{ORDERING}:G",
        "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2",
    )
    assert result.exit_code == 0
    assert payload["sizes"] == {"s1": 2, "s2": 3} and payload["verdict"] is True


def test_iso_verdicts():
    result, _, _ = invoke("iso", f"{TANK}:S", f"{TANK}:S")
    assert result.exit_code == 0
    result, _, _ = invoke("iso", f"{TANK}:G", f"{TANK}:S")
    assert result.exit_code == 1


def test_data_table_exact(tank):
    result, out, _ = invoke("data", "-g", f"{TANK}:G", "-s", f"{TANK}:S")
    assert result.exit_code == 0
    assert out == (
        "z0: En={hL,hM} D={} M=false T=false\n"
        "z1: En={qo0,qo1,hL,hM} D={} M=false T=false\n"
        "z2: En={qo0,qo1,hL,hM,hH} D={} M=true T=true\n"
        "z3: En={qo1,hM,hH} D={qo0} M=false T=false\n"
    )


def test_artifact_outputs_reparse_and_validate(tmp_path):
    for command, name in (("product", "p"), ("super", "su"), ("reduce", "r")):
        out_file = tmp_path / f"{name}.aut"
        result, _, _ = invoke(command, "-g", f"{TANK}:G", "-s", f"{TANK}:S", "-o", str(out_file))
        assert result.exit_code == 0
        text = out_file.read_text()
        (back,) = parse_automaton(text)
        from supred.automata import serialize_automaton

        assert serialize_automaton(back) == text


def test_artifact_to_stdout_without_output_flag():
    result, out, _ = invoke("super", "-g", f"{TANK}:G", "-s", f"{TANK}:S")
    assert result.exit_code == 0 and result.output_path is None
    (sup,) = parse_automaton(out)
    assert sup.n == 4


def test_reduce_partition_mode():
    result, payload = invoke_json(
        "reduce", "--exact", "--mode", "partition", "-g", f"{ORDERING}:G", "-s", f"{ORDERING}:S1"
    )
    assert result.exit_code == 0 and payload["sizes"]["output"] == 2


def test_compare_fullpartial_command(tmp_path):
    from supred.automata import Alphabet, Event, serialize_automata

    g, s1, s2 = parse_automaton(Path(ORDERING).read_text())
    hidden = Alphabet(
        [Event(e.name, e.controllable, e.observable and e.name != "c") for e in g.alphabet]
    )
    path = tmp_path / "hidden_c.aut"
    path.write_text(serialize_automata([a.with_alphabet(hidden) for a in (g, s1, s2)]))
    result, payload = invoke_json(
        "compare", "fullpartial", "-g", f"{path}:G", "-sf", f"{path}:S1", "-sp", f"{path}:S2"
    )
    assert result.exit_code == 0
    assert payload["sizes"] == {"full": 2, "partial": 3} and payload["verdict"] is True
    # hypothesis failure is named and maps to a precondition exit
    result, _, err = invoke(
        "compare", "fullpartial", "-g", f"{path}:G", "-sf", f"{path}:S2", "-sp", f"{path}:S1"
    )
    assert result.exit_code == 3 and "full-isomorphism" in err


def test_compare_fullpartial_refuses_a_moving_unobservable_transition(tmp_path):
    """An ``s_partial`` whose unobservable ``u`` moves is refused as
    ``partial-isomorphism``, reachable or not: SP's ``z2`` is unreachable,
    and SP has as many states as the observer of its closed loop, so a
    morphism check would refuse it as ``reachable`` instead."""
    from supred.automata import Alphabet, Automaton, Event, serialize_automata

    alphabet = Alphabet([Event("a", True, True), Event("u", True, False)])
    g = Automaton("G", alphabet, ["x0", "x1", "x2"], 0, [2], {(0, 1): 0, (0, 0): 1, (1, 0): 2})
    sp = Automaton("SP", alphabet, ["z0", "z1", "z2"], 0, [1], {(0, 1): 1, (1, 0): 1})
    reachable = Automaton("SQ", alphabet, ["z0", "z1"], 0, [1], {(0, 1): 1, (1, 0): 1})
    path = tmp_path / "moving_u.aut"
    path.write_text(serialize_automata([g, g.renamed("SF"), sp, reachable]))
    for partial in ("SP", "SQ"):
        result, _, err = invoke("compare", "fullpartial", "-g", f"{path}:G",
                                "-sf", f"{path}:SF", "-sp", f"{path}:{partial}")
        assert result.exit_code == 3
        assert "precondition 'partial-isomorphism' violated" in err


def test_produced_supervisors_pass_their_own_checks(tmp_path):
    sup_file = tmp_path / "sup.aut"
    invoke("super", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "-o", str(sup_file))
    result, _, _ = invoke("verify", "feasible", "-s", str(sup_file))
    assert result.exit_code == 0
    reduced_file = tmp_path / "red.aut"
    invoke("reduce", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "-o", str(reduced_file))
    result, _, _ = invoke("verify", "feasible", "-s", str(reduced_file))
    assert result.exit_code == 0
    result, _, _ = invoke(
        "verify", "equiv", "-g", f"{TANK}:G", "-s1", f"{TANK}:S", "-s2", str(reduced_file)
    )
    assert result.exit_code == 0


def test_selector_errors():
    result, _, _ = invoke("iso", f"{TANK}:NOPE", f"{TANK}:S")
    assert result.exit_code == 2
    result, _, _ = invoke("iso", TANK, f"{TANK}:S")  # ambiguous: two automata
    assert result.exit_code == 2


def test_json_error_payload(tmp_path):
    result, out, err = invoke("reduce", "--exact", "-g", f"{TANK}:G", "-s", f"{TANK}:S",
                              "--cap", "2", "--json")
    assert result.exit_code == 4
    payload = json.loads(out)
    assert payload["verdict"] is None and "cap" in payload["witness"]


def test_shared_parser_matches_fresh_parser():
    """The parser is built once per process; commands run through it one
    after another must behave as with a parser built for each call."""
    from supred import cli

    g, s = f"{TANK}:G", f"{TANK}:S"
    sequence = [
        ["reduce", "--exact", "--mode", "partition", "-g", g, "-s", s],
        ["reduce", "--seed", "7", "-g", g, "-s", s],
        ["reduce", "-g", g, "-s", s],
        ["reduce", "--mode", "bogus", "-g", g, "-s", s],
        ["verify", "equiv", "-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1",
         "-s2", f"{ORDERING}:S2"],
    ]
    shared = [invoke(*argv) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    fresh = []
    for argv in sequence:
        cli._build_parser.cache_clear()
        fresh.append(invoke(*argv))
    assert shared == fresh
    assert [result.exit_code for result, _, _ in shared] == [0, 0, 0, 2, 0]

    parser = cli._build_parser()
    parser.parse_args(["reduce", "--exact", "--mode", "partition", "--cap", "5",
                       "--seed", "3", "-g", g, "-s", s])
    args = parser.parse_args(["reduce", "-g", g, "-s", s])
    assert (args.exact, args.mode, args.cap, args.seed) == (
        False, "cover", cli.reduction.DEFAULT_EXACT_CAP, None)
    parser.parse_args(["verify", "cover", "-g", g, "-s", s, "--cells", "0;1"])
    args = parser.parse_args(["verify", "equiv", "-g", g])
    assert args.cells is None and args.s is None


MERGE_COLLISION = """\
automaton G
events 3
u u o
v u o
c c o
states 1
x
initial x
marked 1 x
trans 3
x u x
x v x
x c x
end

automaton S
events 3
u u o
v u o
c c o
states 3
a b a+b
initial a
marked 0
trans 7
a u b
a v a+b
b u b
b v a+b
a+b u a+b
a+b v a+b
a+b c a
end
"""

PRODUCT_COLLISION = """\
automaton G
events 1
e c o
states 2
p p,q
initial p
marked 1 p,q
trans 2
p e p,q
p,q e p,q
end

automaton S
events 1
e c o
states 2
q,r r
initial q,r
marked 1 r
trans 2
q,r e r
r e q,r
end
"""


def _written(tmp_path, text, argv):
    """Run ``argv`` on the G and S of ``text`` with ``-o``; returns G, S
    and the automaton written, parsed back."""
    src, out = tmp_path / "in.aut", tmp_path / "out.aut"
    src.write_text(text)
    result, _, err = invoke(*argv, "-g", f"{src}:G", "-s", f"{src}:S", "-o", str(out))
    assert result.exit_code == 0, err
    (reduced,) = parse_automaton(out.read_text())
    return (*parse_automaton(text), reduced)


def test_reduce_names_a_merged_cell_apart_from_a_state_named_like_it(tmp_path):
    """States ``a`` and ``b`` merge into a cell whose member list reads
    ``a+b``, the name of the third state."""
    for argv in (["reduce"], ["reduce", "--exact"], ["reduce", "--exact", "--mode", "partition"]):
        g, s, reduced = _written(tmp_path, MERGE_COLLISION, argv)
        assert reduced.states == ("a+b", "a+b~1")
        assert control_equivalent(g, s, reduced) == (True, None)


def test_product_and_super_name_colliding_pairs_apart(tmp_path):
    """Plant states ``p``, ``p,q`` and supervisor states ``q,r``, ``r`` give
    two product states written ``(p,q,r)``."""
    for argv in (["product"], ["super"]):
        g, s, out = _written(tmp_path, PRODUCT_COLLISION, argv)
        assert out.states == ("(p,q,r)", "(p,q,r)~1", "(p,q,q,r)")
        assert control_equivalent(g, s, out) == (True, None)

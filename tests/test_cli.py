"""Command-line contract: subcommand behaviour, JSON schema, exit codes."""

import io
import json
import os
import random
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supred.automata import parse_automaton, serialize_automaton
from supred.cli import run
from supred.reduction import EQUIVALENT_DRAW_CAP
from supred.supervision import control_equivalent

from tests import argv_oracle
from tests.conftest import FIXTURES
from tests.generators import scale_pair

TANK = str(FIXTURES / "tank.aut")
ORDERING = str(FIXTURES / "ordering.aut")


def parsed_by_run(argv):
    """The namespace ``run`` hands its dispatcher for ``argv``; a usage
    error that ``run`` reports instead is raised again."""
    from supred import cli

    seen = []

    def capture(args, emit):
        seen.append(args)
        return cli.CommandResult(args.command)

    real, cli._dispatch = cli._dispatch, capture
    try:
        result = run(list(argv), stdout=io.StringIO(), stderr=io.StringIO())
    finally:
        cli._dispatch = real
    if not seen:
        raise cli.UsageError(result.witness)
    return seen[0]


def invoke(*argv):
    """Run ``argv`` through ``run``, after checking that it parses ``argv``
    as the top-level parser alone does."""
    assert argv_oracle.outcome(parsed_by_run, argv) == argv_oracle.outcome(argv_oracle.parse, argv)
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


def test_compare_reductions_cap_exit_code():
    result, _, err = invoke("compare", "reductions", "-g", f"{ORDERING}:G",
                            "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2", "--cap", "1")
    assert result.exit_code == 4
    assert err == "error: s1: exact search cap exceeded: 4 states > cap 1\n"


def test_exact_search_past_the_recursion_limit_exits_4(tmp_path):
    """A 1,200-state supervisor under ``--cap 5000`` outgrows the exact
    searches' recursion: both modes and ``compare reductions`` exit 4 with
    the recursion limit as the cap instead of letting a ``RecursionError``
    escape ``run``."""
    g, s = scale_pair(random.Random(0), core_states=8, factor=150)
    gp, sp = tmp_path / "g.aut", tmp_path / "s.aut"
    gp.write_text(serialize_automaton(g))
    sp.write_text(serialize_automaton(s))
    for argv in (["reduce", "--exact", "--mode", "partition", "-g", str(gp), "-s", str(sp)],
                 ["reduce", "--exact", "--mode", "cover", "-g", str(gp), "-s", str(sp)],
                 ["compare", "reductions", "-g", str(gp), "-s1", str(sp), "-s2", str(sp)]):
        start = time.perf_counter()
        result, out, err = invoke(*argv, "--cap", "5000")
        assert time.perf_counter() - start < 10
        assert (result.exit_code, out) == (4, "")
        assert err == ("error: exact search recursion cap exceeded: "
                       f"1200 states > cap {sys.getrecursionlimit()}\n")


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
    # an unknown state name is the library's bare ValueError: exit 3, not 2
    result, payload = invoke_json(
        "verify", "cover", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "--cells", "z0,nope"
    )
    assert result.exit_code == 3 and payload["verdict"] is None
    assert payload["witness"] == "unknown state 'nope' in automaton 'S'"


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


def test_an_exception_with_no_exit_code_propagates(monkeypatch):
    """Only the library's refusals map to exit codes; anything else is a
    bug and is raised, not reported."""
    import supred.automata

    def broken(text):
        raise RuntimeError("broken parser")

    monkeypatch.setattr(supred.automata, "parse_automaton", broken)
    with pytest.raises(RuntimeError, match="broken parser"):
        invoke("parse", TANK)


def test_compare_reads_a_repeated_spec_once(monkeypatch):
    import supred.automata

    parsed = []
    original = supred.automata.parse_automaton

    def counting(text, alphabets=None):
        parsed.append(text)
        return original(text, alphabets)

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
                       "-g", g, "-s", s])
    parser.parse_args(["reduce", "--seed", "3", "-g", g, "-s", s])
    args = parser.parse_args(["reduce", "-g", g, "-s", s])
    assert (args.exact, args.mode, args.cap, args.seed) == (False, None, None, None)
    parser.parse_args(["verify", "cover", "-g", g, "-s", s, "--cells", "0;1"])
    args = parser.parse_args(["verify", "equiv", "-g", g, "-s1", s, "-s2", s])
    assert not hasattr(args, "s") and not hasattr(args, "cells")


def test_another_forms_spec_option_is_not_read_as_an_attached_value(monkeypatch):
    """Where ``-s`` is declared and ``-s1``, ``-s2``, ``-sp`` or ``-sf`` is
    not, argparse reads ``-s1`` as ``-s`` with the value ``1`` and
    ``-s1=X`` as ``-s`` with the value ``1=X``; such a token is refused
    with exit 2 before any file is read.  A value attached to ``-s``
    still parses."""
    parsed = _counting_parses(monkeypatch)
    g, s = f"{TANK}:G", f"{TANK}:S"
    for form, rest in ((["reduce"], []), (["super"], []), (["data"], []),
                       (["verify", "normal"], ["-sp", s]), (["verify", "feasible"], [])):
        declared = {"-sp"} if rest else set()
        for option in {"-s1", "-s2", "-sp", "-sf"} - declared:
            specs = ["-s", s] if form == ["verify", "feasible"] else ["-g", g, "-s", s]
            prog = " ".join(["supred", *form])
            for token in (option, f"{option}=X"):
                result, out, err = invoke(*form, *specs[:-2], token, *specs[-2:], *rest)
                assert (result.exit_code, out, err) == (2, "", f"error: {prog} does not read {option}\n")
    assert parsed == []
    result, out, _ = invoke("reduce", "-g", g, f"-s{s}")
    assert result.exit_code == 0 and out == invoke("reduce", "-g", g, "-s", s)[1]


def test_reduce_refuses_exact_with_seed():
    """``--exact`` and ``--seed`` choose different reducers, so a call given
    both, in either order, is refused as a usage error, not run with one
    of them ignored."""
    g, s = f"{TANK}:G", f"{TANK}:S"
    for options in (["--exact", "--seed", "3"], ["--seed", "3", "--exact", "--mode", "partition"]):
        result, out, err = invoke("reduce", *options, "-g", g, "-s", s)
        assert result.exit_code == 2 and out == ""
        assert "not allowed with argument" in err


def test_reduce_refuses_mode_and_cap_without_exact(tmp_path):
    """``--mode`` and ``--cap`` only steer the exact search, so ``reduce``
    refuses either without ``--exact`` as a usage error, before any file is
    read, rather than running the heuristic or the draw with them ignored."""
    g, s = f"{TANK}:G", f"{TANK}:S"
    missing = str(tmp_path / "missing.aut")
    for options in (["--cap", "1"], ["--mode", "cover"], ["--seed", "3", "--mode", "partition"],
                    ["--cap", "0", "--seed", "3"]):
        for specs in ((g, s), (missing, missing)):
            result, out, err = invoke("reduce", *options, "-g", specs[0], "-s", specs[1])
            assert (result.exit_code, out, err) == (2, "", "error: --mode and --cap need --exact\n")
        result, payload = invoke_json("reduce", *options, "-g", g, "-s", s)
        assert result.exit_code == 2 and payload["witness"] == "--mode and --cap need --exact"
    result, _, _ = invoke("reduce", "--exact", "--cap", "1", "-g", g, "-s", s)
    assert result.exit_code == 4
    for options in ([], ["--exact"], ["--exact", "--mode", "cover", "--cap", "10"]):
        result, _, err = invoke("reduce", *options, "-g", g, "-s", s)
        assert result.exit_code == 0, err


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


def _truncating_write(path, text):
    """The writer ``-o`` used to have, kept as the oracle: open with
    O_TRUNC, then write."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def test_artifact_writer_matches_the_truncating_writer(tmp_path):
    """``-o`` overwrites in place and cuts the stale tail, leaving the bytes
    the truncating writer leaves: on a fresh path, over a longer and a
    shorter file, and twice in a row on one path."""
    from supred.automata import serialize_automaton
    from supred.cli import _emit_artifact

    with open(TANK, encoding="utf-8") as fh:
        g, s = parse_automaton(fh.read())
    big, small = serialize_automaton(g), serialize_automaton(s)
    cases = {
        "fresh": (None, [s]),
        "longer": ("x" * 5000, [s]),
        "shorter": ("a\n", [g]),
        "twice": (None, [g, s]),
    }
    assert len(small) < len(big) < 5000
    for name, (before, written) in cases.items():
        new, old = tmp_path / f"{name}.new.aut", tmp_path / f"{name}.old.aut"
        if before is not None:
            new.write_text(before, encoding="utf-8")
            old.write_text(before, encoding="utf-8")
        for a in written:
            assert _emit_artifact(a, str(new), None) == str(new)
            _truncating_write(old, serialize_automaton(a))
        assert new.read_bytes() == old.read_bytes(), name
        assert new.stat().st_mode == old.stat().st_mode, name


def test_artifact_to_a_device_that_cannot_be_truncated():
    result, _, err = invoke("reduce", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "-o", os.devnull)
    assert result.exit_code == 0, err


def test_artifact_is_not_opened_with_o_trunc(tmp_path, monkeypatch):
    """Opening with O_TRUNC cuts a file holding data to zero before it is
    written, which on ext4 makes close() start writeback; ``-o`` must not
    pay for that."""
    out_file = tmp_path / "r.aut"
    out_file.write_text("x" * 5000, encoding="utf-8")
    flags, real_open = [], os.open

    def recording_open(path, flag, *args, **kwargs):
        if os.fspath(path) == str(out_file):
            flags.append(flag)
        return real_open(path, flag, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    result, _, err = invoke("reduce", "-g", f"{TANK}:G", "-s", f"{TANK}:S", "-o", str(out_file))
    monkeypatch.undo()
    assert result.exit_code == 0, err
    assert len(flags) == 1 and not flags[0] & os.O_TRUNC
    (reduced,) = parse_automaton(out_file.read_text(encoding="utf-8"))
    assert reduced.n == 2


def test_unwritable_output_is_a_usage_error(tmp_path):
    """A missing directory or a directory as ``-o`` exits 2 with the same
    five-key JSON line as an unreadable input, not with a traceback."""
    for out_file in (tmp_path / "no_such_dir" / "r.aut", tmp_path):
        result, payload = invoke_json("reduce", "-g", f"{TANK}:G", "-s", f"{TANK}:S",
                                      "-o", str(out_file))
        assert result.exit_code == 2
        assert payload["witness"].startswith(f"cannot write {str(out_file)!r}: ")


def test_unreadable_input_names_the_file_tried_first(tmp_path):
    """``-g path`` and ``-g path:name`` both exit 2 naming ``path`` with
    the reason its open failed; the second form also tries the whole spec
    as a path, but the error is about the file tried first."""
    missing = str(tmp_path / "no" / "such.aut")
    for spec in (missing, f"{missing}:G"):
        result, payload = invoke_json("reduce", "-g", spec, "-s", f"{TANK}:S")
        assert result.exit_code == 2
        assert payload["witness"] == (
            f"cannot read {missing!r}: [Errno 2] No such file or directory: {missing!r}")
    result, payload = invoke_json("reduce", "-g", f"{TANK}:G", "-s", str(tmp_path))
    assert result.exit_code == 2
    assert payload["witness"].startswith(f"cannot read {str(tmp_path)!r}: [Errno 21] ")


def test_input_path_with_a_colon_is_read_whole(tmp_path):
    """A spec whose text after the last ``:`` is no selector is read as a
    path when the part before it cannot be read."""
    g_file = tmp_path / "plant:v1"
    g_file.write_text(Path(TANK).read_text(encoding="utf-8").split("\nautomaton S")[0] + "\n",
                      encoding="utf-8")
    result, payload = invoke_json("super", "-g", str(g_file), "-s", f"{TANK}:S")
    assert result.exit_code == 0, payload


def _counting_parses(monkeypatch):
    """Patches ``supred.automata.parse_automaton`` to record the text of
    every document the command line parses."""
    import supred.automata

    parsed = []
    original = supred.automata.parse_automaton

    def counting(text, alphabets=None):
        parsed.append(text)
        return original(text, alphabets)

    monkeypatch.setattr(supred.automata, "parse_automaton", counting)
    return parsed


def test_every_subcommand_reads_a_repeated_spec_once(monkeypatch, tmp_path):
    """A spec named twice is read once and gives one automaton, in the
    subcommands that take two supervisors as in those on a plant and a
    supervisor."""
    parsed = _counting_parses(monkeypatch)
    g, s = f"{TANK}:G", f"{TANK}:S"
    for argv, reads in ((["verify", "equiv", "-g", g, "-s1", s, "-s2", s], 2),
                        (["verify", "normal", "-g", g, "-s", s, "-sp", s], 2),
                        (["product", "-g", g, "-s", g, "-o", str(tmp_path / "p.aut")], 1),
                        (["data", "-g", g, "-s", g], 1),
                        (["iso", s, s], 1)):
        del parsed[:]
        result, _, err = invoke(*argv)
        assert result.exit_code == 0, (argv, err)
        assert len(parsed) == reads, argv


def test_missing_option_is_reported_before_any_file_is_read(monkeypatch):
    """Every spec option is required by its parser, so argparse names all
    the missing ones before any spec is read, even when a given spec cannot
    be read."""
    parsed = _counting_parses(monkeypatch)
    for argv, missing in ((["verify", "equiv", "-g", f"{TANK}:G", "-s1", f"{TANK}:S"], "-s2"),
                          (["verify", "normal", "-g", "no/such.aut", "-s", f"{TANK}:S"], "-sp"),
                          (["verify", "cover", "-g", f"{TANK}:G", "-s", f"{TANK}:S"], "--cells"),
                          (["verify", "cover", "-g", "no/such.aut"], "-s, --cells"),
                          (["compare", "order", "-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1",
                            "--ref", "no/such.aut"], "-s2")):
        result, payload = invoke_json(*argv)
        assert result.exit_code == 2
        assert payload["witness"] == f"the following arguments are required: {missing}"
    assert parsed == []


# A complete call of each ``verify`` check and ``compare`` mode, giving
# every option that form reads.
FORM_CALLS = {
    ("verify", "equiv"): ["-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1",
                          "-s2", f"{ORDERING}:S2"],
    ("verify", "feasible"): ["-s", f"{TANK}:S"],
    ("verify", "existence"): ["-s", f"{TANK}:S"],
    ("verify", "normal"): ["-g", f"{ORDERING}:G", "-s", f"{ORDERING}:S1",
                           "-sp", f"{ORDERING}:S2"],
    ("verify", "cover"): ["-g", f"{TANK}:G", "-s", f"{TANK}:S", "--cells", "z0,z1,z2;z3"],
    ("compare", "order"): ["-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1",
                           "-s2", f"{ORDERING}:S2", "--ref", f"{ORDERING}:S1"],
    ("compare", "reductions"): ["-g", f"{ORDERING}:G", "-s1", f"{ORDERING}:S1",
                                "-s2", f"{ORDERING}:S2", "--ref", f"{ORDERING}:S1",
                                "--cap", "10"],
    ("compare", "fullpartial"): ["-g", f"{ORDERING}:G", "-sf", f"{ORDERING}:S1",
                                 "-sp", f"{ORDERING}:S1", "--cap", "10"],
}
FORM_OPTIONS = ("-g", "-s", "-s1", "-s2", "-sp", "-sf", "--cells", "--ref", "--cap")


def test_each_form_refuses_the_options_it_does_not_read(monkeypatch):
    """Each ``verify`` check and ``compare`` mode declares only the options
    it reads: its complete call runs, and the same call with any other
    option, given a value or followed by a declared option, exits 2 before
    any file is read.  In the second case argparse alone would read
    ``-s1 -s S`` as ``-s`` with the value ``1`` where ``-s`` is declared."""
    parsed = _counting_parses(monkeypatch)
    for form, options in FORM_CALLS.items():
        declared = set(options[::2])
        result, _, err = invoke(*form, *options)
        assert result.exit_code in (0, 1), (form, err)
        del parsed[:]
        for option in FORM_OPTIONS:
            if option not in declared:
                for argv in ([*options, option, "1"], [option, *options]):
                    result, out, _ = invoke(*form, *argv)
                    assert (result.exit_code, out) == (2, ""), (form, argv)
        assert parsed == [], form
    assert sum(len(options) // 2 for options in FORM_CALLS.values()) == 24


def test_comment_only_file_has_no_automaton_block(tmp_path):
    empty = tmp_path / "empty.aut"
    empty.write_text("# nothing here\n", encoding="utf-8")
    result, _, err = invoke("parse", str(empty))
    assert result.exit_code == 2 and "no automaton block found" in err


def test_iso_refuses_unreachable_states(tmp_path):
    dead = tmp_path / "dead.aut"
    dead.write_text("automaton D\nevents 1\na c o\nstates 2\nq r\ninitial q\n"
                    "marked 0\ntrans 1\nq a q\nend\n", encoding="utf-8")
    result, _, err = invoke("iso", str(dead), str(dead))
    assert result.exit_code == 3 and "reachable" in err


def test_iso_checks_its_operands_before_their_sizes(tmp_path):
    """An unreachable operand or mismatched alphabets exit 3 also when the
    sizes differ, where the verdict ``false`` came out before."""
    events = "events 6\nqo0 c n\nqo1 c n\nhL u o\nhM u o\nhH u o\nhEH u o\n"
    dead = tmp_path / "dead.aut"
    dead.write_text(f"automaton D\n{events}states 2\nq r\ninitial q\n"
                    "marked 0\ntrans 1\nq hL q\nend\n", encoding="utf-8")
    one = tmp_path / "one.aut"
    one.write_text("automaton O\nevents 1\na c o\nstates 1\nq\ninitial q\n"
                   "marked 0\ntrans 1\nq a q\nend\n", encoding="utf-8")
    result, _, err = invoke("iso", str(dead), f"{TANK}:S")
    assert result.exit_code == 3 and "precondition 'reachable' violated" in err
    result, _, err = invoke("iso", f"{TANK}:S", str(one))
    assert result.exit_code == 3 and "have different alphabets" in err


def test_verify_cover_refuses_an_empty_cell():
    result, _, err = invoke("verify", "cover", "-g", f"{TANK}:G", "-s", f"{TANK}:S",
                            "--cells", "z0;;z1")
    assert result.exit_code == 2 and "empty cell in --cells" in err


def test_module_entry_point_exits_through_main():
    import subprocess
    import sys

    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-m", "supred.cli", "parse", TANK],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "G: 10 states, 19 transitions\nS: 4 states, 14 transitions\n"


G_SPEC, S_SPEC = f"{TANK}:G", f"{TANK}:S"

# Argv that no command runs on, each with the kind of outcome the parse has.
MALFORMED_ARGV = {
    "no argument": ([], "usage"),
    "top-level help": (["-h"], "exit"),
    "subcommand help": (["reduce", "-h"], "exit"),
    "unknown command": (["frobnicate"], "usage"),
    "option before the command": (["--json", "reduce", "-g", G_SPEC, "-s", S_SPEC], "usage"),
    "extra positional": (["parse", TANK, "extra"], "usage"),
    "missing -g": (["reduce", "-s", S_SPEC], "usage"),
    "bad --mode": (["reduce", "--mode", "bogus", "-g", G_SPEC, "-s", S_SPEC], "usage"),
    "bad --cap": (["reduce", "--cap", "x", "-g", G_SPEC, "-s", S_SPEC], "usage"),
    "option order does not read": (["compare", "order", "--cap", "1", "-g", f"{ORDERING}:G",
                                    "-s1", f"{ORDERING}:S1", "-s2", f"{ORDERING}:S2"], "usage"),
    "options feasible does not read": (["verify", "feasible", "-g", "nope.aut",
                                        "-s", f"{ORDERING}:S1", "-s1", "zzz"], "usage"),
    "--json before the check": (["verify", "--json", "equiv", "-g", G_SPEC,
                                 "-s1", S_SPEC, "-s2", S_SPEC], "usage"),
    "option fullpartial does not read": (["compare", "fullpartial", "--ref", "x",
                                          "-g", G_SPEC, "-sf", S_SPEC, "-sp", S_SPEC], "usage"),
    "-s1 before -s in reduce": (["reduce", "-g", G_SPEC, "-s1", "-s", S_SPEC], "usage"),
    "-s1=X before -s in reduce": (["reduce", "-g", G_SPEC, "-s1=X", "-s", S_SPEC], "usage"),
    "-s1 before -s in verify normal": (["verify", "normal", "-g", G_SPEC, "-s1", "-s", S_SPEC,
                                        "-sp", S_SPEC], "usage"),
    "-sp before -s in super": (["super", "-g", G_SPEC, "-sp", "-s", S_SPEC], "usage"),
    "-sf before -s in data": (["data", "-g", G_SPEC, "-sf", "-s", S_SPEC], "usage"),
    "check help": (["verify", "equiv", "-h"], "exit"),
    "command with forms help": (["compare", "-h"], "exit"),
}


@pytest.mark.parametrize("case", MALFORMED_ARGV)
def test_malformed_argv_is_parsed_as_the_top_level_parser_parses_it(case):
    """The same ``UsageError`` message as the oracle's one top-level pass;
    where that pass prints help and exits 0, ``run`` writes the same help
    to its ``stdout``, none to the process's, and returns exit code 0."""
    argv, kind = MALFORMED_ARGV[case]
    expected = argv_oracle.outcome(argv_oracle.parse, argv)
    assert expected[0] == kind
    if kind == "exit":
        assert expected[1] == 0 and expected[2].startswith("usage: supred")
        out, escaped = io.StringIO(), io.StringIO()
        with redirect_stdout(escaped):
            result = run(list(argv), stdout=out, stderr=io.StringIO())
        assert (result.exit_code, out.getvalue(), escaped.getvalue()) == (0, expected[2], "")
    else:
        assert argv_oracle.outcome(parsed_by_run, argv) == expected


@pytest.mark.parametrize("argv", [["reduce", "-h", "--json"], ["-h", "--json"]])
def test_help_under_json_goes_to_stderr(argv):
    """Under ``--json`` stdout holds one JSON object with the five pinned
    keys and no verdict, and the help the top-level parse prints goes to
    ``stderr``; none reaches the process's stdout, and the exit code is 0."""
    expected = argv_oracle.outcome(argv_oracle.parse, argv)
    assert expected[:2] == ("exit", 0) and expected[2].startswith("usage: supred")
    out, err, escaped = io.StringIO(), io.StringIO(), io.StringIO()
    with redirect_stdout(escaped):
        result = run(list(argv), stdout=out, stderr=err)
    assert (result.exit_code, err.getvalue(), escaped.getvalue()) == (0, expected[2], "")
    assert out.getvalue().count("\n") == 1
    assert json.loads(out.getvalue()) == {"command": "?", "verdict": None, "sizes": {},
                                          "witness": None, "output_file": None}


def test_each_call_parses_its_argv_once(monkeypatch, tmp_path):
    """A plain argv of every shape ``bench/run.py`` sends is read off the
    options its form declares and takes no argparse pass.  An abbreviated,
    help or attached-value argv, or one with a positional, takes one pass,
    by the parser its command words pick; the top-level parser's pass is
    skipped."""
    import argparse

    passes = []
    real = argparse.ArgumentParser.parse_known_args

    def counting(self, *args, **kwargs):
        passes.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
    g, s, out = G_SPEC, S_SPEC, str(tmp_path / "out.aut")
    traffic = [["reduce", "-g", g, "-s", s, "-o", out, "--json"],
               ["reduce", "--exact", "--mode", "cover", "-g", g, "-s", s, "-o", out, "--json"],
               ["super", "-g", g, "-s", s, "-o", out, "--json"],
               ["compare", "order", "-g", g, "-s1", out, "-s2", s, "--ref", s, "--json"],
               ["verify", "equiv", "-g", g, "-s1", s, "-s2", out, "--json"],
               ["verify", "normal", "-g", g, "-s", s, "-sp", out, "--json"],
               ["verify", "feasible", "-s", s]]
    for argv in traffic:
        del passes[:]
        result = run(argv, stdout=io.StringIO(), stderr=io.StringIO())
        assert (result.exit_code, passes) == (0, []), argv
    for argv, words in ((["reduce", "--exa", "--mode", "cover", "-g", g, "-s", s], 1),
                        (["reduce", "-g", g, f"-s{s}", "--json"], 1),
                        (["compare", "reductions", "--cap=10", "-g", g, "-s1", s, "-s2", s], 2),
                        (["verify", "equiv", "-h"], 2),
                        (["parse", TANK, "--json"], 1)):
        del passes[:]
        result = run(argv, stdout=io.StringIO(), stderr=io.StringIO())
        assert result.exit_code == 0
        assert passes == [" ".join(["supred", *argv[:words]])]
    monkeypatch.undo()
    for argv in traffic:
        assert argv_oracle.outcome(parsed_by_run, argv) == argv_oracle.outcome(argv_oracle.parse,
                                                                               argv)


def test_each_call_builds_one_alphabet(monkeypatch, tmp_path):
    """Every argv shape ``bench/run.py`` sends, on a G and an S written to
    files of their own as the bench writes them, parses all its files with
    one ``alphabets`` map: token-identical events sections build one
    :class:`~supred.automata.Alphabet` per call, shared by G, S and the
    output read back.  An S whose event lines are reordered builds a second
    one and still exits 3 with the mismatch message."""
    from supred import automata

    built = []
    real = automata.Alphabet.__init__

    def counting(self, events):
        built.append(self)
        real(self, events)

    g_aut, s_aut = parse_automaton((FIXTURES / "tank.aut").read_text())
    g_file, s_file = tmp_path / "g.aut", tmp_path / "s.aut"
    g_file.write_text(serialize_automaton(g_aut), encoding="utf-8")
    s_file.write_text(serialize_automaton(s_aut), encoding="utf-8")
    g, s, out = str(g_file), str(s_file), str(tmp_path / "out.aut")
    traffic = [["reduce", "-g", g, "-s", s, "-o", out, "--json"],
               ["reduce", "--exact", "--mode", "cover", "-g", g, "-s", s, "-o", out, "--json"],
               ["super", "-g", g, "-s", s, "-o", out, "--json"],
               ["compare", "order", "-g", g, "-s1", out, "-s2", s, "--ref", s, "--json"],
               ["verify", "equiv", "-g", g, "-s1", s, "-s2", out, "--json"],
               ["verify", "normal", "-g", g, "-s", s, "-sp", out, "--json"],
               ["reduce", "--exact", "--mode", "cover", "-g", G_SPEC, "-s", S_SPEC]]
    monkeypatch.setattr(automata.Alphabet, "__init__", counting)
    for argv in traffic:
        del built[:]
        result = run(argv, stdout=io.StringIO(), stderr=io.StringIO())
        assert (result.exit_code, len(built)) == (0, 1), argv

    lines = s_file.read_text(encoding="utf-8").split("\n")
    first = lines.index("events 6") + 1
    lines[first:first + 2] = lines[first + 1], lines[first]
    s_file.write_text("\n".join(lines), encoding="utf-8")
    del built[:]
    err = io.StringIO()
    result = run(["reduce", "-g", g, "-s", s, "-o", out], stdout=io.StringIO(), stderr=err)
    assert (result.exit_code, len(built)) == (3, 2)
    assert err.getvalue() == "error: automata 'G' and 'S' have different alphabets\n"


def _leaf_forms(p=None, words=()):
    """(command words, parser) for every parser that reads one form's
    options: a subcommand's, or a ``verify`` check's or ``compare`` mode's."""
    from supred import cli

    p = p or cli._build_parser()
    if not p.commands:
        return [(list(words), p)]
    return [leaf for word, q in p.commands.items() for leaf in _leaf_forms(q, (*words, word))]


LEAF_FORMS = {" ".join(words): p for words, p in _leaf_forms()}
FORMS_OPTIONS = sorted({spelling for p in LEAF_FORMS.values() for spelling in p.options})


def _values(action):
    """Values argparse accepts for ``action``, and values it refuses."""
    if action.choices is not None:
        return list(action.choices), ["both", "-x"]
    if action.type is int:
        return ["0", "3", " 12"], ["x", "-1", "3.5"]
    return ["a.aut", "b.aut:S", "x=y", ""], ["-x", "--json"]


@st.composite
def _argvs(draw, p):
    """An argv of the form ``p`` reads, and whether it is plain.  It gives
    ``p``'s required options and some of its others in a drawn order, each
    with a value argparse accepts, then perturbs it up to twice: a required
    option dropped, a refused value, both exclusive options, a repeated
    option, help, an abbreviation, an attached value, or another form's
    option."""
    kinds = draw(st.lists(st.sampled_from(["drop", "refuse", "both", "repeat", "help",
                                           "abbreviation", "attached", "other"]), max_size=2))
    exclusive = [a.option_strings[0] for a in p.exclusive]
    items = []
    for spelling in draw(st.permutations(sorted(p.options))):
        action = p.options[spelling]
        if not (action.required or draw(st.booleans())):
            continue
        if spelling in exclusive and "both" not in kinds and any(i[0] in exclusive for i in items):
            continue
        good = [] if action.nargs == 0 else [draw(st.sampled_from(_values(action)[0]))]
        items.append([spelling, *good])
    plain = True
    for kind in kinds:
        spelling = draw(st.sampled_from(sorted(p.options)))
        value = draw(st.sampled_from(_values(p.options[spelling])[0]))
        declared = [i for i in items if i[0] in p.options]
        required = [i for i in declared if p.options[i[0]].required]
        valued = [i for i in declared if len(i) == 2]
        if kind == "drop" and required:
            items.remove(draw(st.sampled_from(required)))
        elif kind == "refuse" and valued:
            item = draw(st.sampled_from(valued))
            item[1] = draw(st.sampled_from(_values(p.options[item[0]])[1]))
        elif kind == "both" and len(exclusive) == 2:
            items = [i for i in items if i[0] not in exclusive]
            items.insert(draw(st.integers(0, len(items))), [exclusive[0]])
            items.insert(draw(st.integers(0, len(items))), [exclusive[1], "3"])
        elif kind == "repeat" and items:
            items.insert(draw(st.integers(0, len(items))), list(draw(st.sampled_from(items))))
        elif kind == "help":
            items.insert(draw(st.integers(0, len(items))), ["-h"])
        elif kind == "abbreviation" and spelling.startswith("--"):
            items.insert(draw(st.integers(0, len(items))),
                         [spelling[:draw(st.integers(3, len(spelling) - 1))]])
        elif kind == "attached":
            items.insert(draw(st.integers(0, len(items))),
                         [draw(st.sampled_from([f"{spelling}={value}", f"{spelling}{value}X"]))])
        elif kind == "other":
            other = draw(st.sampled_from([o for o in FORMS_OPTIONS if o not in p.options]))
            items.insert(draw(st.integers(0, len(items))), [other, "v"])
        else:
            continue
        plain = False
    return [token for item in items for token in item], plain


@pytest.mark.parametrize("form", LEAF_FORMS)
@settings(derandomize=True, max_examples=150, deadline=None)
@given(data=st.data())
def test_plain_reader_fills_argparses_namespace_or_declines(form, data):
    """For every argv of a form, ``_read_plain`` returns None or the
    attributes the top-level parser's full pass gives; a plain argv is
    read.  No form with a positional reads any argv."""
    from supred import cli

    p = LEAF_FORMS[form]
    argv, plain = data.draw(_argvs(p))
    args = cli._read_plain(p, argv)
    if args is not None:
        assert argv_oracle.outcome(argv_oracle.parse, [*form.split(), *argv]) == ("args",
                                                                                  vars(args))
    assert (args is not None) == (plain and form not in ("parse", "iso"))


def _undecodable(tmp_path):
    """A copy of the tank file with byte 37 made 0xff, and the reason a
    UTF-8 decode gives for it."""
    bad = tmp_path / "bad.aut"
    data = Path(TANK).read_bytes()
    bad.write_bytes(data[:37] + b"\xff" + data[38:])
    return bad, "'utf-8' codec can't decode byte 0xff in position 37: invalid start byte"


def test_undecodable_input_is_a_usage_error_naming_the_file(tmp_path):
    """Input that is not UTF-8 exits 2 naming the file, as an unreadable
    one does; ``path:name`` names the file tried first."""
    bad, reason = _undecodable(tmp_path)
    for argv in (["parse", str(bad)],
                 ["reduce", "-g", str(bad), "-s", S_SPEC],
                 ["reduce", "-g", G_SPEC, "-s", f"{bad}:S"]):
        result, payload = invoke_json(*argv)
        assert result.exit_code == 2, argv
        assert payload["witness"] == f"cannot read {str(bad)!r}: {reason}"


@pytest.mark.parametrize("name, convert", [
    ("crlf", lambda data: data.replace(b"\n", b"\r\n")),
    ("cr", lambda data: data.replace(b"\n", b"\r")),
    ("bom", lambda data: b"\xef\xbb\xbf" + data),
])
def test_line_breaks_and_a_bom_read_as_the_original(tmp_path, name, convert):
    """Inputs are read as bytes, line breaks as they are: CRLF, lone-CR and
    BOM copies of a file give the automata of the original."""
    from supred.cli import _load

    copy = tmp_path / f"tank.{name}.aut"
    copy.write_bytes(convert(Path(TANK).read_bytes()))
    for selector in ("G", "S"):
        assert (serialize_automaton(_load(f"{copy}:{selector}"))
                == serialize_automaton(_load(f"{TANK}:{selector}")))
    assert invoke("parse", str(copy))[1:] == invoke("parse", TANK)[1:]
    reduced = invoke("reduce", "-g", f"{copy}:G", "-s", f"{copy}:S")
    assert reduced[0].exit_code == 0
    assert reduced[1:] == invoke("reduce", "-g", G_SPEC, "-s", S_SPEC)[1:]


@pytest.mark.parametrize("wrong, right", [
    ("hEH u o\nstates 10", "hEH x o\nstates 10"),
    ("z2 hH z3", "z2 hH z9"),
    ("9 qo1 3\nend", "9 qo1 3\n9 qo1 4\nend"),
])
def test_a_malformed_crlf_file_reports_the_place_its_lf_twin_does(tmp_path, wrong, right):
    text = Path(TANK).read_text(encoding="utf-8")
    assert text.count(wrong) == 1
    lf, crlf = tmp_path / "lf.aut", tmp_path / "crlf.aut"
    lf.write_bytes(text.replace(wrong, right).encode("utf-8"))
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    result, _, err = invoke("parse", str(crlf))
    assert result.exit_code in (2, 3) and ", col " in err
    assert (result, err) == invoke("parse", str(lf))[::2]


def test_artifact_into_a_fifo_matches_the_truncating_writer(tmp_path):
    """``-o`` into a pipe that a thread reads gives the bytes the
    truncating writer writes; the pipe is not truncated."""
    import threading

    from supred.automata import sync_product

    g, s = parse_automaton(Path(TANK).read_text(encoding="utf-8"))
    fifo = tmp_path / "out.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    result, _, err = invoke("product", "-g", G_SPEC, "-s", S_SPEC, "-o", str(fifo))
    reader.join(timeout=60)
    assert result.exit_code == 0, err
    old = tmp_path / "old.aut"
    _truncating_write(old, serialize_automaton(sync_product(g, s)))
    assert received == [old.read_bytes()]


def test_artifact_writer_finishes_short_writes(tmp_path, monkeypatch):
    """A write that takes only part of the bytes is followed by another for
    the rest."""
    from supred.cli import _emit_artifact

    (a, _) = parse_automaton(Path(TANK).read_text(encoding="utf-8"))
    new, old = tmp_path / "new.aut", tmp_path / "old.aut"
    new.write_text("x" * 5000, encoding="utf-8")
    sizes, real_write = [], os.write

    def short_write(fd, data):
        sizes.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(os, "write", short_write)
    assert _emit_artifact(a, str(new), None) == str(new)
    monkeypatch.undo()
    _truncating_write(old, serialize_automaton(a))
    assert new.read_bytes() == old.read_bytes()
    assert len(sizes) == -(-len(old.read_bytes()) // 7)


def _open_descriptors() -> int:
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count descriptors in")
    return len(os.listdir("/proc/self/fd"))


def test_no_descriptor_leaks(tmp_path):
    """200 calls that succeed, miss an input, meet an undecodable input or
    an unwritable ``-o`` leave as many descriptors open as before."""
    bad, _ = _undecodable(tmp_path)
    out = tmp_path / "r.aut"
    calls = [
        (["reduce", "-g", G_SPEC, "-s", S_SPEC, "-o", str(out)], 0),
        (["parse", TANK], 0),
        (["parse", str(tmp_path / "no" / "such.aut")], 2),
        (["reduce", "-g", f"{bad}:G", "-s", S_SPEC], 2),
        (["reduce", "-g", G_SPEC, "-s", S_SPEC, "-o", str(tmp_path / "no" / "r.aut")], 2),
        (["reduce", "-g", G_SPEC, "-s", S_SPEC, "-o", str(tmp_path)], 2),
        (["parse", str(tmp_path)], 2),
    ]
    before = _open_descriptors()
    for i in range(200):
        argv, code = calls[i % len(calls)]
        assert run(argv, stdout=io.StringIO(), stderr=io.StringIO()).exit_code == code, argv
    assert _open_descriptors() == before


class _Interrupted(BaseException):
    """Stands for a timeout that a signal handler raises inside a call."""


def test_an_interrupted_artifact_write_closes_its_descriptor(tmp_path, monkeypatch):
    out = tmp_path / "r.aut"

    def interrupted(fd, data):
        raise _Interrupted()

    before = _open_descriptors()
    monkeypatch.setattr(os, "write", interrupted)
    with pytest.raises(_Interrupted):
        run(["reduce", "-g", G_SPEC, "-s", S_SPEC, "-o", str(out)],
            stdout=io.StringIO(), stderr=io.StringIO())
    monkeypatch.undo()
    assert _open_descriptors() == before

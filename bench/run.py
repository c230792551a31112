#!/usr/bin/env python3
"""supred benchmark: one closed-loop client calling ``supred.cli.run``.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all        # every workload, one child each

The client sends one CLI call at a time and waits for its reply.  Set-up
generates each workload's instances, relabels them from ``--seed`` and
writes them as ``.aut`` files, so every call pays for its own parse and
serialisation.  Every call's output is checked by ``checker.py``, which
shares no code with supred.  A run measures whole passes over the
instances until ``--seconds`` have gone by; a call's time is its median
over the passes, scaled to a reference machine speed (``SpeedClock``).

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
first runs untraced passes for half the time, then wraps the public
functions of every supred module (``spans.py``) and prints the per-layer
metrics, per traced pass, with the tracing overhead.  The last stdout line
is one JSON object; records and spans go to ``bench/out/``.  The exit code
is nonzero when any output check, the fixture gate or the checker
self-test fails.
"""

from __future__ import annotations

import argparse
import ast
import gc
import io
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import checker
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
FIXTURES = ROOT / "fixtures"
REQUIRED = ("src/supred/cli.py", "tests/generators.py", "tests/test_acceptance.py",
            "fixtures/tank.aut", "fixtures/ordering.aut", "fixtures/nontransitive.aut")
# Set-up repeats at least this often and for at least this long.
SETUP_REPEATS = 9
SETUP_MIN_S = 1.0
CAL_NOMINAL_S = 0.0025
CAL_EVERY_S = 0.25
# A p90 is more than indicative only with ten calls or more beyond it.
P90_MIN_CALLS = 100

# Instance seeds are fixed per workload: the cost of one instance swings
# 10x between instance seeds, so drawing instances from --seed would make
# the figures depend on the draw rather than on the program.  --seed
# relabels states and events and orders the calls instead.  The reduce
# workloads have an odd number of instances, which puts the median call
# among one instance's samples rather than between two instances.
WORKLOADS = {
    "reduce_inflated": dict(
        kind="reduce", limit_s=60.0,
        instances=[("inflated", i) for i in range(3)]),
    "reduce_random": dict(
        kind="reduce", limit_s=60.0,
        instances=[("random", i) for i in range(13)]),
    # Seeds 91 and 255 run the exact search for minutes; they stay in the
    # draw and time out every pass while the search has no bound.
    "exact_small": dict(
        kind="exact", limit_s=4.0,
        instances=[("loose", i) for i in range(119)] + [("loose", 255)]),
    "finest_compare": dict(
        kind="finest", limit_s=60.0,
        instances=[("inflated", i) for i in range(5)] + [("random", i) for i in range(5)]),
}


class CallTimeout(BaseException):
    """Raised by SIGALRM inside a call; not an Exception, so ``cli.run``
    does not map it to an exit code."""


def _alarm(signum, frame):
    raise CallTimeout()


# ---------------------------------------------------------------------------
# Instances


def _families():
    from supred.automata import Alphabet, Automaton, Event
    from tests.generators import (loose_instance, random_alphabet, random_feasible_supervisor,
                                  random_plant, scale_pair)

    def inflated(i):
        # counter-inflated supervisor: 8 core states x 25 = 200 states
        return scale_pair(random.Random(i), core_states=8, factor=25)

    def random_pair(i):
        # 100-300 state partial-observation supervisor, 10-20 state plant
        rng = random.Random(i)
        while True:
            alphabet = random_alphabet(rng, max_events=5, require_unobservable=True)
            g = random_plant(rng, alphabet, max_states=20, uncontrollable_complete=True)
            if g.n < 10:
                continue
            try:
                s = random_feasible_supervisor(rng, alphabet, max_states=300, full_gamma=True)
            except ValueError:  # too few observable events for a spanning tree
                continue
            if s.n >= 100:
                return g, s

    def loose(i):
        return loose_instance(random.Random(i), max_plant=8, max_sup=10, max_events=5)

    def relabel(g, s, rng):
        """Rename events and states; indices and order stay, so every
        algorithm does the same work on the relabelled pair."""
        alphabet = Alphabet(Event(f"{e.name}_{rng.randrange(100)}", e.controllable, e.observable)
                            for e in g.alphabet)

        def rename(a, prefix):
            names = [f"{prefix}{k}" for k in range(a.n)]
            rng.shuffle(names)
            return Automaton(a.name, alphabet, names, a.initial, a.marked, a.trans)

        return rename(g, "x"), rename(s, "z")

    return {"inflated": inflated, "random": random_pair, "loose": loose}, relabel


@dataclass
class Instance:
    key: str
    seed: int
    g: str
    s: str
    calls: list[list[str]] = field(default_factory=list)
    record: dict = field(default_factory=dict)
    checked: dict = field(default_factory=dict)  # call index -> (output text, size)


def clean(work: Path) -> None:
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)


def setup(workload: dict, kind: str, run_seed: int, work: Path) -> list[Instance]:
    """Generate, relabel and write the instances into the empty directory
    ``work``; build their call lines."""
    from supred.automata import serialize_automaton

    families, relabel = _families()
    rng = random.Random(run_seed)
    instances = []
    for family, i in workload["instances"]:
        key = f"{family}{i}"
        g, s = relabel(*families[family](i), rng)
        gp, sp = work / f"{key}.g.aut", work / f"{key}.s.aut"
        gp.write_text(serialize_automaton(g), encoding="utf-8")
        sp.write_text(serialize_automaton(s), encoding="utf-8")
        inst = Instance(key, i, str(gp), str(sp))
        out = str(work / f"{key}.out.aut")
        if kind == "reduce":
            inst.calls = [["reduce", "-g", inst.g, "-s", inst.s, "-o", out, "--json"]]
        elif kind == "exact":
            inst.calls = [["reduce", "--exact", "--mode", "cover", "-g", inst.g, "-s", inst.s,
                           "-o", out, "--json"]]
        else:
            inst.calls = [
                ["super", "-g", inst.g, "-s", inst.s, "-o", out, "--json"],
                ["compare", "order", "-g", inst.g, "-s1", out, "-s2", inst.s, "--ref", inst.s,
                 "--json"],
                ["verify", "equiv", "-g", inst.g, "-s1", inst.s, "-s2", out, "--json"],
                ["verify", "normal", "-g", inst.g, "-s", inst.s, "-sp", out, "--json"],
            ]
        instances.append(inst)
    rng.shuffle(instances)
    return instances


# ---------------------------------------------------------------------------
# Calls and checks


def call(argv: list[str], limit_s: float):
    """One timed ``cli.run`` call under a wall limit enforced by SIGALRM.
    Returns (seconds, result or None on timeout, stdout text)."""
    from supred import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, limit_s)
        try:
            result = cli.run(argv, stdout=out, stderr=err)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except CallTimeout:
        result = None
    return time.perf_counter() - start, result, out.getvalue()


def _output_path(argv: list[str]) -> str:
    return argv[argv.index("-o") + 1]


def check_output(inst: Instance, k: int, argv: list[str], max_states: Optional[int]):
    """Check the automaton a call wrote.  Returns (problem, size); a pass
    whose output is byte-identical to an already checked one reuses that
    verdict."""
    with open(_output_path(argv), encoding="utf-8") as fh:
        text = fh.read()
    seen = inst.checked.get(k)
    if seen is not None and seen[0] == text:
        return None, seen[1]
    (out,) = checker.read_aut(text)
    g, s = checker.read_one(inst.g), checker.read_one(inst.s)
    problem = checker.supervisor_problem(g, s, out, max_states)
    if problem is None:
        inst.checked[k] = (text, out.n)
    return problem, out.n


def judge(kind: str, inst: Instance, k: int, argv, result, stdout: str):
    """Classify one finished call: ("ok"|"refused"|"failed", size, problem)."""
    payload = json.loads(stdout) if stdout.strip() else {}
    if kind == "exact" and result.exit_code == 4:
        return "refused", inst.record["input_states"], None
    if result.exit_code != 0:
        return "failed", None, f"exit {result.exit_code}: {payload.get('witness')}"
    if kind == "finest" and k > 0:
        if payload.get("verdict") is not True:
            return "failed", None, f"verdict {payload.get('verdict')}"
        return "ok", None, None
    max_states = None if kind == "finest" else inst.record["input_states"]
    problem, size = check_output(inst, k, argv, max_states)
    if problem is None and payload.get("sizes", {}).get("output") != size:
        problem = f"JSON sizes {payload.get('sizes')} but the file has {size} states"
    return ("failed" if problem else "ok"), size, problem


def describe(instances: list[Instance]) -> None:
    """Plant, input and closed-loop sizes per instance, by the checker."""
    for inst in instances:
        g, s = checker.read_one(inst.g), checker.read_one(inst.s)
        inst.record.update(instance_seed=inst.seed, plant_states=g.n, input_states=s.n,
                           product_states=checker.closed_loop_size(g, s))


def reference(kind: str, instances: list[Instance], work: Path) -> list[str]:
    """Untimed SUPER size per instance and, for exact search, the heuristic
    output that no exact output may exceed.  Runs after the measured
    passes, so that its memory stays out of their peak RSS."""
    problems = []
    for inst in instances:
        g, s = checker.read_one(inst.g), checker.read_one(inst.s)
        refs = [("super_states", ["super"], None)]
        if kind == "exact":
            refs.append(("heuristic_states", ["reduce"], s.n))
        for name, command, max_states in refs:
            out = str(work / f"{inst.key}.{name}.aut")
            _, result, _ = call(command + ["-g", inst.g, "-s", inst.s, "-o", out], 60.0)
            if result is None or result.exit_code != 0:
                problems.append(f"{inst.key}: reference {command[0]} did not succeed")
                continue
            (made,) = checker.read_aut(Path(out).read_text(encoding="utf-8"))
            problem = checker.supervisor_problem(g, s, made, max_states)
            if problem:
                problems.append(f"{inst.key}: reference {command[0]}: {problem}")
            inst.record[name] = made.n
        heuristic = inst.record.get("heuristic_states")
        decided = inst.record.get("outcome") in ("ok", "refused")
        if decided and heuristic is not None and inst.record["output_states"] > heuristic:
            problems.append(f"{inst.key}: exact output {inst.record['output_states']} > "
                            f"heuristic output {heuristic}")
    return problems


# ---------------------------------------------------------------------------
# Fixture gate and checker self-test


def pinned_tank_table() -> str:
    """The tank control-data table exactly as tests/test_acceptance.py pins it."""
    tree = ast.parse((ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "test_tank_control_data_table":
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and str(sub.value).startswith("z0: "):
                    return sub.value
    raise LookupError("no pinned tank table in tests/test_acceptance.py")


def fixture_gate(work: Path) -> list[str]:
    problems = []
    tank, order, nontrans = (str(FIXTURES / f) for f in ("tank.aut", "ordering.aut",
                                                          "nontransitive.aut"))
    _, result, text = call(["data", "-g", f"{tank}:G", "-s", f"{tank}:S"], 60.0)
    if result is None or result.exit_code != 0 or text != pinned_tank_table():
        problems.append("tank control-data table differs from the pinned text")

    def reduced(path, sup, extra, size=None):
        out = str(work / f"gate.{Path(path).stem}.{sup}.aut")
        _, result, _ = call(["reduce", *extra, "-g", f"{path}:G", "-s", f"{path}:{sup}",
                             "-o", out], 60.0)
        if result is None or result.exit_code != 0:
            return f"{Path(path).name}:{sup}: reduce did not succeed"
        blocks = {a.name: a for a in checker.read_aut(Path(path).read_text(encoding="utf-8"))}
        (made,) = checker.read_aut(Path(out).read_text(encoding="utf-8"))
        if size is not None and made.n != size:
            return f"{Path(path).name}:{sup}: exact size {made.n}, expected {size}"
        problem = checker.supervisor_problem(blocks["G"], blocks[sup], made, blocks[sup].n)
        return problem and f"{Path(path).name}:{sup}: {problem}"

    exact = ["--exact", "--mode", "cover"]
    for problem in (reduced(order, "S1", exact, 2), reduced(order, "S2", exact, 3),
                    reduced(nontrans, "S", [])):
        if problem:
            problems.append(problem)
    g, s = checker.read_aut((FIXTURES / "tank.aut").read_text(encoding="utf-8"))
    return problems + checker.self_test(g, s)


def instance_self_test(instances: list[Instance]) -> list[str]:
    """Run the checker self-test on the first instance where both faults
    can be built."""
    for inst in instances:
        g, s = checker.read_one(inst.g), checker.read_one(inst.s)
        try:
            return checker.self_test(g, s)
        except ValueError:
            continue
    return []


# ---------------------------------------------------------------------------
# Measurement


def _kernel_seconds() -> float:
    """Time a fixed dict-building loop, with the garbage collector off so
    that the size of the program's heap does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(20000):
            table[(i, i & 7)] = i
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedClock:
    """Wall time scaled to a reference speed of the machine.

    The machines this runs on share their cores with other load that slows
    every instruction by up to 1.8x, for spells of seconds to minutes, and
    CPU time grows with it.  So a fixed pure-Python kernel is timed at
    least every ``CAL_EVERY_S``, and a timing is scaled by the kernel's
    time around it to the speed at which the kernel takes
    ``CAL_NOMINAL_S`` (about its time on an idle 2-core VM).  The program
    is never timed with the kernel running.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (when, kernel seconds)
        self.calibrate()

    def calibrate(self) -> None:
        kernel = min(_kernel_seconds() for _ in range(5))
        self.samples.append((time.perf_counter(), kernel))

    def mark(self) -> int:
        """Calibrate if due; returns the sample a timing starts after."""
        if time.perf_counter() - self.samples[-1][0] > CAL_EVERY_S:
            self.calibrate()
        return len(self.samples) - 1

    def scaled(self, seconds: float, mark: int) -> float:
        """``seconds`` timed after sample ``mark``, scaled by the mean
        kernel time of the two samples before the timing and the two after
        it."""
        window = self.samples[max(0, mark - 1):mark + 3]
        return seconds * CAL_NOMINAL_S * len(window) / sum(k for _, k in window)


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)  # wall seconds
    marks: list[int] = field(default_factory=list)  # SpeedClock sample before each call
    outcomes: list[str] = field(default_factory=list)
    output_states: int = 0


def run_pass(kind: str, instances: list[Instance], limit_s: float, clock: SpeedClock,
             problems: list[str], tracer: Optional[Tracer] = None) -> Pass:
    p = Pass()
    for inst in instances:
        for k, argv in enumerate(inst.calls):
            if tracer is not None:
                tracer.call_id += 1
            mark = clock.mark()
            seconds, result, stdout = call(argv, limit_s)
            if seconds > CAL_EVERY_S:
                clock.calibrate()
            if result is None:
                outcome, size = "timeout", inst.record["input_states"]
            else:
                outcome, size, problem = judge(kind, inst, k, argv, result, stdout)
                if problem:
                    problems.append(f"{inst.key} call {k} ({argv[0]}): {problem}")
            p.times.append(seconds)
            p.marks.append(mark)
            p.outcomes.append(outcome)
            if size is not None:
                p.output_states += size
            command = " ".join(argv[:2]) if argv[0] in ("compare", "verify") else argv[0]
            inst.record.setdefault("call_s", {}).setdefault(command, []).append(seconds)
            if size is not None and k == 0:
                inst.record.update(output_states=size, outcome=outcome)
    return p


def run_passes(kind, instances, limit_s, clock, problems, until, tracer=None):
    """Whole passes until the clock passes ``until``."""
    passes = []
    while not passes or time.perf_counter() < until:
        passes.append(run_pass(kind, instances, limit_s, clock, problems, tracer))
    return passes


def call_times(passes: list[Pass], clock: Optional[SpeedClock] = None) -> list[float]:
    """Each call's median time over the passes, scaled to the reference
    speed when a clock is given.  A timeout counts at the wall limit,
    unscaled, because the limit is a wall-clock rule."""
    columns = zip(*([clock.scaled(t, m) if clock and o != "timeout" else t
                     for t, m, o in zip(p.times, p.marks, p.outcomes)] for p in passes))
    return [statistics.median(col) for col in columns]


def metric_specs(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def _timings(times: list[float], setup_times: list[float]) -> dict:
    return {
        "setup_s": statistics.median(setup_times),
        "calls_per_s": len(times) / sum(times),
        "call_p50_s": statistics.median(times),
        "call_p90_s": statistics.quantiles(times, n=10, method="inclusive")[8],
    }


def end_to_end(passes: list[Pass], clock: SpeedClock, setups: list[tuple[float, int]],
               peak_rss_mb: float) -> tuple[dict, dict, dict]:
    """Metric values, notes, and the time metrics without scaling."""
    raw = _timings(call_times(passes), [t for t, _ in setups])
    times = call_times(passes, clock)
    outcomes = [o for p in passes for o in p.outcomes]
    ok = sum(o in ("ok", "refused") for o in outcomes)
    values = {
        **_timings(times, [clock.scaled(t, m) for t, m in setups]),
        "ok_frac": ok / len(outcomes),
        "output_states": statistics.median(p.output_states for p in passes),
        "peak_rss_mb": peak_rss_mb,
    }
    samples = f"{len(times)} calls, each the median of {len(passes)} passes"
    p90_note = "" if len(times) >= P90_MIN_CALLS else f"; < {P90_MIN_CALLS} calls, indicative"
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; unscaled {raw['setup_s']:.6g}",
        "calls_per_s": f"{samples}; unscaled {raw['calls_per_s']:.6g}",
        "call_p50_s": f"{samples}; unscaled {raw['call_p50_s']:.6g}",
        "call_p90_s": f"{samples}{p90_note}; unscaled {raw['call_p90_s']:.6g}",
        "ok_frac": (f"failed_frac {1 - values['ok_frac']:.4f}: "
                    f"{outcomes.count('timeout')} timeouts, {outcomes.count('failed')} failed "
                    f"checks of {len(outcomes)} calls"),
        "output_states": f"per pass, median of {len(passes)} passes",
        "peak_rss_mb": "process peak up to the end of the passes",
    }
    return values, notes, raw


def per_layer(tracer: Tracer, traced: list[Pass], untraced: list[Pass],
              clock: SpeedClock) -> tuple[dict, dict]:
    """Span figures per traced pass, in unscaled wall seconds."""
    n = len(traced)
    selfs = tracer.self_times()
    counters = tracer.counters
    traced_s = sum(sum(p.times) for p in traced) / n
    overhead = sum(call_times(traced, clock)) / sum(call_times(untraced, clock)) - 1
    values = {"trace.overhead_frac": overhead, "trace.call_wall_s": traced_s}
    for name, (seconds, calls) in selfs.items():
        values[f"{name}.self_s"] = seconds / n
        values[f"{name}.calls"] = calls / n
    for name, count in counters.items():
        values[name] = count / n
    values["reduction.exact_timeouts"] = sum(p.outcomes.count("timeout") for p in traced) / n
    base = counters["reduction.merge_pairs_base"]
    values["reduction.merge_useful_ratio"] = counters["reduction.merges_useful"] / base if base else 0.0
    notes = {
        "trace.overhead_frac": (f"scaled call time, {n} traced against "
                                f"{len(untraced)} untraced passes"),
        "reduction.merge_useful_ratio": (f"{counters['reduction.merges_useful'] / n:g} merges "
                                         f"committed of {base / n:g} pairs n(n-1)/2 per pass"),
    }
    return values, notes


def report(specs: list[dict], values: dict, notes: dict, header: str) -> dict:
    print(header)
    metrics = {}
    for m in specs:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        print(f"  {m['name']:<44} {value:>14.6g} {m['unit']}{note}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    kind, limit_s = workload["kind"], workload["limit_s"]
    tag = f"{name}.seed{seed}.trace{int(trace)}"
    work = OUT / "work" / f"{tag}.{os.getpid()}"
    signal.signal(signal.SIGALRM, _alarm)
    problems: list[str] = []
    try:
        clock = SpeedClock()
        setups = []  # (wall seconds, SpeedClock sample before)
        begun = time.perf_counter()
        while len(setups) < SETUP_REPEATS or time.perf_counter() < begun + SETUP_MIN_S:
            clean(work)
            mark = clock.mark()
            start = time.perf_counter()
            instances = setup(workload, kind, seed, work)
            setups.append((time.perf_counter() - start, mark))
        clock.calibrate()
        problems += fixture_gate(work) + instance_self_test(instances)
        describe(instances)
        start = time.perf_counter()
        tracer = None
        if not trace:
            passes = run_passes(kind, instances, limit_s, clock, problems, start + seconds)
        else:
            untraced = run_passes(kind, instances, limit_s, clock, problems,
                                  start + seconds / 2)
            tracer = Tracer()
            tracer.install()
            try:
                passes = run_passes(kind, instances, limit_s, clock, problems,
                                    start + seconds, tracer=tracer)
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        problems += reference(kind, instances, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unscaled = None
    if trace:
        values, notes = per_layer(tracer, passes, untraced, clock)
        self_sum = sum(t for t, _ in tracer.self_times().values())
        wall = sum(sum(p.times) for p in passes)
        notes["trace.call_wall_s"] = f"self times sum to {self_sum / wall:.4f} of it"
        if abs(self_sum - wall) > 0.02 * wall:
            problems.append(f"self times sum to {self_sum:.4f} s, traced call time {wall:.4f} s")
    else:
        values, notes, unscaled = end_to_end(passes, clock, setups, peak_rss_mb)
    attempted = sum(len(p.times) for p in passes)
    failed = sum(p.outcomes.count("failed") for p in passes)
    header = (f"workload {name}  seed {seed}  trace {int(trace)}  passes {len(passes)}  "
              f"calls {attempted}  instances {len(instances)}")
    metrics = report(metric_specs(trace), values, notes, header)
    for problem in problems[:20]:
        print(f"  PROBLEM {problem}")
    correct = not problems

    OUT.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "passes": len(passes), "python": sys.version.split()[0],
              "cpu_count": os.cpu_count(), "correct": correct, "problems": problems,
              "kernel_s": [k for _, k in clock.samples],
              "metrics": metrics, "unscaled": unscaled,
              "instances": [i.record for i in instances]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    if tracer is not None:
        tracer.write(OUT / f"{name}.seed{seed}.spans.jsonl")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"  PROBLEM {name}: no result (exit {child.returncode})")
            correct = False
            continue
        correct &= result["correct"] and child.returncode == 0
        attempted += result["attempted"]
        failed += result["failed"]
        metrics.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    missing = [p for p in REQUIRED + ("BENCHMARK.json",) if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a supred checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())

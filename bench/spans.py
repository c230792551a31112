"""Spans around the public functions of the ``supred`` modules.

The tracer edits nothing under ``src/``: it replaces each public function
with a timing wrapper in every ``supred`` module namespace that binds it,
so calls from one module into another are timed as well.  Spans stay in
memory and are written out when the run ends.  A span's self time is its
duration minus the durations of the spans it directly caused; calls are
sequential, so those children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "automata", "supervision", "reduction", "ordering")

# Called n^2 times inside compatibility_relation; a span per call would
# cost more than the work it times.  Its time is compatibility_relation's
# self time.
UNWRAPPED = {"supred.supervision.compatible"}


def _count_product(counters, result):
    counters["automata.product_states"] += result[0].n


def _count_subsets(counters, result):
    counters["automata.subset_states"] += result[0].n


def _count_compatible(counters, result):
    n = len(result.matrix)
    counters["supervision.compatible_pairs"] += (sum(map(sum, result.matrix)) - n) // 2


def _count_heuristic(counters, result):
    report = result[1]
    n = report.input_size
    counters["reduction.heuristic_steps"] += report.steps
    counters["reduction.merges_useful"] += n - report.output_size
    counters["reduction.merge_pairs_base"] += n * (n - 1) // 2


def _count_exact(counters, result):
    counters["reduction.exact_nodes"] += result[1].steps


# Counters read off a function's result at its boundary.
RESULT_COUNTERS = {
    "automata.sync_product_pairs": _count_product,
    "automata.subset_construction_with_members": _count_subsets,
    "supervision.compatibility_relation": _count_compatible,
    "reduction.reduce_heuristic": _count_heuristic,
    "reduction.reduce_exact_minimum": _count_exact,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, int, str, float, float]] = []
        self.counters: Counter = Counter()
        self.call_id = 0
        self._stack: list[int] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        on_result = RESULT_COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, self.call_id, name, start, end))
            if on_result is not None:
                on_result(counters, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the layer modules wherever a
        ``supred`` module binds it."""
        modules = [m for key, m in sorted(sys.modules.items())
                   if (key == "supred" or key.startswith("supred.")) and m is not None]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"supred.{layer}"]
            for attr, fn in vars(module).items():
                qualified = f"{module.__name__}.{attr}"
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__ or qualified in UNWRAPPED):
                    continue
                wrappers[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: summed self time and number of calls."""
        child = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals: dict[str, list] = {}
        for sid, _, _, name, start, end in self.spans:
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += end - start - child[sid]
            entry[1] += 1
        return {name: (t, c) for name, (t, c) in totals.items()}

    def write(self, path) -> None:
        """One JSON object per span, in the order the spans ended."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, call, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start, "end": end,
                                     "parent": None if parent < 0 else parent,
                                     "call": call}) + "\n")

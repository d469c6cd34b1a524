"""Spans and counts at the package's layer boundaries, recorded from outside.

Tracer.install rebinds every module-level name in the vanetgame package that
refers to a traced function (the definition and every `from ... import`
copy), so calls from any caller pass through a wrapper; uninstall restores
the originals. A span is [name, start, end, parent, busy]: busy is end - start
for a plain call, and for a call that returns an iterator it also accumulates
the time spent inside that iterator afterwards. Spans stay in memory until
the benchmark writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from collections.abc import Iterator

# (layer name, module, function name, records spans?)
BOUNDARIES = (
    ("configio.load_config", "vanetgame.configio", "load_config", True),
    ("configio.resolve_encounter", "vanetgame.configio", "resolve_encounter", True),
    ("model.enumerate_partitions", "vanetgame.model", "enumerate_partitions", True),
    ("model.normalize_structure", "vanetgame.model", "normalize_structure", True),
    ("model.format_structure", "vanetgame.model", "format_structure", False),
    ("analytic.player_payoffs", "vanetgame.analytic", "player_payoffs", True),
    ("analysis.structure_reports", "vanetgame.analysis", "structure_reports", True),
    ("analysis.stability_verdict", "vanetgame.analysis", "stability_verdict", True),
    ("analysis.run_identity_checks", "vanetgame.analysis", "run_identity_checks", True),
    ("slotsim.simulate_slots", "vanetgame.slotsim", "simulate_slots", True),
    ("geometry.estimate_encounter_matrix", "vanetgame.geometry", "estimate_encounter_matrix",
     True),
)


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.coalitions: set = set()
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans -------------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, idx: int) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] += span[2] - span[1]

    def _iterate(self, idx: int, it: Iterator, item_counter: str | None):
        span = self.spans[idx]
        while True:
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                end = time.perf_counter()
                self._stack.pop()
                span[2] = end
                span[4] += end - start
            if item_counter:
                self.counts[item_counter] += 1
            yield item

    # -- wrappers ----------------------------------------------------------
    def _hooks(self, name: str):
        """(on_call, item counter name) of one boundary."""
        counts = self.counts
        if name == "analytic.player_payoffs":
            def on_call(args, kwargs):
                counts["analytic.player_payoffs.calls"] += 1
                self.coalitions.add(frozenset(_arg(args, kwargs, 0, "S")))
        elif name == "slotsim.simulate_slots":
            def on_call(args, kwargs):
                counts["slotsim.slots"] += int(_arg(args, kwargs, 2, "n_slots"))
        elif name == "geometry.estimate_encounter_matrix":
            def on_call(args, kwargs):
                counts["geometry.placements"] += int(_arg(args, kwargs, 0, "geo").n_slots)
        elif name == "model.format_structure":
            def on_call(args, kwargs):
                counts["model.format_structure.calls"] += 1
        else:
            on_call = None
        item_counter = "model.partitions_produced" if name == "model.enumerate_partitions" \
            else None
        return on_call, item_counter

    def wrap(self, name: str, fn, spans: bool = True):
        on_call, item_counter = self._hooks(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if on_call:
                on_call(args, kwargs)
            if not spans:
                return fn(*args, **kwargs)
            idx = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if isinstance(result, Iterator):
                return tracer._iterate(idx, result, item_counter)
            if item_counter:
                tracer.counts[item_counter] += len(result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "vanetgame" or key.startswith("vanetgame."))]
        for name, module_name, attr, spans in BOUNDARIES:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapped = self.wrap(name, original, spans)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                        self._patched.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------
    def self_times(self) -> list[float]:
        own = [span[4] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[4]
        return own


def layer_summary(tracer: Tracer) -> dict:
    """Per-layer busy and self seconds and counts for the spans recorded so far."""
    busy: Counter = Counter()
    own: Counter = Counter()
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        busy[span[0]] += span[4]
        own[span[0]] += self_s
    counts = dict(tracer.counts)
    calls = counts.get("analytic.player_payoffs.calls", 0)
    return {"busy": dict(busy), "self": dict(own), "counts": counts,
            "distinct_coalitions": len(tracer.coalitions),
            "distinct_coalition_ratio": len(tracer.coalitions) / calls if calls else 0.0}

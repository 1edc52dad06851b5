"""Out-of-program tracing of switchsim's layers.

The tracer wraps the public functions of each layer at the names their
callers look them up by, records one span per call (name, start, end,
parent) plus counts taken from arguments and results, and puts every
original object back when it exits. Nothing inside ``src/`` is edited.
"""
from __future__ import annotations

import functools
import importlib
from time import perf_counter


def _count_selection(counts, args, kwargs, result):
    counts["sparsity.oracle_calls"] += sum(r.oracle_calls for r in result.values())


def _count_plan(counts, args, kwargs, result):
    counts["prefetch.planned_blocks"] += len(result.entries)


def _count_execute(counts, args, kwargs, result):
    _state, staged, moved = result
    counts["prefetch.staged_blocks"] += len(staged)
    counts["prefetch.staged_bytes"] += moved


def _count_evict(counts, args, kwargs, result):
    before = args[1]
    counts["block_store.evicted_blocks"] += (
        len(before.gpu_resident) + len(before.cpu_resident)
        - len(result.gpu_resident) - len(result.cpu_resident))


def _count_switch(counts, args, kwargs, result):
    _state, report = result
    counts["switching.bytes_disk_to_cpu"] += report.bytes_disk_to_cpu
    counts["switching.bytes_cpu_to_gpu"] += report.bytes_cpu_to_gpu


# (module, attribute, span name, counter). Each attribute is patched where
# its caller looks it up. A counter receives the tracer's counts, the
# call's arguments and its result.
TARGETS = (
    ("switchsim.cli", "compare_modes", "replay.compare_modes", None),
    ("switchsim.cli", "emit_reports", "replay.emit", None),
    ("switchsim.cli", "write_compare_csv", "replay.emit", None),
    ("switchsim.replay", "load_scenario", "replay.load", None),
    ("switchsim.replay", "build_all_tasks", "sparsity.select", _count_selection),
    ("switchsim.replay", "fit_transition_model", "transitions.fit", None),
    ("switchsim.replay", "assign_tiers", "transitions.assign_tiers", None),
    ("switchsim.replay", "block_usefulness", "prefetch.usefulness", None),
    ("switchsim.replay", "plan_prefetch", "prefetch.plan", _count_plan),
    ("switchsim.replay", "execute_prefetch", "prefetch.execute", _count_execute),
    ("switchsim.replay", "execute_switch", "switching.switch", _count_switch),
    ("switchsim.prefetch", "block_usefulness", "prefetch.usefulness", None),
    ("switchsim.prefetch", "stage_to_cpu", "block_store.stage", None),
    ("switchsim.block_store", "evict", "block_store.evict", _count_evict),
)

# Span name -> per-layer metric names for its self time and call count.
SPAN_METRICS = {
    "cli.main": ("cli.self_s", None),
    "replay.compare_modes": ("replay.loop_self_s", None),
    "replay.emit": ("replay.emit_s", None),
    "replay.load": ("replay.load_s", None),
    "sparsity.select": ("sparsity.select_s", "sparsity.select_calls"),
    "transitions.fit": ("transitions.fit_s", "transitions.fit_calls"),
    "transitions.assign_tiers": ("transitions.assign_tiers_s",
                                 "transitions.assign_tiers_calls"),
    "prefetch.usefulness": ("prefetch.usefulness_s", "prefetch.usefulness_calls"),
    "prefetch.plan": ("prefetch.plan_s", None),
    "prefetch.execute": ("prefetch.execute_s", None),
    "block_store.stage": ("block_store.stage_s", "block_store.stage_calls"),
    "block_store.evict": ("block_store.evict_s", "block_store.evict_calls"),
    "switching.switch": ("switching.switch_s", "switching.switch_calls"),
}

COUNTERS = (
    "sparsity.oracle_calls", "sparsity.score_calls", "prefetch.planned_blocks",
    "prefetch.staged_blocks", "prefetch.staged_bytes", "block_store.evicted_blocks",
    "switching.bytes_disk_to_cpu", "switching.bytes_cpu_to_gpu",
)


class Tracer:
    """Context manager that instruments switchsim while it is entered.

    ``spans`` holds ``(name, start, end, parent_index)`` tuples in call
    order; ``parent_index`` is -1 for a root span. ``reset`` starts a new
    request (one ``compare``) without unpatching.
    """

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._patched: list[tuple[object, str, object]] = []
        self._stack: list[int] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts = dict.fromkeys(COUNTERS, 0)

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent)

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = self.span(name, fn, *args, **kwargs)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return wrapper

    def _wrap_score(self, fn):
        @functools.wraps(fn)
        def wrapper(oracle, active):
            self.counts["sparsity.score_calls"] += 1
            return fn(oracle, active)
        return wrapper

    def _patch(self, owner, attr, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def __enter__(self) -> "Tracer":
        for module, attr, name, counter in TARGETS:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, counter))
        oracle_cls = importlib.import_module("switchsim.sparsity").AdditiveOracle
        self._patch(oracle_cls, "score", self._wrap_score(oracle_cls.score))
        self._patched = list(self._saved)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """True when every attribute patched on entry holds its original again."""
        return all(owner.__dict__[attr] is original
                   for owner, attr, original in self._patched)

    def _self_times(self) -> list[tuple[str, float]]:
        # A span's self time is its duration minus its direct children's.
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(name, end - start - inner)
                for (name, start, end, _parent), inner in zip(self.spans, child)]

    def self_time_total(self) -> float:
        """Sum of every span's self time: at most the wall time of the root spans."""
        return sum(t for _name, t in self._self_times())

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds and call counts per layer, plus the raw counters."""
        metrics: dict[str, float] = {}
        for time_key, calls_key in SPAN_METRICS.values():
            metrics[time_key] = 0.0
            if calls_key:
                metrics[calls_key] = 0
        for name, self_s in self._self_times():
            time_key, calls_key = SPAN_METRICS[name]
            metrics[time_key] += self_s
            if calls_key:
                metrics[calls_key] += 1
        metrics.update(self.counts)
        planned = self.counts["prefetch.planned_blocks"]
        metrics["prefetch.stage_yield"] = (
            self.counts["prefetch.staged_blocks"] / planned if planned else 1.0)
        return metrics

"""Scenario loading, trace replay, mode comparison, and report emission.

A scenario bundles a manifest, task specs, an oracle source, a transition
log, a trace to replay, a cost model, and budgets. Replay builds skip
sets (aligned for the full method, independent for the baseline-style
modes), estimates transition statistics, then walks the trace: each step
grants a prefetch window, each task change executes a switch. All
randomness is seeded through the config, so identical configs produce
byte-identical reports.

Within one replay a step is a pure function of (current task, next task,
:class:`CacheState`): the prefetch plan, staging, eviction and switch
read nothing else, and everything else they read (manifest, cost model,
active sets, transition model, window) is fixed for the replay. The step
memo keys on (current task, next task, ``state.cpu_lru``), a tuple of
strings and ints that hashes without calling back into Python. That key
fixes the whole state, because every state the replay steps from has
been checked: the device holds ``table.target(mode, current)``, the host
holds exactly the blocks in ``cpu_lru``, and both budgets equal the
config's. The replay computes each distinct key once, checks the state
it leaves, and stores (next state, record index or -1). A step that
raises stores nothing, so an error surfaces at the trace position where
its key first occurs.

A :class:`ReplayReport` holds each distinct switch record once, in order
of first occurrence, plus the trace's switches as indices into them.
Aggregation, ``emit_reports`` and ``write_compare_csv`` work per distinct
record, with C-level passes over the index sequence.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from collections import Counter
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Mapping, Sequence

from .block_store import CacheState, ModelManifest, TierAssignment, load_to_gpu
from .errors import ConfigError, ReplayError, SwitchSimError, exact_int
from .prefetch import block_usefulness, execute_prefetch, plan_prefetch
from .reference import gen_instance
from .sparsity import (MetricOracle, SelectionResult, TaskSpec, build_all_tasks,
                       jaccard, load_table_oracles, load_task_specs)
from .switching import CostModel, DeployMode, SwitchReport, SwitchTable, execute_switch
from .transitions import TransitionModel, assign_tiers, fit_transition_model, load_task_log

__all__ = ["ScenarioConfig", "ReplayReport", "run_replay", "compare_modes",
           "emit_reports", "write_compare_csv"]


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one replay needs, as resolved file paths and parameters."""

    manifest_path: Path
    tasks_path: Path
    oracle: Mapping
    log_path: Path
    trace_path: Path
    cost_model_path: Path
    gpu_budget_bytes: int
    cpu_budget_bytes: int
    mode: DeployMode | None = None
    k: int = 2
    compute_window_ms: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.compute_window_ms) and self.compute_window_ms >= 0):
            raise ConfigError(
                f"compute_window_ms must be finite and >= 0, got {self.compute_window_ms}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")

    @classmethod
    def from_dict(cls, doc: Mapping, base_dir: Path | str = ".") -> "ScenarioConfig":
        base = Path(base_dir)

        def path_of(key: str) -> Path:
            try:
                return (base / doc[key]).resolve()
            except KeyError:
                raise ConfigError(f"config is missing {key!r}") from None

        mode = doc.get("mode")
        try:
            return cls(
                manifest_path=path_of("manifest"),
                tasks_path=path_of("tasks"),
                oracle=dict(doc.get("oracle") or {}),
                log_path=path_of("log"),
                trace_path=path_of("trace"),
                cost_model_path=path_of("cost_model"),
                gpu_budget_bytes=exact_int(doc["gpu_budget_bytes"]),
                cpu_budget_bytes=exact_int(doc["cpu_budget_bytes"]),
                mode=DeployMode(mode) if mode is not None else None,
                k=exact_int(doc.get("k", 2)),
                compute_window_ms=float(doc.get("compute_window_ms", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc

    def echo(self) -> dict:
        return {
            "manifest": str(self.manifest_path),
            "tasks": str(self.tasks_path),
            "oracle": dict(self.oracle),
            "log": str(self.log_path),
            "trace": str(self.trace_path),
            "cost_model": str(self.cost_model_path),
            "gpu_budget_bytes": self.gpu_budget_bytes,
            "cpu_budget_bytes": self.cpu_budget_bytes,
            "mode": self.mode.value if self.mode is not None else None,
            "k": self.k,
            "compute_window_ms": self.compute_window_ms,
        }


@dataclass(frozen=True)
class Scenario:
    """A config with every referenced artifact loaded and validated."""

    config: ScenarioConfig
    manifest: ModelManifest
    tasks: tuple[TaskSpec, ...]
    oracles: Mapping[str, MetricOracle]
    log: tuple[str, ...]
    trace: tuple[str, ...]
    cost: CostModel

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.task_id for t in self.tasks)


def _build_oracles(spec: Mapping, manifest: ModelManifest,
                   tasks: Sequence[TaskSpec], base_dir: Path) -> dict[str, MetricOracle]:
    kind = spec.get("kind")
    if kind == "synthetic":
        if "seed" not in spec:
            raise ConfigError("synthetic oracles require a seed")
        try:
            instance = gen_instance(
                seed=exact_int(spec["seed"]),
                num_blocks=manifest.num_blocks,
                num_tasks=len(tasks),
                correlation=float(spec.get("correlation", 0.7)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic oracle: {exc}") from exc
        return {t.task_id: instance.oracle(i) for i, t in enumerate(tasks)}
    if kind == "table":
        try:
            path = (base_dir / spec["path"]).resolve()
        except KeyError:
            raise ConfigError("table oracles require a path") from None
        return load_table_oracles(path, tasks, manifest.num_blocks)
    raise ConfigError(f"unknown oracle kind {kind!r}")


def load_scenario(config: ScenarioConfig) -> Scenario:
    manifest = ModelManifest.load(config.manifest_path)
    tasks = tuple(load_task_specs(config.tasks_path))
    cost = CostModel.load(config.cost_model_path)
    log = tuple(load_task_log(config.log_path))
    trace = tuple(load_task_log(config.trace_path))
    largest = max(manifest.block_sizes)
    if config.gpu_budget_bytes < largest or config.cpu_budget_bytes < largest:
        raise ConfigError(
            f"budgets must admit the largest block ({largest} bytes)")
    oracles = _build_oracles(config.oracle, manifest, tasks,
                             base_dir=config.manifest_path.parent)
    known = {t.task_id for t in tasks}
    for pos, task in enumerate(trace):
        if task not in known:
            raise ReplayError(f"trace task {task!r} is not a scenario task", position=pos)
    return Scenario(config=config, manifest=manifest, tasks=tasks, oracles=oracles,
                    log=log, trace=trace, cost=cost)


@dataclass(frozen=True)
class ReplayReport:
    """Aggregated outcome of replaying one trace under one mode.

    ``records`` holds each distinct switch once, in order of first
    occurrence; ``order`` lists the trace's switches as indices into it.
    """

    mode: str
    task_ids: tuple[str, ...]
    selections: Mapping[str, SelectionResult]
    records: tuple[SwitchReport, ...]
    order: tuple[int, ...]
    jaccard_matrix: tuple[tuple[float, ...], ...]
    mean_latency_ms: float | None
    median_latency_ms: float | None
    max_latency_ms: float | None
    total_bytes_disk_to_cpu: int
    total_bytes_cpu_to_gpu: int
    mean_gpu_resident_bytes: float | None
    prestage_hits: int
    prestage_misses: int
    prestage_hit_rate: float
    config_echo: dict

    @property
    def switches(self) -> tuple[SwitchReport, ...]:
        """Every switch of the trace, in trace order."""
        return tuple(map(self.records.__getitem__, self.order))


def _aggregate(mode: DeployMode, scenario: Scenario,
               selections: Mapping[str, SelectionResult],
               records: tuple[SwitchReport, ...],
               order: tuple[int, ...]) -> ReplayReport:
    ids = scenario.task_ids
    skips = {tid: selections[tid].skipped for tid in ids}
    matrix = tuple(
        tuple(jaccard(skips[a], skips[b]) for b in ids) for a in ids
    )
    # Integer totals are count x value per distinct record, which is exact;
    # the float statistics take one C-level pass over ``order``, and
    # ``fsum(...) / n`` is what ``statistics.fmean`` computes for a list.
    counts = Counter(order)

    def total(field: str) -> int:
        return sum(c * getattr(records[i], field) for i, c in counts.items())

    n = len(order)
    latency = [r.latency_ms for r in records]
    gpu = [r.gpu_resident_bytes_after for r in records]
    hits = total("blocks_prestaged")
    misses = total("blocks_fetched")
    return ReplayReport(
        mode=mode.value,
        task_ids=ids,
        selections=dict(selections),
        records=records,
        order=order,
        jaccard_matrix=matrix,
        mean_latency_ms=math.fsum(map(latency.__getitem__, order)) / n if n else None,
        median_latency_ms=statistics.median(map(latency.__getitem__, order))
        if n else None,
        max_latency_ms=max(latency[i] for i in counts) if n else None,
        total_bytes_disk_to_cpu=total("bytes_disk_to_cpu"),
        total_bytes_cpu_to_gpu=total("bytes_cpu_to_gpu"),
        mean_gpu_resident_bytes=math.fsum(map(gpu.__getitem__, order)) / n if n else None,
        prestage_hits=hits,
        prestage_misses=misses,
        prestage_hit_rate=hits / (hits + misses) if hits + misses else 1.0,
        config_echo=scenario.config.echo(),
    )


def _replay(scenario: Scenario, mode: DeployMode,
            selections: Mapping[str, SelectionResult],
            model: TransitionModel) -> ReplayReport:
    config = scenario.config
    manifest = scenario.manifest
    cost = scenario.cost
    n = manifest.num_blocks
    # Each switch's millisecond sums walk these sets in their iteration
    # order, which follows from this expression.
    active = {tid: frozenset(range(n)) - r.skipped for tid, r in selections.items()}
    table = SwitchTable(manifest, cost, active)
    budgets = (config.gpu_budget_bytes, config.cpu_budget_bytes)
    # full_method's tiers, usefulness weights and protected set depend on
    # the current task only; each is computed the first time it runs.
    tiering: dict[str, tuple[TierAssignment, dict[int, float], frozenset[int]]] = {}

    def check(state: CacheState, task: str, pos: int) -> None:
        # Together with the key's task and ``cpu_lru``, these fix the state.
        try:
            state.check(manifest)
        except SwitchSimError as exc:
            raise ReplayError(str(exc), position=pos) from exc
        if state.gpu_resident != table.target(mode, task):
            raise ReplayError("device does not hold the running task's blocks",
                              position=pos)
        if (state.gpu_budget_bytes, state.cpu_budget_bytes) != budgets:
            raise ReplayError("cache budgets differ from the config's", position=pos)

    state = CacheState(*budgets)
    # Distinct switch record -> its index in the report's ``records``.
    records: dict[SwitchReport, int] = {}
    order: list[int] = []
    trace = scenario.trace
    if trace:
        first = trace[0]
        try:
            # Initial load of the first task; not counted as a switch.
            state = load_to_gpu(manifest, state, table.target(mode, first))
        except SwitchSimError as exc:
            raise ReplayError(str(exc), position=0) from exc
        check(state, first, 0)
        current = first
        # (current task, next task, cpu_lru) -> (next state, record index or -1).
        steps: dict[tuple[str, str, tuple[int, ...]], tuple[CacheState, int]] = {}
        for pos in range(1, len(trace)):
            task = trace[pos]
            key = (current, task, state.cpu_lru)
            step = steps.get(key)
            if step is None:
                after, staged, report = state, frozenset(), None
                try:
                    if mode is DeployMode.FULL_METHOD:
                        if current not in tiering:
                            tiers = assign_tiers(current, active, model)
                            useful = block_usefulness(current, model, active)
                            tiering[current] = (tiers, useful,
                                                tiers.runtime | tiers.preload)
                        tiers, useful, protected = tiering[current]
                        plan = plan_prefetch(tiers, useful, after, manifest)
                        after, staged, _moved = execute_prefetch(
                            plan, after, config.compute_window_ms, cost, manifest,
                            protected=protected, next_task_probs=useful,
                        )
                    if task != current:
                        after, report = execute_switch(after, current, task, mode, table)
                except SwitchSimError as exc:
                    raise ReplayError(str(exc), position=pos) from exc
                # Invariants of every computed step; a memo hit repeats a
                # checked one.
                check(after, task, pos)
                if not staged <= after.cpu_resident:
                    raise ReplayError("staged blocks are not host-resident", position=pos)
                index = -1 if report is None else records.setdefault(report, len(records))
                step = steps[key] = (after, index)
            state, index = step
            if index >= 0:
                order.append(index)
                current = task
    return _aggregate(mode, scenario, selections, tuple(records), tuple(order))


def run_replay(config: ScenarioConfig) -> ReplayReport:
    """Load the scenario and replay its trace under the configured mode."""
    if config.mode is None:
        raise ConfigError("replay needs a mode (set it in the config or via --mode)")
    scenario = load_scenario(config)
    selections = build_all_tasks(scenario.tasks, scenario.oracles,
                                 align=config.mode is DeployMode.FULL_METHOD)
    model = fit_transition_model(scenario.log, k=config.k,
                                 known_tasks=scenario.task_ids)
    return _replay(scenario, config.mode, selections, model)


def compare_modes(config: ScenarioConfig) -> dict[DeployMode, ReplayReport]:
    """Replay the same scenario under all four modes, identical inputs and seeds.

    Only the full method aligns skip sets; the three other modes share one
    independent selection. The transition model is fitted once.
    """
    scenario = load_scenario(config)
    by_align = {align: build_all_tasks(scenario.tasks, scenario.oracles, align=align)
                for align in (False, True)}
    model = fit_transition_model(scenario.log, k=config.k,
                                 known_tasks=scenario.task_ids)
    return {mode: _replay(scenario, mode, by_align[mode is DeployMode.FULL_METHOD],
                          model)
            for mode in DeployMode}


def _fmt_ms(value: float) -> str:
    return f"{value:.3f}"


def emit_reports(report: ReplayReport, out_dir: Path | str) -> list[Path]:
    """Write switches.jsonl, summary.csv, jaccard.csv, and config.echo.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []

    switches_path = out / "switches.jsonl"
    # One encoded line per distinct record; writelines streams the repeats
    # without building the whole file in memory.
    lines = [json.dumps(r.to_json()) + "\n" for r in report.records]
    with open(switches_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(map(lines.__getitem__, report.order))
    paths.append(switches_path)

    summary_path = out / "summary.csv"
    with open(summary_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["metric", "value"])
        writer.writerow(["mode", report.mode])
        writer.writerow(["num_switches", len(report.order)])
        if report.order:
            writer.writerow(["mean_latency_ms", _fmt_ms(report.mean_latency_ms)])
            writer.writerow(["median_latency_ms", _fmt_ms(report.median_latency_ms)])
            writer.writerow(["max_latency_ms", _fmt_ms(report.max_latency_ms)])
            writer.writerow(["mean_gpu_resident_bytes",
                             _fmt_ms(report.mean_gpu_resident_bytes)])
        writer.writerow(["total_bytes_disk_to_cpu", report.total_bytes_disk_to_cpu])
        writer.writerow(["total_bytes_cpu_to_gpu", report.total_bytes_cpu_to_gpu])
        writer.writerow(["prestage_hit_rate", f"{report.prestage_hit_rate:.6f}"])
    paths.append(summary_path)

    jaccard_path = out / "jaccard.csv"
    with open(jaccard_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task_id", *report.task_ids])
        for tid, row in zip(report.task_ids, report.jaccard_matrix):
            writer.writerow([tid, *(f"{v:.6f}" for v in row)])
    paths.append(jaccard_path)

    echo_path = out / "config.echo.json"
    with open(echo_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(report.config_echo, fh, indent=2, sort_keys=True)
        fh.write("\n")
    paths.append(echo_path)
    return paths


def write_compare_csv(reports: Mapping[DeployMode, ReplayReport],
                      path: Path | str) -> Path:
    """Side-by-side per-pair mean latency across the four modes."""
    path = Path(path)
    ordered_modes = list(DeployMode)
    # (from, to) -> mode -> [(latency, number of switches)] per distinct record.
    pair_lat: dict[tuple[str, str], dict[DeployMode, list[tuple[float, int]]]] = {}
    for mode in ordered_modes:
        report = reports[mode]
        for i, count in Counter(report.order).items():
            s = report.records[i]
            pair = (s.from_task, s.to_task)
            rows = pair_lat.get(pair)
            if rows is None:
                rows = pair_lat[pair] = {m: [] for m in ordered_modes}
            rows[mode].append((s.latency_ms, count))

    def mean_ms(rows: list[tuple[float, int]]) -> str:
        # fsum is exactly rounded, so any order of the multiset gives the
        # per-switch fmean.
        n = sum(count for _, count in rows)
        return _fmt_ms(math.fsum(chain.from_iterable(
            repeat(lat, count) for lat, count in rows)) / n) if n else ""

    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["from_task", "to_task", "count",
                         *(f"{m.value}_ms" for m in ordered_modes)])
        for pair in sorted(pair_lat):
            rows = pair_lat[pair]
            count = sum(c for _, c in rows[ordered_modes[0]])
            writer.writerow([pair[0], pair[1], count,
                             *(mean_ms(rows[m]) for m in ordered_modes)])
        totals = [
            _fmt_ms(reports[m].mean_latency_ms)
            if reports[m].mean_latency_ms is not None else ""
            for m in ordered_modes
        ]
        writer.writerow(["ALL", "ALL",
                         len(reports[ordered_modes[0]].order), *totals])
    return path

"""The replay loop without its step memo, and aggregation per switch.

``reference_replay`` computes every trace step; it is the reference that
the memoized ``switchsim.replay._replay`` is checked against. Each layer
is called from its own module, so a test that patches the names
``switchsim.replay`` looks up leaves this loop alone.
``reference_aggregate`` and ``reference_write_compare_csv`` walk every
switch, where ``switchsim.replay`` works per distinct record.
"""
from __future__ import annotations

import csv
import statistics
from pathlib import Path
from typing import Mapping, Sequence

from switchsim.block_store import CacheState, TierAssignment, load_to_gpu
from switchsim.errors import ReplayError, SwitchSimError
from switchsim.prefetch import block_usefulness, execute_prefetch, plan_prefetch
from switchsim.replay import ReplayReport, Scenario, _fmt_ms
from switchsim.sparsity import SelectionResult, jaccard
from switchsim.switching import DeployMode, SwitchReport, SwitchTable, execute_switch
from switchsim.transitions import TransitionModel, assign_tiers


def reference_replay(scenario: Scenario, mode: DeployMode,
                     selections: Mapping[str, SelectionResult],
                     model: TransitionModel,
                     steps: list[tuple[str, str, CacheState]] | None = None
                     ) -> ReplayReport:
    """Replay the trace one step at a time.

    When ``steps`` is given, the key of every step, (current task, next
    task, state before the step), is appended to it in trace order.
    """
    config = scenario.config
    manifest = scenario.manifest
    cost = scenario.cost
    n = manifest.num_blocks
    active = {tid: frozenset(range(n)) - r.skipped for tid, r in selections.items()}
    table = SwitchTable(manifest, cost, active)
    tiering: dict[str, tuple[TierAssignment, dict[int, float], frozenset[int]]] = {}
    state = CacheState(gpu_budget_bytes=config.gpu_budget_bytes,
                       cpu_budget_bytes=config.cpu_budget_bytes)
    switches: list[SwitchReport] = []
    trace = scenario.trace
    if trace:
        first = trace[0]
        try:
            state = load_to_gpu(manifest, state, table.target(mode, first))
        except SwitchSimError as exc:
            raise ReplayError(str(exc), position=0) from exc
        current = first
        for pos in range(1, len(trace)):
            task = trace[pos]
            if steps is not None:
                steps.append((current, task, state))
            try:
                if mode is DeployMode.FULL_METHOD:
                    if current not in tiering:
                        tiers = assign_tiers(current, active, model)
                        useful = block_usefulness(current, model, active)
                        tiering[current] = (tiers, useful, tiers.runtime | tiers.preload)
                    tiers, useful, protected = tiering[current]
                    plan = plan_prefetch(tiers, useful, state, manifest)
                    state, _staged, _moved = execute_prefetch(
                        plan, state, config.compute_window_ms, cost, manifest,
                        protected=protected, next_task_probs=useful,
                    )
                if task != current:
                    state, report = execute_switch(state, current, task, mode, table)
                    switches.append(report)
                    current = task
            except SwitchSimError as exc:
                raise ReplayError(str(exc), position=pos) from exc
    return reference_aggregate(mode, scenario, selections, switches)


def reference_aggregate(mode: DeployMode, scenario: Scenario,
                        selections: Mapping[str, SelectionResult],
                        switches: Sequence[SwitchReport]) -> ReplayReport:
    """Aggregate the switch list one switch at a time.

    ``records`` and ``order`` intern the switches by value in order of
    first occurrence.
    """
    ids = scenario.task_ids
    skips = {tid: selections[tid].skipped for tid in ids}
    matrix = tuple(
        tuple(jaccard(skips[a], skips[b]) for b in ids) for a in ids
    )
    index: dict[SwitchReport, int] = {}
    order = tuple(index.setdefault(s, len(index)) for s in switches)
    latencies = [s.latency_ms for s in switches]
    hits = sum(s.blocks_prestaged for s in switches)
    misses = sum(s.blocks_fetched for s in switches)
    return ReplayReport(
        mode=mode.value,
        task_ids=ids,
        selections=dict(selections),
        records=tuple(index),
        order=order,
        jaccard_matrix=matrix,
        mean_latency_ms=statistics.fmean(latencies) if latencies else None,
        median_latency_ms=statistics.median(latencies) if latencies else None,
        max_latency_ms=max(latencies) if latencies else None,
        total_bytes_disk_to_cpu=sum(s.bytes_disk_to_cpu for s in switches),
        total_bytes_cpu_to_gpu=sum(s.bytes_cpu_to_gpu for s in switches),
        mean_gpu_resident_bytes=(statistics.fmean(s.gpu_resident_bytes_after
                                                  for s in switches)
                                 if switches else None),
        prestage_hits=hits,
        prestage_misses=misses,
        prestage_hit_rate=hits / (hits + misses) if hits + misses else 1.0,
        config_echo=scenario.config.echo(),
    )


def reference_write_compare_csv(reports: Mapping[DeployMode, ReplayReport],
                                path: Path | str) -> Path:
    """compare.csv from per-pair latency lists of every switch."""
    path = Path(path)
    ordered_modes = list(DeployMode)
    pair_lat: dict[tuple[str, str], dict[DeployMode, list[float]]] = {}
    for mode in ordered_modes:
        for s in reports[mode].switches:
            pair = (s.from_task, s.to_task)
            rows = pair_lat.get(pair)
            if rows is None:
                rows = pair_lat[pair] = {m: [] for m in ordered_modes}
            rows[mode].append(s.latency_ms)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["from_task", "to_task", "count",
                         *(f"{m.value}_ms" for m in ordered_modes)])
        for pair in sorted(pair_lat):
            rows = pair_lat[pair]
            count = len(rows[ordered_modes[0]])
            writer.writerow([
                pair[0], pair[1], count,
                *(_fmt_ms(statistics.fmean(rows[m])) if rows[m] else ""
                  for m in ordered_modes),
            ])
        totals = [
            _fmt_ms(reports[m].mean_latency_ms)
            if reports[m].mean_latency_ms is not None else ""
            for m in ordered_modes
        ]
        writer.writerow(["ALL", "ALL",
                         len(reports[ordered_modes[0]].switches), *totals])
    return path

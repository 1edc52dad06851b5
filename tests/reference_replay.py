"""The replay loop without its step memo, and aggregation per switch.

``reference_replay`` computes every trace step; it is the reference that
the memoized replay of ``switchsim.replay.replay_scenario`` is checked
against, on the same skip sets and transition model. It plans
and stages with the per-call sort and the one-block-at-a-time loop of
``reference_cache``, and switches with ``reference.reference_switch``,
in every mode, so it shares no switch code with the replay. Tiering and
usefulness are called from their own modules, so a test that patches
the names ``switchsim.replay`` looks up leaves this loop alone.
``reference_aggregate``, ``reference_write_compare_csv`` and
``reference_write_switches`` walk every switch, where
``switchsim.replay`` works per distinct record.
``reference_write_small_reports`` writes summary.csv, jaccard.csv and
config.echo.json row by row through text-mode files, where
``switchsim.replay`` formats each in memory and writes its bytes once.
"""
from __future__ import annotations

import csv
import json
import statistics
from array import array
from collections import Counter
from pathlib import Path
from typing import Mapping, Sequence

from switchsim.block_store import CacheState
from switchsim.errors import ReplayError, SwitchSimError
from switchsim.prefetch import block_usefulness
from switchsim.replay import ReplayReport
from switchsim.reports import _fmt_ms
from switchsim.scenario import Scenario
from switchsim.sparsity import SelectionResult, jaccard
from switchsim.switching import DeployMode, SwitchReport
from switchsim.transitions import TierAssignment, TransitionModel, assign_tiers

from reference import reference_device_bytes, reference_switch
from reference_cache import reference_execute_prefetch, reference_plan_prefetch


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
    skipped = {tid: r.skipped for tid, r in selections.items()}
    active = {tid: frozenset(range(n)) - s for tid, s in skipped.items()}
    tiering: dict[str, tuple[TierAssignment, dict[int, float], frozenset[int]]] = {}
    gpu_budget, cpu_budget = config.gpu_budget_bytes, config.cpu_budget_bytes
    switches: list[SwitchReport] = []
    # The scenario's trace holds task indices; this loop reads the ids.
    trace = [scenario.task_ids[i] for i in scenario.trace]
    if trace:
        first = trace[0]
        try:
            target = manifest.all_blocks if mode is DeployMode.MONOLITHIC else active[first]
            reference_device_bytes(manifest, target, gpu_budget)
            state = CacheState(gpu_resident=target)
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
                    plan = reference_plan_prefetch(tiers, useful, state, manifest,
                                                   cpu_budget)
                    state, _staged, _moved = reference_execute_prefetch(
                        plan, state, config.compute_window_ms, cost, manifest, cpu_budget,
                        protected=protected, next_task_probs=useful,
                    )
                if task != current:
                    state, report = reference_switch(state, current, task, mode, skipped,
                                                     cost, manifest, gpu_budget)
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
    first occurrence; ``order`` is an ``array('I')``, as the replay's is.
    """
    ids = scenario.task_ids
    skips = {tid: selections[tid].skipped for tid in ids}
    matrix = tuple(
        tuple(jaccard(skips[a], skips[b]) for b in ids) for a in ids
    )
    index: dict[SwitchReport, int] = {}
    order = array("I", [index.setdefault(s, len(index)) for s in switches])
    latencies = [s.latency_ms for s in switches]
    hits = sum(s.blocks_prestaged for s in switches)
    misses = sum(s.blocks_fetched for s in switches)
    return ReplayReport(
        mode=mode.value,
        task_ids=ids,
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
        prestage_hit_rate=hits / (hits + misses) if hits + misses else 1.0,
        config_echo={**scenario.config.echo(), "mode": mode.value},
        counts=Counter(order),
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


def reference_switch_line(s: SwitchReport) -> str:
    """A switches.jsonl line: ``json.dumps`` of the record's fields, in
    order, with the latency rounded to 3 decimals."""
    doc = s._asdict()
    doc["latency_ms"] = round(s.latency_ms, 3)
    return json.dumps(doc) + "\n"


def reference_write_switches(report: ReplayReport, path: Path | str) -> Path:
    """switches.jsonl written one text line per switch."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for s in report.switches:
            fh.write(reference_switch_line(s))
    return path


def reference_write_small_reports(report: ReplayReport, out: Path) -> None:
    """summary.csv, jaccard.csv and config.echo.json under the directory
    ``out``, each written row by row to a text-mode file."""
    with open(out / "summary.csv", "w", encoding="utf-8", newline="") as fh:
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

    with open(out / "jaccard.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task_id", *report.task_ids])
        for tid, row in zip(report.task_ids, report.jaccard_matrix):
            writer.writerow([tid, *(f"{v:.6f}" for v in row)])

    with open(out / "config.echo.json", "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(report.config_echo, indent=2, sort_keys=True) + "\n")

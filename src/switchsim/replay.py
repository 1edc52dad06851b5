"""Trace replay and mode comparison.

:func:`replay_scenario` replays a loaded :class:`~switchsim.scenario.Scenario`'s
trace under each mode it is given, all on the same inputs, and returns one
:class:`ReplayReport` per mode; :func:`compare_modes` loads a config's
scenario and replays it under all four modes, and the ``replay`` command
runs the same pipeline for one mode. Unless given skip sets, it selects
once per alignment the modes need (only full_method aligns), and unless
given a transition model, it fits one, once; both happen before the first
replay, so a selection or fit error precedes any replay error. Every mode
checks each task's target against the device budget once
(``check_device``), where the device first holds it: position 0 for the
first task, the first switch into it for each other. The three host-free
modes (monolithic, sparse_no_split, split_only) never touch the host
cache, so each takes one report per distinct (from, to) pair from
``SwitchTable.report``. full_method steps its host cache through the
prefetch and switch layers, computes each distinct (current task, next
task, host order) step once, and checks the state each computed step
leaves. A failing pair or step raises a ``ReplayError`` at the trace
position where it first occurs. Every mean of a report is ``math.fsum`` of
every switch's value divided by the number of switches, taken as a
count-weighted exact sum over the distinct records (``errors.counted_fsum``).
"""
from __future__ import annotations

from array import array
from collections import Counter
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .block_store import CacheState, _new_tuple, check_device, check_host
from .errors import ConfigError, ReplayError, SwitchSimError, counted_fsum
from .prefetch import block_usefulness, execute_prefetch, plan_prefetch, rank_preload
from .scenario import Scenario, ScenarioConfig, load_scenario
from .sparsity import SelectionResult, build_all_tasks, jaccard
from .switching import DeployMode, SwitchReport, SwitchTable, execute_switch
from .transitions import TransitionModel, assign_tiers, fit_transition_model, index_typecode

__all__ = ["ReplayReport", "replay_scenario", "compare_modes"]


@dataclass(frozen=True)
class ReplayReport:
    """Aggregated outcome of replaying one trace under one mode.

    ``records`` holds each distinct switch once, in order of first
    occurrence; ``order`` lists the trace's switches as an unsigned
    ``array`` of indices into it, of the narrowest typecode they fit (one
    byte a switch up to 256 records), and ``counts`` maps each index to
    how often ``order`` holds it. ``counts`` follows from ``order``, so
    equality leaves it out; arrays of different typecodes compare by
    their items.
    """

    mode: str
    task_ids: tuple[str, ...]
    records: tuple[SwitchReport, ...]
    order: array
    jaccard_matrix: tuple[tuple[float, ...], ...]
    mean_latency_ms: float | None
    median_latency_ms: float | None
    max_latency_ms: float | None
    total_bytes_disk_to_cpu: int
    total_bytes_cpu_to_gpu: int
    mean_gpu_resident_bytes: float | None
    prestage_hit_rate: float
    config_echo: dict
    counts: Mapping[int, int] = field(compare=False, repr=False)

    @property
    def switches(self) -> tuple[SwitchReport, ...]:
        """Every switch of the trace, in trace order."""
        return tuple(map(self.records.__getitem__, self.order))


def _jaccard_matrix(ids: Sequence[str], selections: Mapping[str, SelectionResult]
                    ) -> tuple[tuple[float, ...], ...]:
    """Skip-set overlap between every two of ``ids``, in ``ids`` order.

    ``|a & b| / |a | b|`` is symmetric bit for bit and 1.0 for ``a == b``,
    so each off-diagonal cell is computed once and mirrored.
    """
    skips = [selections[tid].skipped for tid in ids]
    rows = [[1.0] * len(skips) for _ in skips]
    for i, a in enumerate(skips):
        for j in range(i + 1, len(skips)):
            rows[i][j] = rows[j][i] = jaccard(a, skips[j])
    return tuple(map(tuple, rows))


def _aggregate(mode: DeployMode, scenario: Scenario,
               matrix: tuple[tuple[float, ...], ...],
               records: tuple[SwitchReport, ...],
               order: Sequence[int],
               counts: Mapping[int, int] | None = None) -> ReplayReport:
    # Every total and mean sums count x value per distinct record. Integer
    # totals are exact, and ``counted_fsum(...) / n`` is the
    # ``fsum(...) / n`` that ``statistics.fmean`` computes for the expanded
    # list; ``fsum`` takes each int as its float, so the device sizes do
    # too. ``counts``, when given, is ``Counter(order)`` already taken.
    if counts is None:
        counts = Counter(order)

    def total(field: str) -> int:
        return sum(c * getattr(records[i], field) for i, c in counts.items())

    n = len(order)

    def mean(field: str) -> float | None:
        return counted_fsum((float(getattr(records[i], field)), c)
                            for i, c in counts.items()) / n if n else None

    latency = [r.latency_ms for r in records]
    hits = total("blocks_prestaged")
    misses = total("blocks_fetched")
    return ReplayReport(
        mode=mode.value,
        task_ids=scenario.task_ids,
        records=records,
        order=order,
        jaccard_matrix=matrix,
        mean_latency_ms=mean("latency_ms"),
        median_latency_ms=_median(latency, counts, n) if n else None,
        max_latency_ms=max(latency[i] for i in counts) if n else None,
        total_bytes_disk_to_cpu=total("bytes_disk_to_cpu"),
        total_bytes_cpu_to_gpu=total("bytes_cpu_to_gpu"),
        mean_gpu_resident_bytes=mean("gpu_resident_bytes_after"),
        prestage_hit_rate=hits / (hits + misses) if hits + misses else 1.0,
        config_echo={**scenario.config.echo(), "mode": mode.value},
        counts=counts,
    )


def _median(values: Sequence[float], counts: Mapping[int, int], n: int) -> float:
    """``statistics.median`` of the ``n`` values in which ``values[i]``
    occurs ``counts[i]`` times.

    Walks the distinct values in sorted order, weighted by their counts,
    so no list of ``n`` floats is built or sorted.
    """
    walk = sorted((values[i], c) for i, c in counts.items())
    # ends[j]: how many values are at most walk[j][0].
    ends = list(accumulate(c for _, c in walk))

    def kth(k: int) -> float:
        return walk[bisect_right(ends, k)][0]

    mid = n // 2
    return kth(mid) if n % 2 else (kth(mid - 1) + kth(mid)) / 2


def _first_position(trace: Sequence[int], pair: tuple[int, int]) -> int:
    """The trace position of the first switch from task index ``pair[0]``
    to ``pair[1]``."""
    return next(pos for pos in range(1, len(trace))
                if (trace[pos - 1], trace[pos]) == pair)


# A memo cell no step has been stored in: an empty mapping that refuses
# writes, so every cell of a new row can share it.
_NO_STEPS = MappingProxyType({})


def _replay(scenario: Scenario, mode: DeployMode,
            selections: Mapping[str, SelectionResult], model: TransitionModel,
            matrix: tuple[tuple[float, ...], ...]) -> ReplayReport:
    """Replay the trace under ``mode``; ``matrix`` is ``selections``'
    Jaccard matrix."""
    config = scenario.config
    manifest = scenario.manifest
    blocks = manifest.all_blocks
    active = {tid: blocks - r.skipped for tid, r in selections.items()}
    table = SwitchTable(manifest, scenario.cost, active)
    gpu_budget, cpu_budget = config.gpu_budget_bytes, config.cpu_budget_bytes
    trace = scenario.trace
    if not trace:
        return _aggregate(mode, scenario, matrix, (), array("B"))
    ids = scenario.task_ids
    first = trace[0]

    def arrive(task: int, switch: tuple[int, int] | None = None) -> None:
        # ``switch`` is the first switch into ``task``; None for the first task.
        # In full_method the computed step's own checks run first; both
        # raise at the switch's position.
        try:
            check_device(manifest, table.target(mode, ids[task]), gpu_budget)
        except SwitchSimError as exc:
            pos = 0 if switch is None else _first_position(trace, switch)
            raise ReplayError(str(exc), position=pos) from exc

    # Initial load of the first task; not counted as a switch.
    arrive(first)
    if mode is not DeployMode.FULL_METHOD:
        # Nothing stages, so the host stays empty and a switch depends on its
        # (from, to) pair alone: each distinct pair's report comes from the
        # table, in order of first occurrence, and the trace's index array
        # is shared.
        pairs, order = scenario.switch_pairs
        checked = {first}
        reports = []
        for pair in pairs:
            current, task = pair
            try:
                reports.append(table.report(mode, ids[current], ids[task]))
            except SwitchSimError as exc:
                raise ReplayError(str(exc), _first_position(trace, pair)) from exc
            if task not in checked:
                arrive(task, pair)
                checked.add(task)
        return _aggregate(mode, scenario, matrix, tuple(reports), order,
                          scenario.switch_counts)

    # Running task's index -> (device target, ranked pre-load tier, protected
    # set), what its computed steps read; built the first time it runs one.
    contexts: list[tuple | None] = [None] * len(ids)

    def context(task: str) -> tuple[frozenset[int], tuple[int, ...], frozenset[int]]:
        tiers = assign_tiers(task, active, model)
        useful = block_usefulness(task, model, active)
        protected = tiers.runtime | tiers.preload
        # Eviction reads recency alone, which is exact only while every
        # useful block is protected.
        if not useful.keys() <= protected:
            raise SwitchSimError(f"usefulness for task {task!r} weights blocks "
                                 "outside its runtime and pre-load tiers")
        return table.target(mode, task), rank_preload(tiers, useful), protected

    # Distinct switch record -> its index in the report's ``records``.
    records: dict[SwitchReport, int] = {}
    # One byte a switch until a record index reaches ``limit``, so a long
    # trace's order stays small; then the order is widened to the next
    # typecode.
    order = array("B")
    append, limit = order.append, 1 << 8
    # The layers take and return tuples; the memo keys each host order as
    # ``bytes``, one byte a block, when every block id fits in one: a
    # 12-block order is then a 45-byte object that caches its hash, where a
    # tuple of 12 ints takes 136 B.
    pack = bytes if manifest.num_blocks <= 256 else tuple
    current, lru = first, pack()
    # A step is a pure function of (current task, next task, cpu_lru): the
    # layers read nothing else that changes within a replay, and every
    # state stepped from holds the current task's checked target. So each
    # distinct step is computed once, and one that raises stores nothing.
    # [current task][next task] -> cpu_lru -> record index or -1, paired
    # with the next cpu_lru when the step replaced it, indexed by task
    # index. A running task's row is made on its first switch in, and a
    # pair's dict on its first computed step; ``row`` is the current
    # task's, so a step builds no key tuple.
    steps: list[list[Mapping] | None] = [None] * len(ids)
    row = steps[current] = [_NO_STEPS] * len(ids)
    window, disk_ms = config.compute_window_ms, table.disk_ms
    for pos in range(1, len(trace)):
        task = trace[pos]
        memo = row[task]
        step = memo.get(lru)
        if step is None:
            report = None
            current_id, task_id = ids[current], ids[task]
            try:
                ctx = contexts[current]
                if ctx is None:
                    ctx = contexts[current] = context(current_id)
                target, ranked, protected = ctx
                # The key itself when it is a tuple.
                host = tuple(lru)
                state = _new_tuple(CacheState, (target, host))
                plan = plan_prefetch(ranked, protected, state, manifest, cpu_budget)
                after, staged, _moved = execute_prefetch(plan, state, window, disk_ms,
                                                         manifest, cpu_budget, protected)
                next_lru = after.cpu_lru
                if task != current:
                    after, report = execute_switch(after, current_id, task_id, table)
                    # A switch moves blocks through the host without
                    # changing it.
                    if after.cpu_lru is not next_lru:
                        raise SwitchSimError("switch changed the host cache")
                # Invariants of every computed step; a memo hit repeats a
                # checked one. ``host`` was checked, so it needs no second
                # check when the step left it in place.
                device, target = after.gpu_resident, table.target(mode, task_id)
                if device is not target and device != target:
                    raise SwitchSimError("device does not hold the running task's blocks")
                if next_lru is not host:
                    check_host(manifest, next_lru, cpu_budget)
                if next_lru[len(next_lru) - len(staged):] != staged:
                    raise SwitchSimError("staged blocks are not the host's newest, "
                                         "in plan order")
            except SwitchSimError as exc:
                raise ReplayError(str(exc), position=pos) from exc
            if report is None:
                step = -1
            else:
                step = records.setdefault(report, len(records))
                if step == limit:
                    order = array(index_typecode(step + 1), order)
                    append, limit = order.append, 1 << 8 * order.itemsize
            if next_lru is not host:
                step = (pack(next_lru), step)
            if memo is _NO_STEPS:
                memo = row[task] = {}
            memo[lru] = step
        if type(step) is tuple:
            lru, step = step
        if step >= 0:
            append(step)
            row = steps[task]
            if row is None:
                arrive(task, (current, task))
                row = steps[task] = [_NO_STEPS] * len(ids)
            current = task
    return _aggregate(mode, scenario, matrix, tuple(records), order)


def replay_scenario(scenario: Scenario, modes: Iterable[DeployMode] = DeployMode,
                    selections: Mapping[str, SelectionResult] | None = None,
                    model: TransitionModel | None = None
                    ) -> dict[DeployMode, ReplayReport]:
    """Replay the scenario's trace under each of ``modes``, in their order.

    Unless ``selections`` is given, each alignment the modes need is
    selected once, the independent one first: only full_method aligns.
    Unless ``model`` is given, the transition model is fitted once. Each
    selection's Jaccard matrix is built once, and all of this happens
    before the first replay.

    Before any of it, a mode that is not a :class:`DeployMode` is refused,
    as are given selections that leave out a scenario task or skip a block
    the manifest lacks. A given skip set is not checked for feasibility
    (budget, ``max_remove``), so a caller may inject one on purpose.
    """
    modes = tuple(modes)
    for mode in modes:
        if not isinstance(mode, DeployMode):
            raise ConfigError(f"mode must be a DeployMode, got {mode!r}")
    ids = scenario.task_ids
    if selections is None:
        inputs = {}
        for align in sorted({mode is DeployMode.FULL_METHOD for mode in modes}):
            chosen = build_all_tasks(scenario.tasks, scenario.oracles, align=align)
            inputs[align] = chosen, _jaccard_matrix(ids, chosen)
    else:
        blocks = scenario.manifest.all_blocks
        for tid in ids:
            if tid not in selections:
                raise ConfigError(f"the given selections leave out task {tid!r}")
            stray = selections[tid].skipped - blocks
            if stray:
                raise ConfigError(
                    f"task {tid!r} skips block(s) {', '.join(sorted(map(repr, stray)))}, "
                    f"which the manifest's {len(blocks)} blocks lack")
        inputs = dict.fromkeys((False, True), (selections, _jaccard_matrix(ids, selections)))
    if model is None:
        # Each task's own id string, so the fit hashes one object per task.
        model = fit_transition_model([ids[i] for i in scenario.log], k=scenario.config.k)
    reports = {}
    for mode in modes:
        chosen, matrix = inputs[mode is DeployMode.FULL_METHOD]
        reports[mode] = _replay(scenario, mode, chosen, model, matrix)
    return reports


def compare_modes(config: ScenarioConfig) -> dict[DeployMode, ReplayReport]:
    """Load the scenario and replay it under all four modes."""
    return replay_scenario(load_scenario(config))

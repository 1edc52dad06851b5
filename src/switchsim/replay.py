"""Scenario loading, trace replay, mode comparison, and report emission.

:func:`replay_scenario` is the one replay entry point. It replays a
loaded :class:`Scenario`'s trace under each mode it is given, all on the
same inputs. Unless it is given skip sets, it selects once per alignment
the modes need, the independent selection first; only full_method
aligns. Unless it is given a transition model, it fits one, once. It
builds each selection's Jaccard matrix once, and it selects and fits
before the first replay, so a selection or fit error precedes any replay
error. :func:`compare_modes` loads a config's scenario and replays it
under all four modes; the ``replay`` command runs the same pipeline for
one mode, so its reports are that mode's in a compare.

A scenario bundles a manifest, task specs, an oracle source, a transition
log, a trace to replay, a cost model, and budgets. Each change of task in
the trace executes a switch, and in full_method each step also grants a
prefetch window. All randomness is seeded through the config, so
identical configs produce byte-identical reports. Loading maps every log
and trace entry to its task's index in ``Scenario.tasks`` in the pass
that reads it (``transitions.load_task_indices``), into an unsigned
``array`` of the narrowest typecode for the number of tasks: one byte an
entry for up to 256 tasks. An unknown trace id, then an unknown log id,
fails at its position. Loading also refuses block sizes and costs whose
totals over the trace would overflow a float.

Only full_method stages blocks ahead of a switch, and only its replay
keeps cache state. The three other modes (monolithic, sparse_no_split,
split_only) never touch the host cache, so each of their switches depends
on its (from, to) task pair alone. Each takes one report per distinct
pair of ``Scenario.switch_pairs`` (``from != to``, in order of first
occurrence) from ``SwitchTable.report``, and checks each task's device
target (known blocks, the config's device budget) once: the first task's
at position 0, and each other's at the first position of the first pair
that switches into it. All three share the pairs' index array as their
``order``, of the narrowest typecode for ``n * (n - 1)`` pairs of ``n``
tasks. A failing pair raises at its first trace position.

full_method's replay is a memoized state machine. Within one replay a
step is a pure function of (current task, next task,
:class:`CacheState`): the prefetch plan, staging, eviction and switch
read nothing else, and everything else they read (manifest, cost model,
active sets, transition model, window) is fixed for the replay. The
host cache is its recency order ``cpu_lru`` alone, and (current task,
next task, ``cpu_lru``) fixes the whole :class:`CacheState`, which is
residency alone, because every state the replay steps from has been
checked: the device holds ``table.target(mode, current)``. The budgets
are the config's, passed to the layers that need one.
The layers take and return host orders as tuples; the replay alone packs
the orders it keeps, each memo key and each next order, into ``bytes``,
one byte a block (which caches its hash), when the manifest has at most
256 blocks, so every block id fits in a byte, and keeps them as tuples
otherwise. The replay computes each distinct step once, from a state
built from its memo key alone (the key as a tuple), checks the state the
step leaves, and stores its record index or -1, paired with the packed
next ``cpu_lru`` only when the step replaced it. The memo is a list of
rows per running task's index, each a list of ``cpu_lru`` dicts per next
task's index, so a step looks up no id; ids are read only on a miss.
Each running task's device target, ranked pre-load tier and protected
set are built once, the first time it runs a computed step. A step that
raises stores nothing, so an error surfaces at the trace position where
its state first occurs.

Each computed step checks the state it leaves. The device must equal the
running task's target. A switch moves blocks through the host without
changing it, so the order a switch returns must be the very object the
prefetch left. The prefix the prefetch staged must be the newest part of
the order it left, in plan order. ``check_host`` runs only when the step
replaced ``cpu_lru``, since an order left in place is its input's, which
was checked. ``check_device`` is a pure function of the task's target
and the config's device budget, so it runs once per task; no layer
checks the device budget.

full_method's eviction reads recency alone. That is exact because every
block that next-task usefulness weights lies in the running task's
runtime or pre-load tier, which the replay protects; the replay checks
this once per running task.

A :class:`ReplayReport` holds each distinct switch record once, in order
of first occurrence, plus the trace's switches as an unsigned ``array``
of indices into them, of the narrowest typecode the indices fit: one
byte a switch for up to 256 records. full_method's order is an
``array('B')`` until its 257th distinct record, then an ``array('H')``,
and an ``array('I')`` from its 65,537th. Aggregation and
``write_compare_csv`` work per distinct record, weighted by its count.
Every mean is a count-weighted exact sum (``errors.counted_fsum``),
which is the float ``math.fsum`` of every switch's value gives, divided
by the number of switches.

Every report file is opened once, in binary mode, and gets the UTF-8
bytes the standard writers give: ``csv.writer(lineterminator="\\n")``
for the CSVs and ``json.dumps`` for ``config.echo.json`` and each
``switches.jsonl`` line. ``switches.jsonl`` is written in batches of at
most ``_WRITE_BYTES`` (or of one longer line), one write per batch, so
memory is bounded by a batch; every other file takes one write.
"""
from __future__ import annotations

import json
import math
from array import array
from collections import Counter
from bisect import bisect_right
from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import accumulate, compress, islice
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter, ne
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .block_store import CacheState, ModelManifest, _new_tuple, check_device, check_host
from .errors import (ConfigError, LogParseError, ReplayError, SwitchSimError, as_float,
                     check_keys, counted_fsum, exact_int, write_text)
from .prefetch import block_usefulness, execute_prefetch, plan_prefetch, rank_preload
from .sparsity import (MetricOracle, SelectionResult, TaskSpec, build_all_tasks,
                       jaccard, load_table_oracles, load_task_specs)
from .switching import CostModel, DeployMode, SwitchReport, SwitchTable, execute_switch
from .synthetic import gen_instance
from .transitions import (TransitionModel, assign_tiers, fit_transition_model,
                          index_typecode, load_task_indices)

__all__ = ["PATH_KEYS", "INT_KEYS", "FLOAT_KEYS", "ScenarioConfig", "ReplayReport",
           "build_oracles", "load_scenario", "replay_scenario", "compare_modes",
           "emit_reports", "write_compare_csv"]

# The scenario config's keys, grouped by how a key's value is parsed. Each
# is a field of :class:`ScenarioConfig`, as are ``oracle`` and ``mode``.
PATH_KEYS = ("manifest", "tasks", "log", "trace", "cost_model")
INT_KEYS = ("gpu_budget_bytes", "cpu_budget_bytes", "k")
FLOAT_KEYS = ("compute_window_ms",)


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything one replay needs, as resolved file paths and parameters.

    Each field is the scenario config key of the same name, so the fields
    fix which keys a config may have, and :meth:`echo` writes them back.
    """

    manifest: Path
    tasks: Path
    oracle: Mapping
    log: Path
    trace: Path
    cost_model: Path
    gpu_budget_bytes: int
    cpu_budget_bytes: int
    mode: DeployMode | None = None
    k: int = 2
    compute_window_ms: float = 0.0

    def __post_init__(self):
        # A bool is an int to Python, and a float count fails late, in the
        # fit or the budget checks, or runs and echoes a float.
        for key in INT_KEYS:
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"{key} must be an integer, got {value!r}")
        window = self.compute_window_ms
        if isinstance(window, bool) or not isinstance(window, (int, float)):
            raise ConfigError(f"compute_window_ms must be a number, got {window!r}")
        if not (math.isfinite(window) and window >= 0):
            raise ConfigError(f"compute_window_ms must be finite and >= 0, got {window}")
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        # A mode string would select independently, then fail in the table.
        if self.mode is not None and not isinstance(self.mode, DeployMode):
            raise ConfigError(f"mode must be a DeployMode or None, got {self.mode!r}")

    @classmethod
    def from_dict(cls, doc: Mapping, base_dir: Path | str = ".") -> "ScenarioConfig":
        check_keys(doc, frozenset(f.name for f in fields(cls)), "scenario config")
        base = Path(base_dir)
        oracle = doc.get("oracle", {})
        if not isinstance(oracle, dict):
            raise ConfigError(f"oracle must be a JSON object, not {type(oracle).__name__}")
        values = {"oracle": dict(oracle)}
        try:
            # A table's path is relative to the config's directory too; one
            # that is not a string is left for ``build_oracles`` to refuse.
            if isinstance(oracle.get("path"), str):
                values["oracle"]["path"] = str((base / oracle["path"]).resolve())
            for key in PATH_KEYS:
                if key not in doc:
                    raise ConfigError(f"config is missing {key!r}")
                values[key] = (base / doc[key]).resolve()
            # An absent key takes its field's default, and an absent key
            # without one fails the constructor, which names it.
            values.update({key: exact_int(doc[key]) for key in INT_KEYS if key in doc})
            values.update({key: as_float(doc[key]) for key in FLOAT_KEYS if key in doc})
            if doc.get("mode") is not None:
                values["mode"] = DeployMode(doc["mode"])
            return cls(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad scenario config: {exc}") from exc

    def echo(self) -> dict:
        """The config as the JSON object of its keys, which
        :meth:`from_dict` reads back to an equal config."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update({key: str(doc[key]) for key in PATH_KEYS})
        doc["oracle"] = dict(self.oracle)
        doc["mode"] = self.mode.value if self.mode is not None else None
        return doc


class _FirstSeen(dict):
    """Maps each key to the number of distinct keys looked up before it."""

    def __missing__(self, key):
        self[key] = value = len(self)
        return value


@dataclass(frozen=True)
class Scenario:
    """A config with every referenced artifact loaded and validated.

    ``log`` and ``trace`` hold each entry's task as its index in
    ``tasks``, as ``load_task_indices`` reads them: each an unsigned
    ``array`` of ``index_typecode(len(tasks))``.
    """

    config: ScenarioConfig
    manifest: ModelManifest
    tasks: tuple[TaskSpec, ...]
    oracles: Mapping[str, MetricOracle]
    log: Sequence[int]
    trace: Sequence[int]
    cost: CostModel

    # Computed on first use and kept in the instance dict, which a frozen
    # dataclass without slots still has.
    @cached_property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(t.task_id for t in self.tasks)

    @cached_property
    def switch_pairs(self) -> tuple[tuple[tuple[int, int], ...], array]:
        """The trace's distinct (from, to) task-index pairs with ``from !=
        to``, in order of first occurrence, and its switches as an ``array``
        of indices into them, of the narrowest typecode for every ordered
        pair of distinct tasks."""
        trace = self.trace
        moves = compress(zip(trace, islice(trace, 1, None)),
                         map(ne, trace, islice(trace, 1, None)))
        # One pass in C; only a pair's first occurrence calls back into Python.
        # One-byte indices are filled through ``bytes``, which takes ints in
        # C where ``array('B')`` parses each one.
        index = _FirstSeen()
        indices = map(index.__getitem__, moves)
        n = len(self.tasks)
        typecode = index_typecode(n * (n - 1))
        order = array(typecode, bytes(indices) if typecode == "B" else indices)
        return tuple(index), order

    @cached_property
    def switch_counts(self) -> Counter[int]:
        """How often the trace makes each switch of ``switch_pairs``: one
        count of the index array, which the host-free modes share."""
        return Counter(self.switch_pairs[1])


def build_oracles(spec: Mapping, num_blocks: int, tasks: Sequence[TaskSpec]
                  ) -> dict[str, MetricOracle]:
    """Each task's oracle from a ``synthetic`` or ``table`` oracle spec; a
    relative table path is read from the working directory."""
    kind = spec.get("kind")
    if kind == "synthetic":
        check_keys(spec, frozenset({"kind", "seed", "correlation"}), "synthetic oracle spec")
        if "seed" not in spec:
            raise ConfigError("synthetic oracles require a seed")
        try:
            instance = gen_instance(
                seed=exact_int(spec["seed"]),
                num_blocks=num_blocks,
                num_tasks=len(tasks),
                correlation=as_float(spec.get("correlation", 0.7)),
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad synthetic oracle: {exc}") from exc
        return {t.task_id: instance.oracle(i) for i, t in enumerate(tasks)}
    if kind == "table":
        check_keys(spec, frozenset({"kind", "path"}), "table oracle spec")
        path = spec.get("path")
        if not isinstance(path, str):
            raise ConfigError("table oracles require a path string")
        return load_table_oracles(Path(path), tasks, num_blocks)
    raise ConfigError(f"unknown oracle kind {kind!r}")


def _lookup(mapping: Mapping, keys: Sequence) -> tuple:
    """``tuple(mapping[k] for k in keys)``, the lookups done in C by one
    ``operator.itemgetter`` call; a missing key raises ``KeyError``.

    ``itemgetter`` cannot be built without a key and returns a bare item
    for one key, so fewer than two keys are looked up in Python. Any
    sequence of keys, an ``array`` of indices included, is unpacked into
    the ``itemgetter`` call.
    """
    if len(keys) < 2:
        return tuple([mapping[k] for k in keys])
    return itemgetter(*keys)(mapping)


def _check_finite_costs(manifest: ModelManifest, cost: CostModel, switches: int) -> None:
    """Refuse block sizes and costs whose sums overflow a float.

    Every switch moves a subset of the whole model, so the model's bytes
    bound each byte count, and a whole-model reload (the reinitialization
    plus every block's disk and device milliseconds) bounds each latency.
    A total or mean over the trace sums at most ``switches`` of them, so
    both bounds times ``switches`` being finite floats keeps every float a
    replay computes finite.
    """
    sizes = manifest.block_sizes
    try:
        nbytes = float(sum(sizes)) * switches
    except OverflowError:
        nbytes = math.inf
    if not math.isfinite(nbytes):
        raise ConfigError(f"the model's bytes over the trace's {switches} switches "
                          "are too many for a float")
    try:
        reload_ms = (cost.monolithic_init_ms + math.fsum(map(cost.disk_ms, sizes))
                     + math.fsum(map(cost.gpu_ms, sizes))) * switches
    except OverflowError:
        reload_ms = math.inf
    if not math.isfinite(reload_ms):
        raise ConfigError(f"whole-model reloads over the trace's {switches} switches "
                          "take more milliseconds than a float holds")


def load_scenario(config: ScenarioConfig) -> Scenario:
    manifest = ModelManifest.load(config.manifest)
    tasks = tuple(load_task_specs(config.tasks))
    cost = CostModel.load(config.cost_model)
    # Each log and trace entry is its task's index; unknown ids are refused
    # below, after the checks that precede them.
    ids = [t.task_id for t in tasks]
    log, unknown_log = load_task_indices(config.log, ids)
    trace, unknown = load_task_indices(config.trace, ids)
    largest = max(manifest.block_sizes)
    if config.gpu_budget_bytes < largest or config.cpu_budget_bytes < largest:
        raise ConfigError(
            f"budgets must admit the largest block ({largest} bytes)")
    _check_finite_costs(manifest, cost, max(1, len(trace) - 1))
    oracles = build_oracles(config.oracle, manifest.num_blocks, tasks)
    if unknown is not None:
        pos, task = unknown
        raise ReplayError(f"trace task {task!r} is not a scenario task", position=pos)
    if unknown_log is not None:
        pos, task = unknown_log
        raise LogParseError(f"unknown task id {task!r}", position=pos)
    return Scenario(config=config, manifest=manifest, tasks=tasks, oracles=oracles,
                    log=log, trace=trace, cost=cost)


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
    Jaccard matrix. The host-free modes take each distinct pair's report
    from the table; only full_method steps a :class:`CacheState`."""
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

    if mode is not DeployMode.FULL_METHOD:
        # Nothing stages, so the host stays empty and a switch depends on its
        # (from, to) pair alone: each distinct pair's report comes from the
        # table, in order of first occurrence, and the trace's index array
        # is shared. Each task's device target is checked once, where the
        # device first holds it.
        pairs, order = scenario.switch_pairs
        try:
            check_device(manifest, table.target(mode, ids[first]), gpu_budget)
        except SwitchSimError as exc:
            raise ReplayError(str(exc), position=0) from exc
        checked = {first}
        reports = []
        for pair in pairs:
            current, task = pair
            try:
                reports.append(table.report(mode, ids[current], ids[task]))
                if task not in checked:
                    check_device(manifest, table.target(mode, ids[task]), gpu_budget)
                    checked.add(task)
            except SwitchSimError as exc:
                raise ReplayError(str(exc), _first_position(trace, pair)) from exc
        return _aggregate(mode, scenario, matrix, tuple(reports), order,
                          scenario.switch_counts)

    # Tasks whose target passed ``check_device`` under the config's device
    # budget; the check is a pure function of the two.
    devices_checked: set[str] = set()

    def check(state: CacheState, task: str, host_checked: bool) -> None:
        # The device and ``cpu_lru`` are the whole state. ``check_host`` is
        # a pure function of ``cpu_lru`` and the cpu budget, so
        # ``host_checked`` skips it for an order that already passed it;
        # the device is compared on every call.
        target = table.target(mode, task)
        device = state.gpu_resident
        if device is not target and device != target:
            raise SwitchSimError("device does not hold the running task's blocks")
        if task not in devices_checked:
            check_device(manifest, device, gpu_budget)
            devices_checked.add(task)
        if not host_checked:
            check_host(manifest, state.cpu_lru, cpu_budget)

    try:
        # Initial load of the first task; not counted as a switch.
        state = CacheState(table.target(mode, ids[first]))
        check(state, ids[first], False)
    except SwitchSimError as exc:
        raise ReplayError(str(exc), position=0) from exc

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
    # One byte a switch until a record index reaches ``limit``; then the
    # order is widened to the next typecode.
    order = array("B")
    append, limit = order.append, 1 << 8
    # The layers take and return tuples; the memo keys each host order as
    # ``bytes``, one byte a block, when every block id fits in one.
    pack = bytes if manifest.num_blocks <= 256 else tuple
    current, lru = first, pack()
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
                check(after, task_id, next_lru is host)
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
            current = task
            row = steps[task]
            if row is None:
                row = steps[task] = [_NO_STEPS] * len(ids)
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
        model = fit_transition_model(_lookup(ids, scenario.log), k=scenario.config.k)
    reports = {}
    for mode in modes:
        chosen, matrix = inputs[mode is DeployMode.FULL_METHOD]
        reports[mode] = _replay(scenario, mode, chosen, model, matrix)
    return reports


def compare_modes(config: ScenarioConfig) -> dict[DeployMode, ReplayReport]:
    """Load the scenario and replay it under all four modes."""
    return replay_scenario(load_scenario(config))


# The most bytes of switches.jsonl lines joined per write, unless one line
# is longer.
_WRITE_BYTES = 32 * 1024

# One switches.jsonl line: a record's fields in order, as ``json.dumps``
# writes the record's dict (``", "`` and ``": "`` separators).
_SWITCH_LINE = "{{" + ", ".join(f'"{name}": {{}}' for name in SwitchReport._fields) + "}}\n"


def _json_float(value: float) -> str:
    """``value`` as ``json.dumps`` writes a float."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _switch_line(r: SwitchReport) -> bytes:
    """The record's switches.jsonl line: the bytes of ``json.dumps`` of its
    fields, in order, with the latency rounded to 3 decimals, and a line
    break. Strings are escaped to ASCII, so the text is its UTF-8 bytes."""
    return _SWITCH_LINE.format(
        _json_str(r.from_task), _json_str(r.to_task), _json_str(r.mode),
        _json_float(round(r.latency_ms, 3)), *map(int.__repr__, r[4:])).encode()


def _fmt_ms(value: float) -> str:
    return f"{value:.3f}"


def _csv_field(value: object) -> str:
    text = str(value)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def _csv_text(rows: Iterable[Sequence[object]]) -> str:
    r"""The rows as ``csv.writer(lineterminator="\n")`` writes them.

    Fields are strings, ints and floats, as ``str`` gives them. A field
    with a quote, a comma or a line break is quoted and its quotes doubled,
    and a row of one empty field is ``""``. A ``\r`` is quoted as CPython
    3.13's writer quotes it (3.10-3.12 leave it bare); no task id holds
    one. The C writer allocates a 32,768-character buffer (128 KiB) on its
    first row, where a report's rows need a few hundred bytes.
    """
    lines = []
    for row in rows:
        line = ",".join(map(_csv_field, row))
        lines.append(line if line or len(row) != 1 else '""')
    lines.append("")
    return "\n".join(lines)


def emit_reports(report: ReplayReport, out_dir: Path | str) -> list[Path]:
    """Write switches.jsonl, summary.csv, jaccard.csv, and config.echo.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    switches_path = out / "switches.jsonl"
    # One encoded line per distinct record, joined in batches of at most
    # ``_WRITE_BYTES`` (or of one longer line): one write per batch, and
    # memory bounded by a batch, not by the file.
    lines = [_switch_line(r) for r in report.records]
    order = report.order
    per_write = max(1, _WRITE_BYTES // max(map(len, lines), default=1))
    with open(switches_path, "wb") as fh:
        for start in range(0, len(order), per_write):
            fh.write(b"".join(_lookup(lines, order[start:start + per_write])))

    summary: list[list[object]] = [["metric", "value"], ["mode", report.mode],
                                   ["num_switches", len(report.order)]]
    if report.order:
        summary += [["mean_latency_ms", _fmt_ms(report.mean_latency_ms)],
                    ["median_latency_ms", _fmt_ms(report.median_latency_ms)],
                    ["max_latency_ms", _fmt_ms(report.max_latency_ms)],
                    ["mean_gpu_resident_bytes", _fmt_ms(report.mean_gpu_resident_bytes)]]
    summary += [["total_bytes_disk_to_cpu", report.total_bytes_disk_to_cpu],
                ["total_bytes_cpu_to_gpu", report.total_bytes_cpu_to_gpu],
                ["prestage_hit_rate", f"{report.prestage_hit_rate:.6f}"]]
    summary_path = out / "summary.csv"
    write_text(summary_path, _csv_text(summary))

    jaccard = [["task_id", *report.task_ids]]
    jaccard += ([tid, *(f"{v:.6f}" for v in row)]
                for tid, row in zip(report.task_ids, report.jaccard_matrix))
    jaccard_path = out / "jaccard.csv"
    write_text(jaccard_path, _csv_text(jaccard))

    echo_path = out / "config.echo.json"
    write_text(echo_path, json.dumps(report.config_echo, indent=2, sort_keys=True) + "\n")
    return [switches_path, summary_path, jaccard_path, echo_path]


def write_compare_csv(reports: Mapping[DeployMode, ReplayReport],
                      path: Path | str) -> Path:
    """Side-by-side per-pair mean latency across the four modes."""
    path = Path(path)
    ordered_modes = list(DeployMode)
    # (from, to) -> mode -> [(latency, number of switches)] per distinct record.
    pair_lat: dict[tuple[str, str], dict[DeployMode, list[tuple[float, int]]]] = {}
    for mode in ordered_modes:
        report = reports[mode]
        for i, count in report.counts.items():
            s = report.records[i]
            pair = (s.from_task, s.to_task)
            rows = pair_lat.get(pair)
            if rows is None:
                rows = pair_lat[pair] = {m: [] for m in ordered_modes}
            rows[mode].append((s.latency_ms, count))

    def mean_ms(rows: list[tuple[float, int]]) -> str:
        # The exact sum is the per-switch fmean's fsum, in any order.
        n = sum(count for _, count in rows)
        return _fmt_ms(counted_fsum(rows) / n) if n else ""

    table: list[list[object]] = [["from_task", "to_task", "count",
                                  *(f"{m.value}_ms" for m in ordered_modes)]]
    for pair in sorted(pair_lat):
        rows = pair_lat[pair]
        count = sum(c for _, c in rows[ordered_modes[0]])
        table.append([pair[0], pair[1], count,
                      *(mean_ms(rows[m]) for m in ordered_modes)])
    totals = [
        _fmt_ms(reports[m].mean_latency_ms)
        if reports[m].mean_latency_ms is not None else ""
        for m in ordered_modes
    ]
    table.append(["ALL", "ALL", len(reports[ordered_modes[0]].order), *totals])
    write_text(path, _csv_text(table))
    return path

"""Scenario configs and loading: the files a config names, read, checked
and bundled.

A :class:`ScenarioConfig` names a manifest, task specs, an oracle spec, a
transition log, a trace to replay, a cost model and budgets, and refuses a
malformed value when it is built. :func:`load_scenario` reads every file
it names into a :class:`Scenario`, mapping each log and trace entry to its
task's index in ``Scenario.tasks``. Past each file's own checks, it refuses
budgets that do not admit the largest block, then block sizes and costs
whose totals over the trace would overflow a float, then a bad oracle
spec, then an unknown trace id, at its trace position, and last an
unknown log id, at its log position. All randomness is seeded through
the config, so identical configs load identical scenarios.
"""
from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from itertools import compress, islice
from operator import ne
from pathlib import Path
from typing import Mapping, Sequence

from .block_store import ModelManifest
from .errors import ConfigError, LogParseError, ReplayError, as_float, check_keys, exact_int
from .sparsity import MetricOracle, TaskSpec, load_table_oracles, load_task_specs
from .switching import CostModel, DeployMode
from .synthetic import gen_instance
from .transitions import index_typecode, load_task_indices

__all__ = ["PATH_KEYS", "INT_KEYS", "FLOAT_KEYS", "ScenarioConfig", "build_oracles",
           "load_scenario"]

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
                if not isinstance(doc[key], str):
                    raise ConfigError(f"{key} must be a path string, got {doc[key]!r}")
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
    # Each log and trace entry is its task's index, in the narrowest
    # unsigned typecode for the task count, one byte an entry up to 256
    # tasks, so a long trace costs a byte a step; unknown ids are refused
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

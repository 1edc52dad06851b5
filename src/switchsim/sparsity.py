"""Metric-constrained greedy skip-set selection and cross-task alignment.

Each task drops blocks one at a time: a removal is feasible while the
task's score stays at or above ``retention_ratio`` times the full-model
score. Alignment biases later tasks toward blocks already skipped by
earlier ones (the shared pool) so that active sets overlap and task
switches move fewer bytes.

Each step asks the selection's :class:`RemovalRanking` for the active
blocks ranked best score first, and the pool's share of that order. A
ranking lives for one selection and names only the blocks still active.
The additive oracle's ranking orders the blocks by weight once per
selection, drops each block as it is removed, and scores a removal from
one exact running sum of the active weights, which gives the same float
as :meth:`AdditiveOracle.score`. So a step does O(1) Python work plus a
walk of the ranking's equal-score prefix. ``oracle_calls`` counts
logical evaluations (the full-model score plus one per candidate per
step), not the calls made to ``score``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (EXACT_SCALE, ConfigError, OracleError, as_float, check_keys,
                     exact_int, exact_units, read_json)

__all__ = [
    "TaskSpec",
    "MetricOracle",
    "RemovalRanking",
    "AdditiveOracle",
    "TableOracle",
    "SelectionResult",
    "select_skip_set",
    "build_all_tasks",
    "jaccard",
    "selection_report",
    "load_table_oracles",
    "load_task_specs",
]


@dataclass(frozen=True)
class TaskSpec:
    """Per-task selection knobs.

    ``retention_ratio`` is the fraction of the full-model score that must
    be retained; ``max_remove`` caps the number of skipped blocks;
    ``priority_weight`` orders tasks for multi-task processing (higher
    first).
    """

    task_id: str
    retention_ratio: float
    max_remove: int
    priority_weight: float = 1.0

    def __post_init__(self):
        # Trace lines are strings, so no other id could ever run.
        if not isinstance(self.task_id, str):
            raise ConfigError(f"task_id must be a string, got {self.task_id!r}")
        # A trace line is stripped and split on commas (``load_task_log``),
        # so no line could name an id like these.
        if (not self.task_id or self.task_id != self.task_id.strip()
                or any(c in self.task_id for c in ",\n\r")):
            raise ConfigError(f"task_id {self.task_id!r} must be non-empty, without "
                              "surrounding whitespace, commas or line breaks")
        # A bool is an int to Python, and a float cap would remove a
        # fractional number of blocks.
        for key in ("retention_ratio", "priority_weight"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{self.task_id}: {key} must be a number, got {value!r}")
        if isinstance(self.max_remove, bool) or not isinstance(self.max_remove, int):
            raise ConfigError(f"{self.task_id}: max_remove must be an integer, "
                              f"got {self.max_remove!r}")
        if not 0.0 < self.retention_ratio <= 1.0:
            raise ConfigError(f"{self.task_id}: retention_ratio must be in (0, 1]")
        if self.max_remove < 0:
            raise ConfigError(f"{self.task_id}: max_remove must be >= 0")
        if not (math.isfinite(self.priority_weight) and self.priority_weight >= 0):
            raise ConfigError(f"{self.task_id}: priority_weight must be finite and >= 0")


class MetricOracle:
    """Deterministic evaluation contract: active block set -> score in [0, 1]."""

    num_blocks: int

    def score(self, active: frozenset[int]) -> float:
        raise NotImplementedError

    @property
    def full_score(self) -> float:
        return self.score(frozenset(range(self.num_blocks)))

    def removal_ranking(self, shared_pool: frozenset[int]) -> RemovalRanking:
        """The rankings of one greedy selection that starts from every block
        and prefers ``shared_pool``; see :class:`RemovalRanking`."""
        return RemovalRanking(self, shared_pool)


class RemovalRanking:
    """One selection's rankings, kept from step to step.

    ``step(active)`` returns ``(pooled, ranked, score)``. ``ranked`` names
    each block of ``active`` once, best score first: ``score(j)``, the
    oracle's ``score(active - {j})``, never increases along it.
    ``pooled`` is the shared pool's share of ``ranked``, in the same
    order. Neither names a block outside ``active``. ``remove(j)`` follows
    each block the caller drops from ``active``. This default scores every
    candidate at every step and orders them by (-score, block id).
    """

    def __init__(self, oracle: MetricOracle, shared_pool: frozenset[int]):
        self.oracle, self.shared_pool = oracle, shared_pool

    def step(self, active: set[int]) -> tuple[
            Iterable[int], Iterable[int], Callable[[int], float]]:
        frozen = frozenset(active)
        scores = {j: self.oracle.score(frozen - {j}) for j in sorted(active)}
        ranked = sorted(scores, key=lambda j: -scores[j])
        pool = self.shared_pool
        return [j for j in ranked if j in pool], ranked, scores.__getitem__

    def remove(self, j: int) -> None:
        pass


class AdditiveOracle(MetricOracle):
    """Synthetic oracle: score(A) = sum of active importances / total.

    Both sums are correctly rounded (``math.fsum``), so a score is the
    same float on every Python version and for every way of building
    ``A``. Rounding is monotone and a subset never sums above the total,
    so every score lies in [0, 1].
    """

    def __init__(self, weights: Sequence[float]):
        if not weights:
            raise OracleError("need at least one block weight")
        self.weights = tuple(float(w) for w in weights)
        if not all(math.isfinite(w) for w in self.weights):
            raise OracleError("importance weights must be finite")
        if any(w < 0 for w in self.weights):
            raise OracleError("importance weights must be non-negative")
        self.num_blocks = len(self.weights)
        try:
            self._total = math.fsum(self.weights)
        except OverflowError:
            raise OracleError("importance weights sum beyond the float range") from None

    def score(self, active: frozenset[int]) -> float:
        if self._total == 0.0:
            return 1.0
        return math.fsum(map(self.weights.__getitem__, active)) / self._total

    def removal_ranking(self, shared_pool: frozenset[int]) -> RemovalRanking:
        return _AdditiveRanking(self, shared_pool)


class _AdditiveRanking(RemovalRanking):
    """Removals of an additive oracle: by weight, lightest first.

    The order never changes, so it and the pool's share of it are built
    once, as insertion-ordered dicts, and each removal deletes its block
    from both. The active weights' sum ``S`` is kept exactly, as an int
    in units of 2**-1074, and each removal subtracts its block's units.
    Int division rounds correctly, as ``math.fsum`` does, so
    ``(S - u[j]) / 2**1074 / total`` is bit for bit the oracle's score of
    the active set without ``j``; it falls as the weight rises. A step
    thus does O(1) Python work, plus the selector's walk; a dict iterator
    passes over deleted entries in C.
    """

    def __init__(self, oracle: AdditiveOracle, shared_pool: frozenset[int]):
        super().__init__(oracle, shared_pool)
        # Stable: equal weights keep ascending block ids.
        order = sorted(range(oracle.num_blocks), key=oracle.weights.__getitem__)
        self._ranked = dict.fromkeys(order)
        self._pooled = dict.fromkeys(j for j in order if j in shared_pool)
        self._units = tuple(map(exact_units, oracle.weights))
        self._sum = sum(self._units)

    def remove(self, j: int) -> None:
        del self._ranked[j]
        self._pooled.pop(j, None)
        self._sum -= self._units[j]

    def step(self, active: set[int]):
        pooled, ranked = iter(self._pooled), iter(self._ranked)
        total = self.oracle._total
        if total == 0.0:
            return pooled, ranked, lambda j: 1.0
        s, units = self._sum, self._units
        return pooled, ranked, lambda j: (s - units[j]) / EXACT_SCALE / total


class TableOracle(MetricOracle):
    """Oracle backed by explicit (active set -> score) entries.

    Useful for replaying hand-built cases, including non-monotone score
    landscapes that an additive oracle cannot produce. Evaluating a subset
    absent from the table is an error.
    """

    def __init__(self, entries: Mapping[frozenset[int], float], num_blocks: int):
        self._entries = dict(entries)
        self.num_blocks = num_blocks

    def score(self, active: frozenset[int]) -> float:
        try:
            return self._entries[frozenset(active)]
        except KeyError:
            raise OracleError(
                f"no table entry for active set {sorted(active)}") from None

    @classmethod
    def from_json(cls, doc: Sequence[Mapping], num_blocks: int) -> "TableOracle":
        """Build from rows ``{"active_blocks": [ids], "score": s}``.

        Ids must be integers in ``[0, num_blocks)``, each listed once per
        row, and scores finite and in [0, 1]; no two rows may name the same
        active set. Anything else is a :class:`ConfigError`.
        """
        entries = {}
        try:
            for row in doc:
                ids = [exact_int(b) for b in row["active_blocks"]]
                active = frozenset(ids)
                score = as_float(row["score"])
                if not all(0 <= b < num_blocks for b in active):
                    raise ValueError(f"block ids {sorted(active)} outside "
                                     f"[0, {num_blocks})")
                if len(active) != len(ids):
                    raise ValueError(f"block ids {ids} name a block twice")
                if active in entries:
                    raise ValueError(f"active set {sorted(active)} has two rows")
                if not 0.0 <= score <= 1.0:
                    raise ValueError(f"score {score} outside [0, 1]")
                entries[active] = score
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad table oracle row: {exc}") from exc
        return cls(entries, num_blocks)


@dataclass(frozen=True)
class SelectionResult:
    """A selected skip set (the blocks a task omits at inference; the rest
    are its active set) plus the bookkeeping the selector reports."""

    skipped: frozenset[int]
    final_score: float
    oracle_calls: int
    removal_order: tuple[int, ...]


def _best(ranking: Iterable[int], score: Callable[[int], float],
          threshold: float) -> int | None:
    """The lowest block id among the best-scoring blocks of ``ranking``,
    which lists blocks best score first, or ``None`` if the best score is
    below ``threshold``. Unequal weights can round to equal scores, which
    are then not in id order."""
    blocks = iter(ranking)
    best = next(blocks, None)
    if best is None or (top := score(best)) < threshold:
        return None
    for j in blocks:
        if score(j) < top:
            break
        best = min(best, j)
    return best


def select_skip_set(task: TaskSpec, oracle: MetricOracle,
                    shared_pool: frozenset[int] = frozenset()) -> SelectionResult:
    """Greedy removal: repeatedly drop the feasible block with the best score.

    Each step first restricts the feasible candidates to ``shared_pool``;
    only when no pool candidate is feasible does it take the best
    candidate overall. Equal scores resolve to the lowest block id. With
    the default empty pool this is plain greedy selection.
    """
    calls = 1
    s_full = oracle.full_score
    threshold = task.retention_ratio * s_full
    active = set(range(oracle.num_blocks))
    ranking = oracle.removal_ranking(shared_pool)
    order: list[int] = []
    for _ in range(task.max_remove):
        pooled, ranked, score = ranking.step(active)
        calls += len(active)
        best_j = _best(pooled, score, threshold)
        if best_j is None:
            best_j = _best(ranked, score, threshold)
        if best_j is None:
            break
        active.remove(best_j)
        ranking.remove(best_j)
        order.append(best_j)
    return SelectionResult(
        skipped=frozenset(order),
        final_score=oracle.score(frozenset(active)) if order else s_full,
        oracle_calls=calls,
        removal_order=tuple(order),
    )


def build_all_tasks(tasks: Sequence[TaskSpec], oracles: Mapping[str, MetricOracle],
                    align: bool = True) -> dict[str, SelectionResult]:
    """Select skip sets for every task, in descending priority order.

    The first task runs plain greedy selection; with ``align`` each
    subsequent task prefers the union of all previously produced skip
    sets. ``align=False`` selects every task independently (the
    per-task-greedy baseline mode).
    """
    if not tasks:
        raise ConfigError("no tasks given")
    missing = [t.task_id for t in tasks if t.task_id not in oracles]
    if missing:
        raise ConfigError(f"no oracle for tasks: {missing}")
    ordered = sorted(tasks, key=lambda t: (-t.priority_weight, t.task_id))
    results: dict[str, SelectionResult] = {}
    pool: frozenset[int] = frozenset()
    for task in ordered:
        res = select_skip_set(task, oracles[task.task_id], pool if align else frozenset())
        results[task.task_id] = res
        pool |= res.skipped
    return results


def jaccard(a: frozenset[int], b: frozenset[int]) -> float:
    """Set overlap |a & b| / |a | b|; two empty sets count as identical (1.0)."""
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def selection_report(results: Mapping[str, SelectionResult]) -> dict:
    """JSON-ready view: task id -> sorted skip list, final score, call count."""
    return {
        task_id: {
            "skipped": sorted(res.skipped),
            "final_score": res.final_score,
            "oracle_calls": res.oracle_calls,
        }
        for task_id, res in results.items()
    }


def load_table_oracles(path: Path | str, tasks: Sequence[TaskSpec],
                       num_blocks: int) -> dict[str, TableOracle]:
    """Read a table-oracle file: a JSON object mapping each task id to its rows."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: table oracle file must be a JSON object")
    missing = [t.task_id for t in tasks if t.task_id not in doc]
    if missing:
        raise ConfigError(f"table oracle file lacks tasks: {missing}")
    return {t.task_id: TableOracle.from_json(doc[t.task_id], num_blocks) for t in tasks}


_TASK_KEYS = frozenset(f.name for f in fields(TaskSpec))


def load_task_specs(path: Path | str) -> list[TaskSpec]:
    """Read the task file: a JSON array of task objects."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: task file must be a JSON array")
    if not doc:
        raise ConfigError(f"{path}: task file lists no tasks")
    tasks = []
    for row in doc:
        check_keys(row, _TASK_KEYS, f"{path}: task entry")
        try:
            tasks.append(TaskSpec(
                task_id=row["task_id"],
                retention_ratio=as_float(row["retention_ratio"]),
                max_remove=exact_int(row["max_remove"]),
                priority_weight=as_float(row.get("priority_weight", 1.0)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad task entry {row!r}: {exc}") from exc
    seen = [t.task_id for t in tasks]
    if len(set(seen)) != len(seen):
        raise ConfigError(f"{path}: duplicate task ids")
    return tasks

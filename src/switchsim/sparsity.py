"""Metric-constrained greedy skip-set selection and cross-task alignment.

Each task drops blocks one at a time: a removal is feasible while the
task's score stays at or above ``retention_ratio`` times the full-model
score. Alignment biases later tasks toward blocks already skipped by
earlier ones (the shared pool) so that active sets overlap and task
switches move fewer bytes.

Each step asks the selection's :class:`RemovalRanking` for the active
blocks ranked best estimated score first, the pool's share of that
order, and a bound ``eps`` on the estimates' error. A ranking lives for
one selection and names only the blocks still active. The additive
oracle's ranking orders the blocks by weight once per selection, drops
each block as it is removed, and estimates a removal from one exact
running sum of the active weights. So a step does O(1) Python work plus
a walk of a prefix of the ranking: it stops at the first estimate more
than ``eps`` below the threshold or more than ``2 * eps`` below the
first feasible one. Every decision stays exact: a candidate whose
estimate lies within ``eps`` of the threshold, or within ``2 * eps`` of
the best estimate it competes with, is scored exactly before it is
judged, and the reported final score is the exact score of the final
active set. ``oracle_calls`` counts logical evaluations (the full-model
score plus one per candidate per step), not the exact re-scores made.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .errors import (EXACT_SCALE, ConfigError, OracleError, as_float, check_keys,
                     exact_int, exact_units, read_json, sum_left_to_right)

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

    ``step(active)`` returns ``(pooled, ranked, estimate, eps)``.
    ``ranked`` names each block of ``active`` once, best estimated score
    first: ``estimate(j)``, an estimate of ``score(active - {j})``, never
    increases along it and is within ``eps`` of that score (``eps == 0``
    means the estimates are the exact scores). ``pooled`` is the shared
    pool's share of ``ranked``, in the same order. Neither names a block
    outside ``active``. ``remove(j)`` follows each block the caller drops
    from ``active``. This default scores every candidate exactly at every
    step and orders them by (-score, block id).
    """

    def __init__(self, oracle: MetricOracle, shared_pool: frozenset[int]):
        self.oracle, self.shared_pool = oracle, shared_pool

    def step(self, active: set[int]) -> tuple[
            Iterable[int], Iterable[int], Callable[[int], float], float]:
        frozen = frozenset(active)
        scores = {j: self.oracle.score(frozen - {j}) for j in sorted(active)}
        ranked = sorted(scores, key=lambda j: -scores[j])
        pool = self.shared_pool
        return [j for j in ranked if j in pool], ranked, scores.__getitem__, 0.0

    def remove(self, j: int) -> None:
        pass


# Unit roundoff of a double, and an absolute floor covering the rounding of
# a quotient that underflows into the subnormal range.
_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW_FLOOR = 2.0 ** -1072


class AdditiveOracle(MetricOracle):
    """Synthetic oracle: score(A) = clamp(sum of active importances / total, 0, 1).

    Both sums run left to right in block order, so a score is the same
    float on every Python version and for every way of building ``A``.
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
        self._total = sum_left_to_right(self.weights, range(self.num_blocks))
        # Half the float range keeps every partial sum of any subset finite.
        if self._total > sys.float_info.max / 2:
            raise OracleError("importance weights sum beyond the float range")

    def score(self, active: frozenset[int]) -> float:
        if self._total == 0.0:
            return 1.0
        # In block order: a set's iteration order depends on how it was built.
        raw = sum_left_to_right(self.weights, sorted(active)) / self._total
        return min(max(raw, 0.0), 1.0)

    @cached_property
    def _exact_total(self) -> int:
        return sum(map(exact_units, self.weights))

    def removal_ranking(self, shared_pool: frozenset[int]) -> RemovalRanking:
        return _AdditiveRanking(self, shared_pool)


class _AdditiveRanking(RemovalRanking):
    """Removals of an additive oracle: by weight, lightest first, each
    estimated as ``clamp((S - w_j) / T)`` from the active weights' sum ``S``.

    The order never changes, so it and the pool's share of it are built
    once, as insertion-ordered dicts, and each removal deletes its block
    from both. ``S`` is kept exactly, as an int in units of 2**-1074, and
    each removal subtracts its block's weight; the int divided by 2**1074
    is the correctly rounded float that ``math.fsum`` of the active
    weights gives. A step thus does O(1) Python work, plus the selector's
    walk; a dict iterator passes over deleted entries in C.
    """

    def __init__(self, oracle: AdditiveOracle, shared_pool: frozenset[int]):
        super().__init__(oracle, shared_pool)
        # Stable: equal weights keep ascending block ids.
        order = sorted(range(oracle.num_blocks), key=oracle.weights.__getitem__)
        self._ranked = dict.fromkeys(order)
        self._pooled = dict.fromkeys(j for j in order if j in shared_pool)
        self._exact = oracle._exact_total

    def active_sum(self) -> float:
        return self._exact / EXACT_SCALE

    def remove(self, j: int) -> None:
        del self._ranked[j]
        self._pooled.pop(j, None)
        self._exact -= exact_units(self.oracle.weights[j])

    def step(self, active: set[int]):
        """Both rankings of the active blocks, and the estimates and ``eps``
        for ``active``.

        Subtraction, division and the clamp are monotone under rounding,
        so a heavier block never gets a higher estimate: the by-weight
        order is a non-increasing estimate order.

        Error bound, with u = 2**-53, m = len(active), S* the exact sum of
        the active weights, S = S*(1 + d), |d| <= u, its correct rounding
        (the kept sum as a float), and T the total. All weights are finite
        and >= 0, and no partial sum overflows (checked in
        ``AdditiveOracle.__init__``).

        * ``score(active - {j})`` sums m - 1 non-negative terms left to
          right, so its sum s is within gamma_m * S* of S* - w_j, where
          gamma_m = m*u / (1 - m*u).
        * w_j <= S* and rounding is monotone, so 0 <= S - w_j <= S, and the
          rounded difference D is within |S - S*| + u*S <= (2u + u^2) S*
          of S* - w_j.
        * Hence |D - s| <= (gamma_m + 2u + u^2) S*. Both are divided by the
          same T and rounded, which adds at most u * (D + s) / T
          <= 2u (1 + gamma_m) S*/T, plus half a subnormal step each if a
          quotient underflows.
        * The clamp to [0, 1] does not widen a gap.

        So |estimate - score| <= (m + 4) u S*/T (1 + O(m u)) + 2**-1074.
        ``eps`` doubles the first term and takes 2**-1072 for the second;
        the slack also covers the rounding of ``eps`` itself and of the
        selector's comparisons against it.
        """
        pooled, ranked = iter(self._pooled), iter(self._ranked)
        weights, total = self.oracle.weights, self.oracle._total
        if total == 0.0:
            return pooled, ranked, lambda j: 1.0, 0.0
        s = self.active_sum()
        eps = 2.0 * (len(active) + 4) * _UNIT_ROUNDOFF * (s / total) + _UNDERFLOW_FLOOR
        # s >= w_j, so no estimate is negative, and none exceeds 1 unless s/T does.
        if s > total:
            return pooled, ranked, lambda j: min((s - weights[j]) / total, 1.0), eps
        return pooled, ranked, lambda j: (s - weights[j]) / total, eps


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


def select_skip_set(task: TaskSpec, oracle: MetricOracle,
                    shared_pool: frozenset[int] = frozenset()) -> SelectionResult:
    """Greedy removal: repeatedly drop the feasible block with the best score.

    Each step first restricts the feasible candidates to ``shared_pool``;
    only when no pool candidate is feasible does it take the best
    candidate overall. With the default empty pool this is plain greedy
    selection.
    """
    calls = 1
    s_full = oracle.full_score
    threshold = task.retention_ratio * s_full
    active = set(range(oracle.num_blocks))
    ranking = oracle.removal_ranking(shared_pool)
    order: list[int] = []
    for _ in range(task.max_remove):
        pooled, ranked, estimate, eps = ranking.step(active)
        calls += len(active)
        exact: dict[int, float] = {}

        def exact_score(j: int) -> float:
            if eps == 0.0:
                return estimate(j)
            if j not in exact:
                exact[j] = oracle.score(frozenset(active - {j}))
            return exact[j]

        def contenders(candidates: Iterable[int]) -> list[int]:
            # Walk a ranking of active blocks down from the best estimate.
            # An estimate more than eps below the threshold, and every one
            # after it, is infeasible; a closer one is settled by the exact
            # score. A candidate more than 2 * eps below the first feasible
            # one scores strictly below it, so the walk stops there too.
            found: list[int] = []
            top = None
            for j in candidates:
                est = estimate(j)
                if threshold - est > eps or (top is not None and top - est > 2.0 * eps):
                    break
                if est - threshold > eps or exact_score(j) >= threshold:
                    if top is None:
                        top = est
                    found.append(j)
            return found

        pick = contenders(pooled) or contenders(ranked)
        if not pick:
            break
        # Highest score wins; equal scores resolve to the lowest block id.
        # A lone contender needs no exact score to win.
        best_j = pick[0] if len(pick) == 1 else max(
            pick, key=lambda j: (exact_score(j), -j))
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


_TASK_KEYS = frozenset({"task_id", "retention_ratio", "max_remove", "priority_weight"})


def load_task_specs(path: Path | str) -> list[TaskSpec]:
    """Read the task file: a JSON array of task objects."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: task file must be a JSON array")
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

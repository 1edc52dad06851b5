"""Metric-constrained greedy skip-set selection and cross-task alignment.

Each task drops blocks one at a time: a removal is feasible while the
task's score stays at or above ``retention_ratio`` times the full-model
score. Alignment biases later tasks toward blocks already skipped by
earlier ones (the shared pool) so that active sets overlap and task
switches move fewer bytes.

Each step asks the oracle for an estimate of every candidate removal's
score plus a bound ``eps`` on the estimates' error
(:meth:`MetricOracle.removal_scores`). The additive oracle estimates all
of them from one sum of the active weights, so a step costs O(n) instead
of O(n) evaluations of O(n) each. Every decision stays exact: a
candidate whose estimate lies within ``eps`` of the threshold, or within
``2 * eps`` of the best estimate it competes with, is scored exactly
before it is judged, and the chosen removal's exact score is what the
selector records. ``oracle_calls`` counts logical evaluations (the
full-model score plus one per candidate per step), not the exact
re-scores made.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .errors import ConfigError, OracleError, exact_int, read_json

__all__ = [
    "TaskSpec",
    "MetricOracle",
    "AdditiveOracle",
    "TableOracle",
    "SelectionResult",
    "greedy_skip_select",
    "aligned_skip_select",
    "build_all_tasks",
    "jaccard",
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

    def removal_scores(self, active: frozenset[int],
                       candidates: Sequence[int]) -> tuple[list[float], float]:
        """Estimate ``score(active - {j})`` for each candidate ``j`` in ``active``.

        Returns the estimates and ``eps``: each estimate is within ``eps``
        of the exact score. ``eps == 0`` means the estimates are the exact
        scores; this default computes them one by one.
        """
        return [self.score(active - {j}) for j in candidates], 0.0


# Unit roundoff of a double, and an absolute floor covering the rounding of
# a quotient that underflows into the subnormal range.
_UNIT_ROUNDOFF = 2.0 ** -53
_UNDERFLOW_FLOOR = 2.0 ** -1072


class AdditiveOracle(MetricOracle):
    """Synthetic oracle: score(A) = clamp(sum of active importances / total, 0, 1)."""

    def __init__(self, weights: Sequence[float]):
        if not weights:
            raise OracleError("need at least one block weight")
        self.weights = tuple(float(w) for w in weights)
        if not all(math.isfinite(w) for w in self.weights):
            raise OracleError("importance weights must be finite")
        if any(w < 0 for w in self.weights):
            raise OracleError("importance weights must be non-negative")
        self.num_blocks = len(self.weights)
        self._total = sum(self.weights)
        # Half the float range keeps every partial sum of any subset finite.
        if self._total > sys.float_info.max / 2:
            raise OracleError("importance weights sum beyond the float range")

    def score(self, active: frozenset[int]) -> float:
        if self._total == 0.0:
            return 1.0
        raw = sum(self.weights[k] for k in active) / self._total
        return min(max(raw, 0.0), 1.0)

    def removal_scores(self, active: frozenset[int],
                       candidates: Sequence[int]) -> tuple[list[float], float]:
        """Estimate each removal as ``clamp((S - w_j) / T)`` from one exact sum.

        Error bound, with u = 2**-53, m = len(active), S* the exact sum of
        the active weights, S = fsum(...) = S*(1 + d), |d| <= u, and T the
        total. All weights are finite and >= 0, and no partial sum
        overflows (checked in ``__init__``).

        * ``score(active - {j})`` sums m - 1 non-negative terms left to
          right, so its sum s is within gamma_m * S* of S* - w_j, where
          gamma_m = m*u / (1 - m*u). (A compensated ``sum`` only tightens
          this.)
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
        if self._total == 0.0:
            return [1.0] * len(candidates), 0.0
        weights, total = self.weights, self._total
        s = math.fsum(map(weights.__getitem__, active))
        # s >= w_j, so no estimate is negative, and none exceeds 1 unless s/T does.
        estimates = [(s - weights[j]) / total for j in candidates]
        if s > total:
            estimates = [min(e, 1.0) for e in estimates]
        eps = 2.0 * (len(active) + 4) * _UNIT_ROUNDOFF * (s / total) + _UNDERFLOW_FLOOR
        return estimates, eps


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

        Ids must be integers in ``[0, num_blocks)`` and scores finite and in
        [0, 1]; anything else is a :class:`ConfigError`.
        """
        entries = {}
        try:
            for row in doc:
                active = frozenset(exact_int(b) for b in row["active_blocks"])
                score = float(row["score"])
                if not all(0 <= b < num_blocks for b in active):
                    raise ValueError(f"block ids {sorted(active)} outside "
                                     f"[0, {num_blocks})")
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


def _select(task: TaskSpec, oracle: MetricOracle,
            shared_pool: frozenset[int]) -> SelectionResult:
    n = oracle.num_blocks
    calls = 1
    s_full = oracle.full_score
    threshold = task.retention_ratio * s_full
    skipped: set[int] = set()
    order: list[int] = []
    current = s_full
    for _ in range(task.max_remove):
        active = frozenset(range(n)) - skipped
        candidates = sorted(active)
        estimates, eps = oracle.removal_scores(active, candidates)
        calls += len(candidates)
        exact = dict(zip(candidates, estimates)) if eps == 0.0 else {}

        def exact_score(j: int) -> float:
            if j not in exact:
                exact[j] = oracle.score(active - {j})
            return exact[j]

        # An estimate more than eps from the threshold decides feasibility
        # on its own; a closer one is settled by the exact score.
        feasible = [(j, est) for j, est in zip(candidates, estimates)
                    if est - threshold > eps
                    or (threshold - est <= eps and exact_score(j) >= threshold)]
        if not feasible:
            break
        pooled = [(j, est) for j, est in feasible if j in shared_pool]
        pick = pooled if pooled else feasible
        # A candidate more than 2 * eps below the top estimate scores
        # strictly below the top candidate, so only the rest can win.
        top = max(est for _, est in pick)
        contenders = [j for j, est in pick if top - est <= 2.0 * eps]
        # Highest score wins; equal scores resolve to the lowest block id.
        best_j = max(contenders, key=lambda j: (exact_score(j), -j))
        skipped.add(best_j)
        order.append(best_j)
        current = exact_score(best_j)
    return SelectionResult(
        skipped=frozenset(skipped),
        final_score=current,
        oracle_calls=calls,
        removal_order=tuple(order),
    )


def greedy_skip_select(task: TaskSpec, oracle: MetricOracle) -> SelectionResult:
    """Greedy removal: repeatedly drop the feasible block with the best score."""
    return _select(task, oracle, frozenset())


def aligned_skip_select(task: TaskSpec, oracle: MetricOracle,
                        shared_pool: frozenset[int]) -> SelectionResult:
    """Greedy removal with shared-pool preference.

    Each step first restricts the feasible candidates to the shared pool;
    only when no pool candidate is feasible does it fall back to the best
    candidate overall. With an empty pool this is exactly
    :func:`greedy_skip_select`.
    """
    return _select(task, oracle, frozenset(shared_pool))


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
        if align and pool:
            res = aligned_skip_select(task, oracles[task.task_id], pool)
        else:
            res = greedy_skip_select(task, oracles[task.task_id])
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


def load_task_specs(path: Path | str) -> list[TaskSpec]:
    """Read the task file: a JSON array of task objects."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: task file must be a JSON array")
    tasks = []
    for row in doc:
        try:
            tasks.append(TaskSpec(
                task_id=row["task_id"],
                retention_ratio=float(row["retention_ratio"]),
                max_remove=exact_int(row["max_remove"]),
                priority_weight=float(row.get("priority_weight", 1.0)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad task entry {row!r}: {exc}") from exc
    seen = [t.task_id for t in tasks]
    if len(set(seen)) != len(seen):
        raise ConfigError(f"{path}: duplicate task ids")
    return tasks

"""Seeded synthetic inputs: multi-task importance landscapes and task logs.

The instance generator produces multi-task importance landscapes whose
cross-task overlap is controlled by a single correlation knob; the log
generator samples task sequences from a first-order chain with biased
pairs.
"""
from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate

from .sparsity import AdditiveOracle, TaskSpec

__all__ = ["SyntheticInstance", "gen_instance", "gen_markov_log"]

# Instance-generator shape constants. A fixed fraction of blocks per task
# is near-redundant (tiny importance) and the rest critical (importance
# too large to ever remove under practical retention ratios). Which blocks
# are redundant follows the base/noise blend at full correlation strength;
# the fine ordering inside the redundant cohort decorrelates faster (cubed
# coefficient), because related tasks agree on *what* is redundant far
# more than on exactly *how* redundant.
REDUNDANT_FRACTION = 0.75
RANK_MIX_EXPONENT = 3
REDUNDANT_SCALE = 0.02


@dataclass(frozen=True)
class SyntheticInstance:
    """Seeded multi-task importance landscape for selection experiments."""

    seed: int
    num_blocks: int
    num_tasks: int
    correlation: float
    weights: tuple[tuple[float, ...], ...]
    retention: tuple[float, ...]

    @property
    def task_ids(self) -> tuple[str, ...]:
        return tuple(f"task{i:02d}" for i in range(self.num_tasks))

    def oracle(self, index: int) -> AdditiveOracle:
        return AdditiveOracle(self.weights[index])

    def oracles(self) -> dict[str, AdditiveOracle]:
        return {tid: self.oracle(i) for i, tid in enumerate(self.task_ids)}

    def task_specs(self, max_remove: int | None = None) -> list[TaskSpec]:
        """Materialize task specs in descending priority; the default
        removal cap is 30% of the blocks."""
        if max_remove is None:
            max_remove = max(1, round(0.3 * self.num_blocks))
        return [TaskSpec(task_id=tid, retention_ratio=self.retention[i],
                         max_remove=max_remove, priority_weight=float(self.num_tasks - i))
                for i, tid in enumerate(self.task_ids)]


def gen_instance(seed: int, num_blocks: int, num_tasks: int,
                 correlation: float, retention_ratio: float = 0.9) -> SyntheticInstance:
    """Draw a seeded instance whose cross-task skip overlap tracks ``correlation``.

    Per task, the ``REDUNDANT_FRACTION`` of blocks ranking lowest under the
    blend ``correlation * base + (1 - correlation) * noise`` get small
    importances (orderable, individually removable); the rest get large
    ones (never feasibly removable at practical retention ratios). At
    correlation 1 every task sees identical importances; at 0 they are
    independent.
    """
    if num_blocks < 1 or num_tasks < 1:
        raise ValueError("num_blocks and num_tasks must be positive")
    if not 0.0 <= correlation <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    rng = random.Random(seed)
    base = [rng.random() for _ in range(num_blocks)]
    rank_base = [rng.random() for _ in range(num_blocks)]
    c_rank = correlation ** RANK_MIX_EXPONENT
    n_redundant = round(REDUNDANT_FRACTION * num_blocks)
    weights = []
    for _ in range(num_tasks):
        blend = [correlation * b + (1 - correlation) * rng.random() for b in base]
        rank = [c_rank * p + (1 - c_rank) * rng.random() for p in rank_base]
        by_blend = sorted(range(num_blocks), key=lambda k: (blend[k], k))
        redundant = set(by_blend[:n_redundant])
        weights.append(tuple(
            REDUNDANT_SCALE * rank[k] if k in redundant else 1.5 + 0.5 * blend[k]
            for k in range(num_blocks)
        ))
    return SyntheticInstance(
        seed=seed,
        num_blocks=num_blocks,
        num_tasks=num_tasks,
        correlation=correlation,
        weights=tuple(weights),
        retention=(retention_ratio,) * num_tasks,
    )


def gen_markov_log(seed: int, length: int, task_ids: list[str],
                   pair_bias: dict[tuple[str, str], float] | None = None) -> list[str]:
    """Sample a task sequence from a first-order chain with biased pairs.

    Every ordered pair of distinct tasks gets weight 1.0 unless overridden
    in ``pair_bias``; larger weights make that switch proportionally more
    frequent. Deterministic for a given seed.

    Each step is the draw ``rng.choices(others, weights=...)`` makes, taken
    from one ``rng.random()`` call and the running task's cumulative
    weights. The sequence thus depends only on ``Random.random()``, whose
    output Python keeps stable across versions.

    The inputs are checked before the first draw: an empty ``task_ids``
    raises :class:`ValueError`, and so does a log of two or more steps with
    fewer than two distinct task ids, or with a task whose pair weights do
    not total a finite positive number.
    """
    if not task_ids:
        raise ValueError("a task log needs at least one task id")
    if length <= 0:
        return []
    draw = random.Random(seed).random
    current = task_ids[0]
    out = [current]
    if length == 1:
        return out
    if len(set(task_ids)) < 2:
        raise ValueError(
            f"a task log of {length} steps needs at least two distinct task ids, "
            f"got {current!r} only")
    bias = pair_bias or {}
    rows = {task: _successor_row(task, task_ids, bias) for task in dict.fromkeys(task_ids)}
    for _ in range(length - 1):
        others, cum, total, hi = rows[current]
        current = others[bisect(cum, draw() * total, 0, hi)]
        out.append(current)
    return out


def _successor_row(current: str, task_ids: list[str],
                   bias: dict[tuple[str, str], float]
                   ) -> tuple[list[str], list[float], float, int]:
    """The tasks after ``current``, their cumulative weights, the total and
    the bisect bound; a total that is not finite and positive raises."""
    others = [t for t in task_ids if t != current]
    cum = list(accumulate(bias.get((current, t), 1.0) for t in others))
    total = cum[-1] + 0.0
    if not (math.isfinite(total) and total > 0.0):
        raise ValueError(
            f"pair weights out of task {current!r} total {total}; "
            "they must total a finite positive number")
    return others, cum, total, len(others) - 1

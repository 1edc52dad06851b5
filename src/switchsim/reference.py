"""Independent reference implementations and synthetic instance generation.

The brute-force routines re-derive selection semantics without sharing
code with :mod:`switchsim.sparsity`; they exist to validate the fast path
on small instances. :func:`reference_select` is the selector that scores
every candidate removal exactly, at any size, to check the estimating
:mod:`switchsim.sparsity` selector result for result.
:func:`reference_switch` recomputes a switch's sets and per-block link
costs from scratch, to check the tabled
:func:`switchsim.switching.execute_switch`. The instance generator
produces seeded multi-task importance landscapes whose cross-task
overlap is controlled by a single correlation knob.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Mapping

from .block_store import CacheState, ModelManifest, load_to_gpu
from .errors import ConfigError
from .sparsity import AdditiveOracle, MetricOracle, SelectionResult, TaskSpec
from .switching import CostModel, DeployMode, SwitchReport

__all__ = [
    "SyntheticInstance",
    "gen_instance",
    "brute_force_greedy_replay",
    "brute_force_best_feasible",
    "reference_select",
    "enumerate_table_entries",
    "gen_markov_log",
    "reference_switch",
]

REPLAY_MAX_BLOCKS = 16
EXHAUSTIVE_MAX_BLOCKS = 12

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

    def oracles(self, task_ids: tuple[str, ...] | None = None) -> dict[str, AdditiveOracle]:
        ids = task_ids if task_ids is not None else self.task_ids
        return {tid: self.oracle(i) for i, tid in enumerate(ids)}

    def task_specs(self, max_remove: int | None = None,
                   priority_weights: tuple[float, ...] | None = None,
                   task_ids: tuple[str, ...] | None = None) -> list[TaskSpec]:
        """Materialize task specs; default removal cap is 30% of the blocks."""
        if max_remove is None:
            max_remove = max(1, round(0.3 * self.num_blocks))
        ids = task_ids if task_ids is not None else self.task_ids
        return [
            TaskSpec(
                task_id=tid,
                retention_ratio=self.retention[i],
                max_remove=max_remove,
                priority_weight=(priority_weights[i] if priority_weights is not None
                                 else float(self.num_tasks - i)),
            )
            for i, tid in enumerate(ids)
        ]


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


def brute_force_greedy_replay(oracle: MetricOracle, retention_ratio: float,
                              max_remove: int,
                              shared_pool: frozenset[int] = frozenset()) -> frozenset[int]:
    """Re-derive the greedy removal semantics by per-step enumeration.

    Deliberately shares no code with the production selector: every step
    rebuilds the full candidate table, sorts it, and applies the pool
    preference and tie-break by explicit ordering. Guarded to small
    instances; this is an equivalence oracle, not an algorithm.
    """
    n = oracle.num_blocks
    if n > REPLAY_MAX_BLOCKS:
        raise ValueError(f"replay oracle limited to {REPLAY_MAX_BLOCKS} blocks, got {n}")
    floor = retention_ratio * oracle.score(frozenset(range(n)))
    removed: list[int] = []
    while len(removed) < max_remove:
        remaining = [k for k in range(n) if k not in removed]
        table = [(j, oracle.score(frozenset(k for k in remaining if k != j)))
                 for j in remaining]
        ok = [row for row in table if row[1] >= floor]
        if not ok:
            break
        preferred = [row for row in ok if row[0] in shared_pool]
        ranked = sorted(preferred if preferred else ok,
                        key=lambda row: (-row[1], row[0]))
        removed.append(ranked[0][0])
    return frozenset(removed)


def reference_select(task: TaskSpec, oracle: MetricOracle,
                     shared_pool: frozenset[int]) -> SelectionResult:
    """Greedy selection that scores every candidate of every step exactly.

    Same semantics and bookkeeping as the production selector, with one
    ``oracle.score`` call per candidate per step; the two must agree on
    every field of the result.
    """
    n = oracle.num_blocks
    calls = 1
    s_full = oracle.full_score
    threshold = task.retention_ratio * s_full
    skipped: set[int] = set()
    order: list[int] = []
    current = s_full
    for _ in range(task.max_remove):
        active = frozenset(range(n)) - skipped
        feasible: list[tuple[int, float]] = []
        for j in sorted(active):
            s_j = oracle.score(active - {j})
            calls += 1
            if s_j >= threshold:
                feasible.append((j, s_j))
        if not feasible:
            break
        pooled = [(j, s) for j, s in feasible if j in shared_pool]
        pick = pooled if pooled else feasible
        # Highest score wins; equal scores resolve to the lowest block id.
        best_j, best_s = max(pick, key=lambda js: (js[1], -js[0]))
        skipped.add(best_j)
        order.append(best_j)
        current = best_s
    return SelectionResult(
        skipped=frozenset(skipped),
        final_score=current,
        oracle_calls=calls,
        removal_order=tuple(order),
    )


def brute_force_best_feasible(oracle: MetricOracle, retention_ratio: float,
                              n_remove: int) -> frozenset[int]:
    """Exhaustively find the feasible skip set of size <= n_remove with top score.

    Ties resolve to the lexicographically smallest sorted set. Used to
    measure the greedy optimality gap; greedy equality is never asserted.
    """
    n = oracle.num_blocks
    if n > EXHAUSTIVE_MAX_BLOCKS:
        raise ValueError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_BLOCKS} blocks, got {n}")
    everything = frozenset(range(n))
    floor = retention_ratio * oracle.score(everything)
    best: tuple[int, ...] | None = None
    best_score = float("-inf")
    for size in range(0, min(n_remove, n) + 1):
        for combo in itertools.combinations(range(n), size):
            s = oracle.score(everything - frozenset(combo))
            if s < floor:
                continue
            if best is None or s > best_score or (s == best_score and combo < best):
                best, best_score = combo, s
    return frozenset(best or ())


def enumerate_table_entries(oracle: MetricOracle, num_blocks: int) -> list[dict]:
    """Serialize an oracle over all subsets into table-oracle JSON rows."""
    if num_blocks > EXHAUSTIVE_MAX_BLOCKS:
        raise ValueError(
            f"table enumeration limited to {EXHAUSTIVE_MAX_BLOCKS} blocks")
    rows = []
    for size in range(num_blocks + 1):
        for combo in itertools.combinations(range(num_blocks), size):
            active = frozenset(combo)
            rows.append({"active_blocks": sorted(active),
                         "score": oracle.score(active)})
    return rows


def gen_markov_log(seed: int, length: int, task_ids: list[str],
                   pair_bias: dict[tuple[str, str], float] | None = None) -> list[str]:
    """Sample a task sequence from a first-order chain with biased pairs.

    Every ordered pair of distinct tasks gets weight 1.0 unless overridden
    in ``pair_bias``; larger weights make that switch proportionally more
    frequent. Deterministic for a given seed.
    """
    if length <= 0:
        return []
    rng = random.Random(seed)
    bias = pair_bias or {}
    current = task_ids[0]
    out = [current]
    for _ in range(length - 1):
        others = [t for t in task_ids if t != current]
        weights = [bias.get((current, t), 1.0) for t in others]
        current = rng.choices(others, weights=weights, k=1)[0]
        out.append(current)
    return out


def reference_switch(state: CacheState, from_task: str, to_task: str,
                     mode: DeployMode, skipped: Mapping[str, frozenset[int]],
                     cost: CostModel, manifest: ModelManifest
                     ) -> tuple[CacheState, SwitchReport]:
    """One switch with every set and per-block link cost rebuilt on the spot.

    Takes each task's skip set and derives the active set itself. Same
    semantics as :func:`switchsim.switching.execute_switch`, and the same
    set expressions as a replay, so each millisecond sum walks its blocks
    in the same order and the two agree exactly.
    """
    mode = DeployMode(mode)
    n = manifest.num_blocks
    if mode is DeployMode.MONOLITHIC:
        target = manifest.all_blocks
    else:
        for task in (from_task, to_task):
            if task not in skipped:
                raise ConfigError(f"no skip set for task {task!r}")
        target = frozenset(range(n)) - skipped[to_task]
    new_state = load_to_gpu(manifest, state, target)

    if mode.is_split:
        need = target - state.gpu_resident
        prestaged = need & state.cpu_resident if mode is DeployMode.FULL_METHOD \
            else frozenset()
        disk_leg = need - prestaged
        gpu_leg = need
        reused = len(target & state.gpu_resident)
        init = 0.0
    else:
        disk_leg = gpu_leg = target
        prestaged = frozenset()
        reused = 0
        init = cost.monolithic_init_ms

    latency = (init
               + sum(cost.disk_ms(manifest.block_sizes[b]) for b in disk_leg)
               + sum(cost.gpu_ms(manifest.block_sizes[b]) for b in gpu_leg))
    report = SwitchReport(
        from_task=from_task,
        to_task=to_task,
        mode=mode.value,
        latency_ms=latency,
        bytes_disk_to_cpu=manifest.bytes_of(disk_leg),
        bytes_cpu_to_gpu=manifest.bytes_of(gpu_leg),
        blocks_reused=reused,
        blocks_fetched=len(disk_leg) if mode.is_split else len(gpu_leg),
        blocks_prestaged=len(prestaged),
        gpu_resident_bytes_after=manifest.bytes_of(new_state.gpu_resident),
    )
    return new_state, report

"""Correlation-aware staging of likely-next-task blocks into the host cache.

While a task runs, its inference step opens a virtual compute window; the
prefetcher spends that window pulling pre-load-tier blocks from disk into
the host cache, highest switch-probability first, under the host byte
budget. Blocks staged here skip the disk leg at the next switch.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .block_store import CacheState, ModelManifest, TierAssignment, stage_to_cpu
from .switching import CostModel
from .transitions import TransitionModel

__all__ = ["PrefetchPlan", "plan_prefetch", "execute_prefetch", "block_usefulness"]


@dataclass(frozen=True)
class PrefetchPlan:
    """Block ids to stage, ordered by descending weight (ties by ascending id)."""

    entries: tuple[int, ...]


def block_usefulness(current: str, model: TransitionModel,
                     active: Mapping[str, frozenset[int]]) -> dict[int, float]:
    """Per-block priority: the best switch probability among likely successors
    whose active set contains the block."""
    weights: dict[int, float] = {}
    for succ, prob in model.successor_probs(current).items():
        if succ not in active:
            continue
        for b in active[succ]:
            if prob > weights.get(b, 0.0):
                weights[b] = prob
    return weights


def plan_prefetch(tiers: TierAssignment, weights: Mapping[int, float],
                  state: CacheState, manifest: ModelManifest) -> PrefetchPlan:
    """Greedily fill the remaining host budget with pre-load-tier blocks.

    Candidates are Level-2 blocks not already resident on either tier,
    ranked by their usefulness ``weights`` (see :func:`block_usefulness`).
    Capacity assumes Level-3 stragglers in the host cache can be evicted;
    Level-1 and Level-2 residents are counted as untouchable. A candidate
    that does not fit is skipped and the scan continues.
    """
    candidates = tiers.preload - state.cpu_resident - state.gpu_resident
    ranked = sorted(candidates, key=lambda b: (-weights.get(b, 0.0), b))
    # The host set is small and the tiers are not: intersect it with each.
    keep = (state.cpu_resident & tiers.runtime) | (state.cpu_resident & tiers.preload)
    capacity = state.cpu_budget_bytes - manifest.bytes_of(keep)
    entries: list[int] = []
    used = 0
    for b in ranked:
        size = manifest.block_sizes[b]
        if used + size > capacity:
            continue
        entries.append(b)
        used += size
    return PrefetchPlan(entries=tuple(entries))


def execute_prefetch(plan: PrefetchPlan, state: CacheState, compute_window_ms: float,
                     cost: CostModel, manifest: ModelManifest,
                     protected: frozenset[int] = frozenset(),
                     next_task_probs: Mapping[int, float] | None = None
                     ) -> tuple[CacheState, frozenset[int], int]:
    """Stage plan blocks in order until the compute window runs out.

    Blocks are staged atomically: one whose transfer would overrun the
    window is not staged and ends the pass, so the staged set is always a
    prefix of the plan. Staged blocks add zero latency to the next switch.
    """
    # Staging one plan block never evicts another; in a replay the plan is
    # already inside ``protected``.
    if not protected.issuperset(plan.entries):
        protected = protected | frozenset(plan.entries)
    staged: list[int] = []
    bytes_moved = 0
    elapsed = 0.0
    for block in plan.entries:
        transfer = cost.disk_ms(manifest.block_sizes[block])
        if elapsed + transfer > compute_window_ms:
            break
        state, moved = stage_to_cpu(
            manifest, state, {block},
            protected=protected, next_task_probs=next_task_probs,
        )
        staged.append(block)
        bytes_moved += moved
        elapsed += transfer
    return state, frozenset(staged), bytes_moved

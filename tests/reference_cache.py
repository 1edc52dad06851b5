"""The host-cache operations as they were before their fast paths.

``evict`` sorts every non-protected resident block by (usefulness,
recency, id) through a recency dict, ``reference_touch`` moves one block at a
time, ``stage_to_cpu`` always builds ``protected | wanted``,
``plan_prefetch`` sorts the candidates on every call and builds the union
of both tiers, and ``execute_prefetch`` finds the prefix the window
covers, then stages one block per ``stage_to_cpu`` call, building
``protected | plan blocks`` each time; a failure there reports the whole
prefix's shortfall. New
states come from ``CacheState._replace``, and each function that needs
the host budget takes it as ``cpu_budget``. Each function derives the
host set from ``cpu_lru`` itself, where the fast path reads the order
alone.
The functions in ``switchsim.block_store`` and ``switchsim.prefetch`` are
checked against these.

Eviction here still reads next-task usefulness. The fast eviction reads
recency alone, which is the same whenever usefulness weights only
protected blocks, the contract a replay keeps; the property tests draw
usefulness that way.
"""
from __future__ import annotations

from typing import Iterable, Mapping

from switchsim.block_store import CacheState, ModelManifest
from switchsim.errors import BudgetExceededError, ManifestError
from switchsim.prefetch import PrefetchPlan
from switchsim.switching import CostModel
from switchsim.transitions import TierAssignment


def reference_touch(lru: tuple[int, ...], blocks: Iterable[int]) -> tuple[int, ...]:
    """Move each of the distinct ``blocks`` in turn to the most-recent end."""
    for block in blocks:
        lru = tuple(b for b in lru if b != block) + (block,)
    return lru


def reference_evict(manifest: ModelManifest, state: CacheState, bytes_needed: int,
                    protected: frozenset[int] = frozenset(),
                    next_task_probs: Mapping[int, float] | None = None) -> CacheState:
    if bytes_needed <= 0:
        return state
    probs = next_task_probs or {}
    recency = {b: i for i, b in enumerate(state.cpu_lru)}
    candidates = sorted(
        (b for b in frozenset(state.cpu_lru) if b not in protected),
        key=lambda b: (probs.get(b, 0.0), recency[b], b),
    )
    victims: list[int] = []
    freed = 0
    for b in candidates:
        if freed >= bytes_needed:
            break
        victims.append(b)
        freed += manifest.block_sizes[b]
    if freed < bytes_needed:
        raise BudgetExceededError("cpu", bytes_needed - freed)
    gone = frozenset(victims)
    return state._replace(cpu_lru=tuple(b for b in state.cpu_lru if b not in gone))


def reference_stage_to_cpu(manifest: ModelManifest, state: CacheState,
                           blocks: Iterable[int], cpu_budget: int,
                           protected: frozenset[int] = frozenset(),
                           next_task_probs: Mapping[int, float] | None = None
                           ) -> tuple[CacheState, int]:
    # A repeated id counts at its first occurrence.
    blocks = list(dict.fromkeys(blocks))
    wanted = frozenset(blocks)
    every = frozenset(range(manifest.num_blocks))
    if not wanted <= every:
        raise ManifestError(f"unknown block ids: {sorted(wanted - every)}")
    resident = frozenset(state.cpu_lru)
    new_blocks = wanted - resident
    bytes_moved = manifest.bytes_of(new_blocks)
    overflow = manifest.bytes_of(resident) + bytes_moved - cpu_budget
    if overflow > 0:
        state = reference_evict(manifest, state, overflow,
                                protected=protected | wanted,
                                next_task_probs=next_task_probs)
    return state._replace(cpu_lru=reference_touch(state.cpu_lru, blocks)), bytes_moved


def reference_plan_prefetch(tiers: TierAssignment, weights: Mapping[int, float],
                            state: CacheState, manifest: ModelManifest,
                            cpu_budget: int) -> PrefetchPlan:
    resident = frozenset(state.cpu_lru)
    candidates = tiers.preload - resident - state.gpu_resident
    ranked = sorted(candidates, key=lambda b: (-weights.get(b, 0.0), b))
    keep = resident & (tiers.runtime | tiers.preload)
    capacity = cpu_budget - manifest.bytes_of(keep)
    entries: list[int] = []
    used = 0
    for b in ranked:
        size = manifest.block_sizes[b]
        if used + size > capacity:
            continue
        entries.append(b)
        used += size
    return PrefetchPlan(entries=tuple(entries))


def reference_execute_prefetch(plan: PrefetchPlan, state: CacheState,
                               compute_window_ms: float, cost: CostModel,
                               manifest: ModelManifest, cpu_budget: int,
                               protected: frozenset[int] = frozenset(),
                               next_task_probs: Mapping[int, float] | None = None
                               ) -> tuple[CacheState, tuple[int, ...], int]:
    staged: list[int] = []
    elapsed = 0.0
    for block in plan.entries:
        transfer = cost.disk_ms(manifest.block_sizes[block])
        if elapsed + transfer > compute_window_ms:
            break
        staged.append(block)
        elapsed += transfer
    bytes_moved = 0
    for i, block in enumerate(staged):
        try:
            state, moved = reference_stage_to_cpu(
                manifest, state, {block}, cpu_budget,
                protected=protected | frozenset(plan.entries),
                next_task_probs=next_task_probs,
            )
        except BudgetExceededError as exc:
            # Each later block of the window's prefix adds its bytes to the
            # shortfall of staging the whole prefix.
            later = sum(manifest.block_sizes[b] for b in staged[i + 1:])
            raise BudgetExceededError(exc.tier, exc.shortfall_bytes + later) from None
        bytes_moved += moved
    return state, tuple(staged), bytes_moved

"""Correlation-aware staging of likely-next-task blocks into the host cache.

While a task runs, its inference step opens a virtual compute window; the
prefetcher spends that window pulling pre-load-tier blocks from disk into
the host cache, highest switch-probability first, under the host byte
budget. Blocks staged here skip the disk leg at the next switch.

Usefulness orders what is staged, not what is evicted: every block it
weights is in the running task's runtime or pre-load tier, which a
replay protects, so eviction takes the least recently used unprotected
blocks and needs no weights.

The host cache is read from its recency order ``cpu_lru`` alone, a
short tuple: planning tests membership in it after the device set, sums
the protected residents' bytes in one walk of it, and builds no host
set. Execution reads each block's disk time from a per-block tuple that
a replay computes once (``SwitchTable.disk_ms``), stages the prefix the
window covers with one :func:`stage_to_cpu` call, and returns that prefix
as a slice of the plan's tuple, with no set built. Only the caller's
protected set (the runtime and pre-load tiers, in a replay) is shielded
from eviction; plan blocks need no protection, because the host does not
hold them until they are staged and eviction walks only what it holds.

A full_method replay plans on most of its steps, so a plan is built by
``block_store._new_tuple`` from its one field, without the generated
``__new__``'s Python frame, and the empty plan is one shared constant.
"""
from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from .block_store import CacheState, ModelManifest, _new_tuple, stage_to_cpu
from .errors import ConfigError
from .transitions import TierAssignment, TransitionModel

__all__ = ["PrefetchPlan", "plan_prefetch", "execute_prefetch", "block_usefulness",
           "rank_preload"]


class PrefetchPlan(NamedTuple):
    """Distinct block ids to stage, ordered by descending weight (ties by
    ascending id)."""

    entries: tuple[int, ...]


_NO_PLAN = PrefetchPlan(())


def block_usefulness(current: str, model: TransitionModel,
                     active: Mapping[str, frozenset[int]]) -> dict[int, float]:
    """Per-block priority: the best switch probability among likely successors
    whose active set contains the block. A successor without an active set
    is a :class:`ConfigError`, as in :func:`assign_tiers`."""
    weights: dict[int, float] = {}
    for succ, prob in model.successor_probs(current).items():
        if succ not in active:
            raise ConfigError(f"no active set for successor task {succ!r}")
        for b in active[succ]:
            if prob > weights.get(b, 0.0):
                weights[b] = prob
    return weights


def rank_preload(tiers: TierAssignment, weights: Mapping[int, float]) -> tuple[int, ...]:
    """The pre-load tier by descending usefulness ``weights``, ties by
    ascending id: the order :func:`plan_prefetch` scans."""
    return tuple(sorted(tiers.preload, key=lambda b: (-weights.get(b, 0.0), b)))


def plan_prefetch(ranked: tuple[int, ...], protected: frozenset[int],
                  state: CacheState, manifest: ModelManifest, budget: int) -> PrefetchPlan:
    """Greedily fill the remaining host ``budget`` with pre-load-tier blocks.

    ``ranked`` is :func:`rank_preload` of the tiers and the usefulness
    weights (see :func:`block_usefulness`); it depends on the running task
    only, so a replay builds it once per task. Candidates are
    the ranked blocks not already resident on either tier; when there are
    none, the plan is empty and the host bytes are not summed. ``protected``
    holds the Level-1 and Level-2 blocks: capacity assumes Level-3
    stragglers in the host cache can be evicted and counts protected
    residents as untouchable. A candidate that does not fit is skipped and
    the scan continues.
    """
    gpu = state.gpu_resident
    lru = state.cpu_lru
    missing = [b for b in ranked if b not in gpu and b not in lru]
    if not missing:
        return _NO_PLAN
    sizes = manifest.block_sizes
    # The host order is short, so capacity walks it, not the tiers.
    room = budget - sum([sizes[b] for b in lru if b in protected])
    entries: list[int] = []
    for b in missing:
        size = sizes[b]
        if size <= room:
            entries.append(b)
            room -= size
    return _new_tuple(PrefetchPlan, (tuple(entries),))


def execute_prefetch(plan: PrefetchPlan, state: CacheState, compute_window_ms: float,
                     disk_ms: Sequence[float], manifest: ModelManifest, budget: int,
                     protected: frozenset[int] = frozenset()
                     ) -> tuple[CacheState, tuple[int, ...], int]:
    """Stage plan blocks in order until the compute window runs out.

    ``disk_ms[b]`` is block ``b``'s disk-link time, ``CostModel.disk_ms`` of
    its size; a replay passes ``SwitchTable.disk_ms``, computed once.
    Blocks are staged atomically: one whose transfer would overrun the
    window is not staged and ends the pass, so the staged blocks are always
    a prefix of the plan. Returns the new state, that prefix of
    ``plan.entries`` as a tuple, and the bytes moved. Staged blocks add zero
    latency to the next switch.

    Plan blocks are not host-resident (:func:`plan_prefetch` plans only
    blocks resident on neither tier), so the prefix is staged with one
    :func:`stage_to_cpu` call under the caller's ``protected`` set. That
    leaves what staging it one block at a time would: eviction walks only
    the blocks resident before the call, so no staged block evicts
    another, the victims are the shortest prefix of the eviction order
    that covers the total overflow, and the prefix ends up most recent in
    plan order. When that overflow cannot be covered, the
    :class:`BudgetExceededError` of :func:`stage_to_cpu` stands, with the
    whole prefix's shortfall. No replay reaches it: :func:`plan_prefetch`
    plans within the host budget less the protected residents, and the
    prefix is staged under the same protected set, so it always fits. An
    empty plan, or one whose first block overruns the window, returns the
    input state and ``()``.
    """
    entries = plan.entries
    count = 0
    elapsed = 0.0
    for block in entries:
        # ``elapsed`` becomes the running sum plus this transfer, the value
        # the window is compared with.
        elapsed += disk_ms[block]
        if elapsed > compute_window_ms:
            break
        count += 1
    if not count:
        return state, (), 0
    # A slice of the whole tuple is the tuple itself, not a copy.
    prefix = entries[:count]
    after, moved = stage_to_cpu(manifest, state, prefix, budget, protected)
    return after, prefix, moved

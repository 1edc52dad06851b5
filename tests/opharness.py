"""Seeded random operation sequences over the block store, with invariant checks."""
from __future__ import annotations

import random

from switchsim.block_store import (CacheState, ModelManifest, check_device, evict, load_to_gpu,
                                  stage_to_cpu)
from switchsim.errors import BudgetExceededError, ManifestError


def run_random_ops(seed: int, ops: int = 12) -> None:
    """Run one random op sequence; assert budgets, conservation, exact device
    residency, that each op carries over the budgets and the tier it does not
    touch, and that a budget error leaves the caller's state untouched.

    A staging draw that includes host-resident blocks must be refused with
    the state untouched; its blocks the host does not hold are then staged.
    """
    rng = random.Random(seed)
    n = rng.randrange(1, 8)
    sizes = tuple(rng.randrange(1, 50) for _ in range(n))
    manifest = ModelManifest("r", sizes)
    state = CacheState(
        gpu_budget_bytes=rng.randrange(max(sizes), sum(sizes) + 10),
        cpu_budget_bytes=rng.randrange(max(sizes), sum(sizes) + 10),
    )
    for _ in range(ops):
        blocks = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        op = rng.choice(["stage", "load", "evict"])
        before = state
        try:
            if op == "stage":
                fresh = blocks.difference(state.cpu_lru)
                if fresh != blocks:
                    try:
                        stage_to_cpu(manifest, state, blocks)
                    except ManifestError:
                        pass
                    else:
                        raise AssertionError("staging a resident block was not refused")
                state, moved = stage_to_cpu(manifest, state, fresh)
                assert moved == manifest.bytes_of(
                    frozenset(state.cpu_lru) - frozenset(before.cpu_lru))
            elif op == "load":
                state = load_to_gpu(state, blocks, manifest.bytes_of(blocks))
                assert state.gpu_resident == blocks
                assert state.cpu_lru == before.cpu_lru
            else:
                state = evict(manifest, state, rng.randrange(0, sum(sizes)),
                              protected=blocks.intersection(state.cpu_lru))
            if op != "load":
                assert state.gpu_resident == before.gpu_resident
            assert (state.gpu_budget_bytes, state.cpu_budget_bytes) \
                == (before.gpu_budget_bytes, before.cpu_budget_bytes)
        except BudgetExceededError as err:
            assert err.shortfall_bytes > 0
            if op == "load":
                assert manifest.bytes_of(blocks) > before.gpu_budget_bytes
            assert state == before  # failing op must not disturb the state
        check_device(manifest, state.gpu_resident, state.gpu_budget_bytes)
        state.check_host(manifest)

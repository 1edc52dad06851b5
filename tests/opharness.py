"""Seeded random operation sequences over the block store, with invariant checks."""
from __future__ import annotations

import random

from switchsim.block_store import (CacheState, ModelManifest, check_device, check_host, evict,
                                  stage_to_cpu)
from switchsim.errors import BudgetExceededError, ManifestError


def run_random_ops(seed: int, ops: int = 12) -> None:
    """Run one random op sequence under drawn device and host budgets;
    assert budgets, conservation, exact device residency, that each op
    carries over the tier it does not touch, and that a budget error leaves
    the caller's state untouched.

    A staging draw that includes host-resident blocks must be refused with
    the state untouched; its blocks the host does not hold are then staged.
    A load checks the drawn device set with ``check_device``, then builds
    the state that holds it.
    """
    rng = random.Random(seed)
    n = rng.randrange(1, 8)
    sizes = tuple(rng.randrange(1, 50) for _ in range(n))
    manifest = ModelManifest("r", sizes)
    gpu_budget = rng.randrange(max(sizes), sum(sizes) + 10)
    cpu_budget = rng.randrange(max(sizes), sum(sizes) + 10)
    state = CacheState()
    for _ in range(ops):
        blocks = frozenset(rng.sample(range(n), rng.randrange(0, n + 1)))
        op = rng.choice(["stage", "load", "evict"])
        before = state
        try:
            if op == "stage":
                fresh = blocks.difference(state.cpu_lru)
                if fresh != blocks:
                    try:
                        stage_to_cpu(manifest, state, blocks, cpu_budget)
                    except ManifestError:
                        pass
                    else:
                        raise AssertionError("staging a resident block was not refused")
                state, moved = stage_to_cpu(manifest, state, fresh, cpu_budget)
                assert moved == manifest.bytes_of(
                    frozenset(state.cpu_lru) - frozenset(before.cpu_lru))
            elif op == "load":
                check_device(manifest, blocks, gpu_budget)
                state = CacheState(blocks, state.cpu_lru)
            else:
                state = evict(manifest, state, rng.randrange(0, sum(sizes)),
                              protected=blocks.intersection(state.cpu_lru))
            if op != "load":
                assert state.gpu_resident == before.gpu_resident
        except BudgetExceededError as err:
            assert err.shortfall_bytes > 0
            if op == "load":
                assert manifest.bytes_of(blocks) > gpu_budget
            assert state == before  # failing op must not disturb the state
        check_device(manifest, state.gpu_resident, gpu_budget)
        check_host(manifest, state.cpu_lru, cpu_budget)

"""Prefetch planning and virtual-time execution."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim.block_store import CacheState, ModelManifest
from switchsim.errors import ConfigError
from switchsim.prefetch import block_usefulness, execute_prefetch, plan_prefetch, rank_preload
from switchsim.switching import CostModel
from switchsim.transitions import TransitionModel, assign_tiers, fit_transition_model

MB = 1_000_000


def make_setup(n=8, block_mb=10, cpu_budget_blocks=8):
    """A manifest, an empty cache and a host budget."""
    manifest = ModelManifest("m", (block_mb * MB,) * n)
    return manifest, CacheState(), cpu_budget_blocks * block_mb * MB


# Current task uses {0,1}; successors B (p=0.7) uses {1,2,3}, C (p=0.3)
# uses {3,4}. Level-2 is therefore {2,3,4}.
def two_successor_setup(cpu_budget_blocks=8):
    manifest, state, budget = make_setup(cpu_budget_blocks=cpu_budget_blocks)
    actives = {"A": frozenset({0, 1}), "B": frozenset({1, 2, 3}),
               "C": frozenset({3, 4})}
    model = TransitionModel(
        counts={("A", "B"): 7, ("A", "C"): 3},
        probs={("A", "B"): 0.7, ("A", "C"): 0.3},
        successors={"A": ("B", "C")}, k=2,
    )
    tiers = assign_tiers("A", actives, model)
    weights = block_usefulness("A", model, actives)
    return manifest, state, budget, tiers, weights


def plan_for(tiers, weights, state, manifest, budget):
    """The plan a replay makes for these tiers and weights."""
    return plan_prefetch(rank_preload(tiers, weights), tiers.runtime | tiers.preload,
                         state, manifest, budget)


COST = CostModel(disk_to_cpu_mbps=1000.0, cpu_to_gpu_mbps=4000.0,
                 per_block_fixed_ms=0.0)
# 10 MB over 1000 MB/s = 10 ms per block on the disk link. Every manifest
# here has 8 such blocks; a replay passes the same per-block tuple.
DISK_MS = (COST.disk_ms(10 * MB),) * 8


class TestPlanPrefetch:
    def test_shared_block_takes_max_successor_probability(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        assert weights[3] == 0.7  # needed by both successors; max wins
        plan = plan_for(tiers, weights, state, manifest, budget)
        assert plan.entries == (2, 3, 4)  # 0.7, 0.7, 0.3; id breaks the tie
        assert [weights[b] for b in plan.entries] == [0.7, 0.7, 0.3]

    def test_budget_admits_all_candidates(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        plan = plan_for(tiers, weights, state, manifest, budget)
        assert set(plan.entries) == tiers.preload
        assert manifest.bytes_of(plan.entries) == 30 * MB

    def test_zero_budget_yields_empty_plan(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        plan = plan_for(tiers, weights, state, manifest, 0)
        assert plan.entries == ()
        assert manifest.bytes_of(plan.entries) == 0

    def test_resident_blocks_are_not_replanned(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        state = CacheState(cpu_lru=(3,))
        plan = plan_for(tiers, weights, state, manifest, budget)
        assert 3 not in plan.entries

    def test_oversized_candidate_is_skipped_not_fatal(self):
        manifest, state, budget, tiers, weights = two_successor_setup(
            cpu_budget_blocks=2)
        plan = plan_for(tiers, weights, state, manifest, budget)
        assert plan.entries == (2, 3)  # third candidate no longer fits
        assert manifest.bytes_of(plan.entries) <= budget


class TestExecutePrefetch:
    def test_window_covers_whole_plan(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        plan = plan_for(tiers, weights, state, manifest, budget)
        state, staged, moved = execute_prefetch(plan, state, 1000.0, DISK_MS, manifest, budget)
        assert staged == (2, 3, 4)
        assert moved == 30 * MB
        assert state.cpu_resident == {2, 3, 4}

    def test_zero_window_stages_nothing(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        plan = plan_for(tiers, weights, state, manifest, budget)
        state, staged, moved = execute_prefetch(plan, state, 0.0, DISK_MS, manifest, budget)
        assert staged == ()
        assert moved == 0

    def test_window_fits_exactly_two_blocks(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        plan = plan_for(tiers, weights, state, manifest, budget)
        state, staged, _ = execute_prefetch(plan, state, 20.0, DISK_MS, manifest, budget)
        assert staged == (2, 3)  # first two plan entries, atomically staged

    @given(window=st.floats(0.0, 60.0))
    @settings(max_examples=60, deadline=None)
    def test_staged_set_is_a_plan_prefix(self, window):
        manifest, state, budget, tiers, weights = two_successor_setup()
        plan = plan_for(tiers, weights, state, manifest, budget)
        _, staged, _ = execute_prefetch(plan, state, window, DISK_MS, manifest, budget)
        assert staged == plan.entries[:len(staged)]

    def test_larger_window_never_stages_fewer(self):
        manifest, state, budget, tiers, weights = two_successor_setup()
        plan = plan_for(tiers, weights, state, manifest, budget)
        sizes = []
        for window in (0.0, 5.0, 10.0, 15.0, 25.0, 40.0):
            _, staged, _ = execute_prefetch(plan, state, window, DISK_MS, manifest, budget)
            sizes.append(len(staged))
        assert sizes == sorted(sizes)

    def test_staged_blocks_are_most_recent_in_plan_order(self):
        manifest, state, budget, tiers, _ = two_successor_setup()
        weights = {4: 0.9, 2: 0.5, 3: 0.5}
        plan = plan_for(tiers, weights, state, manifest, budget)
        assert plan.entries == (4, 2, 3)
        state, staged, _ = execute_prefetch(plan, state, 1000.0, DISK_MS, manifest, budget)
        assert staged == state.cpu_lru == (4, 2, 3)

    def test_execution_respects_host_budget(self):
        manifest, state, budget, tiers, weights = two_successor_setup(
            cpu_budget_blocks=2)
        plan = plan_for(tiers, weights, state, manifest, budget)
        state, staged, _ = execute_prefetch(
            plan, state, 1000.0, DISK_MS, manifest, budget,
            protected=tiers.runtime | tiers.preload)
        assert manifest.bytes_of(state.cpu_resident) <= budget

    def test_plan_respects_planning_capacity(self):
        # Stale host-resident block outside levels 1-2 counts as evictable.
        manifest, state, budget, tiers, weights = two_successor_setup(
            cpu_budget_blocks=3)
        state = CacheState(cpu_lru=(7,))
        plan = plan_for(tiers, weights, state, manifest, budget)
        assert set(plan.entries) == {2, 3, 4}
        state, staged, _ = execute_prefetch(
            plan, state, 1000.0, DISK_MS, manifest, budget,
            protected=tiers.runtime | tiers.preload)
        assert staged == (2, 3, 4)
        assert 7 not in state.cpu_resident  # straggler evicted to make room


@st.composite
def tiering_inputs(draw):
    """Active sets for up to four tasks, a model fitted to a drawn log, and
    a running task."""
    n = draw(st.integers(1, 10))
    ids = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    active = {tid: frozenset(draw(st.lists(st.integers(0, n - 1), unique=True)))
              for tid in ids}
    log = draw(st.lists(st.sampled_from(ids), max_size=30))
    model = fit_transition_model(log, k=draw(st.integers(1, 3)))
    return draw(st.sampled_from(ids)), model, active


@given(tiering_inputs())
@settings(max_examples=200, deadline=None)
def test_usefulness_weights_only_runtime_and_preload_blocks(inputs):
    # Both walk the running task's likely successors, so every weighted
    # block is protected in a replay and eviction by recency alone takes
    # the victims usefulness-aware eviction would.
    current, model, active = inputs
    tiers = assign_tiers(current, active, model)
    assert block_usefulness(current, model, active).keys() \
        <= tiers.runtime | tiers.preload


def test_a_successor_without_an_active_set_is_refused_by_tiering_and_usefulness():
    # Both walk the running task's top-K successors, so both refuse one
    # that has no active set, with the same error.
    model = TransitionModel(counts={("A", "B"): 1}, probs={("A", "B"): 1.0},
                            successors={"A": ("B",)}, k=1)
    active = {"A": frozenset({0, 1})}
    message = "^no active set for successor task 'B'$"
    with pytest.raises(ConfigError, match=message):
        assign_tiers("A", active, model)
    with pytest.raises(ConfigError, match=message):
        block_usefulness("A", model, active)

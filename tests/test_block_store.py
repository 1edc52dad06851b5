"""Block manifest, host staging and eviction, and device loading semantics,
and the states and plans the hot path builds without their ``__new__``."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim.block_store import (CacheState, ModelManifest, evict, load_to_gpu,
                                   stage_to_cpu)
from switchsim.errors import BudgetExceededError, ManifestError
from switchsim.prefetch import PrefetchPlan, plan_prefetch

from opharness import run_random_ops

MB = 1_000_000


def uniform_manifest(n: int, size: int = 10 * MB) -> ModelManifest:
    return ModelManifest(f"m{n}", (size,) * n)


def state_with(manifest: ModelManifest, gpu=(), cpu=(), gpu_budget=None,
               cpu_budget=None) -> CacheState:
    total = sum(manifest.block_sizes)
    return CacheState(
        gpu_budget_bytes=total if gpu_budget is None else gpu_budget,
        cpu_budget_bytes=total if cpu_budget is None else cpu_budget,
        gpu_resident=frozenset(gpu),
        cpu_lru=tuple(cpu),
    )


class TestManifest:
    def test_rejects_empty(self):
        with pytest.raises(ManifestError):
            ModelManifest("m", ())

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ManifestError):
            ModelManifest("m", (10, 0))

    @pytest.mark.parametrize("sizes", [(True, 2), (1.5, 2), (2.0,), ("3",), (None,)],
                             ids=repr)
    def test_rejects_sizes_that_are_not_integers(self, sizes):
        # Unchecked, True is a 1-byte block, 1.5 a fractional one, and "3"
        # fails with a bare TypeError.
        with pytest.raises(ManifestError, match="block_sizes"):
            ModelManifest("m", sizes)

    def test_from_json_ignores_shard_prefix(self):
        # Manifest files written for the removed shard store still load.
        m = ModelManifest.from_json({
            "model_name": "x", "block_sizes_bytes": [5, 6], "shard_prefix": "s_",
        })
        assert m == ModelManifest("x", (5, 6))
        assert sum(m.block_sizes) == 11


class TestStageToCpu:
    def test_empty_cache_fill(self):
        m = uniform_manifest(8)
        state, moved = stage_to_cpu(m, state_with(m), {3, 4})
        assert state.cpu_resident == {3, 4}
        assert moved == 20 * MB

    def test_resident_block_refused(self):
        m = uniform_manifest(8)
        s0 = state_with(m, cpu=(3,))
        with pytest.raises(ManifestError, match="does not hold"):
            stage_to_cpu(m, s0, {3, 4})
        assert s0.cpu_lru == (3,)  # untouched

    def test_budget_exceeded_reports_shortfall(self):
        m = uniform_manifest(8)
        s0 = state_with(m, cpu_budget=15 * MB)
        with pytest.raises(BudgetExceededError) as err:
            stage_to_cpu(m, s0, {3, 4})
        assert err.value.shortfall_bytes == 5 * MB
        assert s0.cpu_resident == frozenset()  # untouched

    def test_repeated_block_refused(self):
        m = uniform_manifest(8)
        s0 = state_with(m, cpu=(1,))
        with pytest.raises(ManifestError, match="distinct"):
            stage_to_cpu(m, s0, [4, 3, 4])
        assert s0.cpu_lru == (1,)  # untouched

    def test_unknown_block_rejected(self):
        m = uniform_manifest(4)
        with pytest.raises(ManifestError):
            stage_to_cpu(m, state_with(m), {9})

    @pytest.mark.parametrize("num_blocks, blocks", [
        (16, [3, 256]), (16, (300,)), (300, [3, 256]), (300, (299,)),
    ], ids=["unknown-256", "unknown-300", "known-256", "known-299"])
    def test_ids_past_a_byte_stage_only_when_known(self, num_blocks, blocks):
        # Host orders are tuples, so no id width is special: unknown to a
        # 16-block manifest is a ManifestError that leaves the state as it
        # was, and known to a 300-block one stages after the resident ids.
        m = uniform_manifest(num_blocks)
        s0 = state_with(m, cpu=(1, 2))
        if num_blocks < max(blocks):
            with pytest.raises(ManifestError, match="unknown"):
                stage_to_cpu(m, s0, blocks)
            assert s0.cpu_lru == (1, 2)
        else:
            state, moved = stage_to_cpu(m, s0, blocks)
            assert state.cpu_lru == (1, 2, *blocks)
            assert moved == len(blocks) * 10 * MB


class TestLoadToGpu:
    def test_device_holds_exactly_the_target(self):
        m = uniform_manifest(8)
        s0 = state_with(m, gpu=(0, 1, 2), cpu=(5,))
        state = load_to_gpu(s0, frozenset({2, 3}), 20 * MB)
        assert state.gpu_resident == {2, 3}  # 0 and 1 dropped, 3 added
        assert state.cpu_resident == {5}

    def test_over_budget_target_raises_and_leaves_state(self):
        m = uniform_manifest(8)
        s0 = state_with(m, gpu=(0,), gpu_budget=25 * MB)
        with pytest.raises(BudgetExceededError) as err:
            load_to_gpu(s0, frozenset({1, 2, 3}), 30 * MB)
        assert err.value.tier == "gpu"
        assert err.value.shortfall_bytes == 5 * MB
        assert s0.gpu_resident == {0}  # untouched


class TestEvict:
    def test_lru_tie_break_hand_trace(self):
        m = uniform_manifest(8)
        s0 = CacheState(
            gpu_budget_bytes=sum(m.block_sizes), cpu_budget_bytes=sum(m.block_sizes),
            cpu_lru=(1, 2, 0),
        )
        state = evict(m, s0, 10 * MB, protected=frozenset({0}))
        assert state.cpu_resident == {0, 2}
        assert state.cpu_lru == (2, 0)

    # Blocks of 10 MB, 1 and 3 protected between the victims 0, 2 and 4.
    @pytest.mark.parametrize("needed, lru", [
        (1, (1, 2, 3, 4)),              # the least recently used victim covers it
        (20 * MB, (1, 3, 4)),           # exact cover by 0 and 2: 4 stays
        (20 * MB + 1, (1, 3)),          # one byte more takes 4 as well
        (30 * MB, (1, 3)),              # every unprotected block, exactly
    ], ids=["one-victim", "exact-cover", "one-past-cover", "all-unprotected"])
    def test_protected_blocks_between_victims_hand_trace(self, needed, lru):
        m = uniform_manifest(8)
        s0 = state_with(m, gpu=(5,), cpu=(0, 1, 2, 3, 4))
        state = evict(m, s0, needed, protected=frozenset({1, 3}))
        assert state.cpu_lru == lru
        assert state.gpu_resident == s0.gpu_resident

    def test_shortfall_past_every_unprotected_block(self):
        m = uniform_manifest(8)
        s0 = state_with(m, cpu=(0, 1, 2, 3, 4))
        with pytest.raises(BudgetExceededError) as err:
            evict(m, s0, 30 * MB + 1, protected=frozenset({1, 3}))
        assert (err.value.tier, err.value.shortfall_bytes) == ("cpu", 1)

    def test_zero_bytes_needed_is_identity(self):
        m = uniform_manifest(4)
        s0 = state_with(m, cpu=(0, 1))
        assert evict(m, s0, 0) == s0

    def test_all_protected_raises(self):
        m = uniform_manifest(4)
        s0 = state_with(m, cpu=(0, 1))
        with pytest.raises(BudgetExceededError):
            evict(m, s0, 1, protected=frozenset({0, 1}))


def assert_like_constructed(built: tuple, cls: type) -> None:
    """``built``, made without ``cls``'s generated ``__new__``, is an
    instance of ``cls`` that behaves as the constructor-built one does."""
    made = cls(*built)
    assert type(built) is cls
    assert len(built) == len(cls._fields) == len(made)
    assert built == made and not built != made
    assert hash(built) == hash(made)
    assert repr(built) == repr(made)
    assert built._asdict() == made._asdict()
    first = cls._fields[0]
    assert built._replace(**{first: 0}) == made._replace(**{first: 0})
    assert type(built._replace(**{first: 0})) is cls


class TestBuiltStates:
    """The states the operations build behave as constructor-built ones."""

    def test_stage_evict_and_load_build_cache_states(self):
        m = uniform_manifest(8)
        s0 = state_with(m, cpu=(0, 1, 2), cpu_budget=40 * MB)
        staged, _ = stage_to_cpu(m, s0, (3, 4), frozenset({1}))
        assert staged.cpu_lru == (1, 2, 3, 4)
        evicted = evict(m, staged, 10 * MB)
        loaded = load_to_gpu(staged, frozenset({5}), 10 * MB)
        for state in (staged, evicted, loaded):
            assert_like_constructed(state, CacheState)
        assert evicted == state_with(m, cpu=(2, 3, 4), cpu_budget=40 * MB)
        assert loaded == state_with(m, gpu=(5,), cpu=(1, 2, 3, 4), cpu_budget=40 * MB)
        assert loaded.cpu_resident == frozenset({1, 2, 3, 4})

    def test_built_states_key_a_dict_with_constructed_ones(self):
        m = uniform_manifest(4)
        built = stage_to_cpu(m, state_with(m), (2, 0))[0]
        assert {state_with(m, cpu=(2, 0)): "x"}[built] == "x"

    def test_plans_are_built_as_prefetch_plans(self):
        # The planner builds its plans the same way.
        m = uniform_manifest(8)
        plan = plan_prefetch((5, 3, 4), frozenset({0, 3, 4, 5}),
                             state_with(m, gpu=(0,), cpu=(4,), cpu_budget=30 * MB), m)
        assert_like_constructed(plan, PrefetchPlan)
        assert plan == PrefetchPlan((5, 3))


ITERABLES = {"generator": lambda ids: (b for b in ids), "frozenset": frozenset,
             "tuple": tuple, "list": list}


class TestBytesOf:
    @pytest.mark.parametrize("make", ITERABLES.values(), ids=ITERABLES.keys())
    def test_sums_any_iterable_of_ids(self, make):
        assert ModelManifest("m", (5, 6, 7)).bytes_of(make((2, 0))) == 12

    @pytest.mark.parametrize("make", ITERABLES.values(), ids=ITERABLES.keys())
    def test_empty_iterable_is_zero_bytes(self, make):
        assert ModelManifest("m", (5, 6, 7)).bytes_of(make(())) == 0


class TestCheckHost:
    def test_block_listed_twice_rejected(self):
        m = uniform_manifest(4)
        with pytest.raises(ManifestError, match="twice"):
            state_with(m, cpu=(1, 2, 1)).check_host(m)

    def test_unknown_block_rejected(self):
        m = uniform_manifest(4)
        with pytest.raises(ManifestError, match="unknown"):
            state_with(m, cpu=(0, 4)).check_host(m)

    def test_over_budget_rejected(self):
        m = uniform_manifest(4)
        with pytest.raises(BudgetExceededError) as err:
            state_with(m, cpu=(0, 1, 2), cpu_budget=25 * MB).check_host(m)
        assert (err.value.tier, err.value.shortfall_bytes) == ("cpu", 5 * MB)


class TestProperties:
    def test_budget_safety_random_sequences(self):
        for seed in range(300):
            run_random_ops(seed)

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=60, deadline=None)
    def test_budget_safety_hypothesis(self, seed):
        run_random_ops(seed)

    def test_restage_refused_and_reload_idempotent(self):
        m = uniform_manifest(6)
        target = {1, 3, 5}
        state, _ = stage_to_cpu(m, state_with(m), target)
        with pytest.raises(ManifestError):
            stage_to_cpu(m, state, target)
        target_bytes = m.bytes_of(target)
        loaded = load_to_gpu(state, frozenset(target), target_bytes)
        assert loaded.gpu_resident == target
        assert load_to_gpu(loaded, frozenset(target), target_bytes) == loaded

    def test_determinism(self):
        m = uniform_manifest(8)
        s0 = CacheState(
            gpu_budget_bytes=35 * MB, cpu_budget_bytes=25 * MB,
            gpu_resident=frozenset({0, 1, 2}),
            cpu_lru=(4, 3),
        )
        runs = [load_to_gpu(stage_to_cpu(m, s0, {5})[0], frozenset({1, 5}), 20 * MB)
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]

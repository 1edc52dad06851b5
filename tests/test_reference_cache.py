"""The host-cache operations against their references in ``reference_cache``."""
from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim.block_store import CacheState, ModelManifest, evict, stage_to_cpu
from switchsim.errors import BudgetExceededError, ManifestError, SwitchSimError
from switchsim.prefetch import PrefetchPlan, execute_prefetch, plan_prefetch
from switchsim.switching import CostModel
from switchsim.transitions import TierAssignment

from reference_cache import (reference_evict, reference_execute_prefetch,
                             reference_plan_prefetch, reference_stage_to_cpu)

# A block of s bytes takes s ms on the disk link.
COST = CostModel(disk_to_cpu_mbps=0.001, cpu_to_gpu_mbps=1.0)


def disk_ms(manifest: ModelManifest, cost: CostModel = COST) -> tuple[float, ...]:
    """Each block's disk-link time, the tuple a replay passes to
    ``execute_prefetch``; the reference calls ``cost.disk_ms`` itself."""
    return tuple(map(cost.disk_ms, manifest.block_sizes))


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type and shortfall of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except SwitchSimError as exc:
        return type(exc), getattr(exc, "shortfall_bytes", None)


def usefulness(blocks: frozenset[int]):
    """Usefulness weights over ``blocks`` only: ``None``, empty, or drawn
    from a few values so that ties are common."""
    weights = st.sampled_from([0.0, 0.25, 0.5, 1.0])
    return st.one_of(st.none(), st.just({}),
                     st.dictionaries(st.sampled_from(sorted(blocks)), weights)
                     if blocks else st.just({}))


@st.composite
def cache_cases(draw):
    """A manifest, a consistent state, usefulness weights and a protected set.

    Sizes are uniform or varied. The weights name protected blocks only,
    as in a replay, where the reference's usefulness-aware eviction and
    the recency-only one must agree.
    """
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        sizes = (draw(st.integers(1, 40)),) * n
    else:
        sizes = tuple(draw(st.lists(st.integers(1, 40), min_size=n, max_size=n)))
    manifest = ModelManifest("m", sizes)
    blocks = st.integers(0, n - 1)
    lru = tuple(draw(st.lists(blocks, unique=True)))
    state = CacheState(
        gpu_budget_bytes=draw(st.integers(max(sizes), sum(sizes) + 10)),
        cpu_budget_bytes=draw(st.integers(max(sizes), sum(sizes) + 10)),
        gpu_resident=frozenset(draw(st.lists(blocks, unique=True))),
        cpu_lru=lru,
    )
    protected = frozenset(draw(st.lists(blocks, unique=True)))
    return manifest, state, draw(usefulness(protected)), protected


@settings(max_examples=300, deadline=None)
@given(cache_cases(), st.data())
def test_evict_matches_reference(case, data):
    manifest, state, probs, protected = case
    needed = data.draw(st.integers(-5, sum(manifest.block_sizes) + 5))
    assert outcome(evict, manifest, state, needed, protected) \
        == outcome(reference_evict, manifest, state, needed, protected, probs)


@settings(max_examples=300, deadline=None)
@given(cache_cases(), st.data())
def test_stage_to_cpu_matches_reference(case, data):
    manifest, state, probs, protected = case
    # Ids may repeat or be host-resident, and one id past the manifest is
    # drawn too; half the draws take only ids the host does not hold.
    ids = range(manifest.num_blocks + 1)
    if data.draw(st.booleans()):
        ids = [b for b in ids if b not in state.cpu_lru]
    wanted = data.draw(st.lists(st.sampled_from(ids), unique=data.draw(st.booleans())))
    fast = outcome(stage_to_cpu, manifest, state, wanted, protected)
    if len(set(wanted)) == len(wanted) and state.cpu_resident.isdisjoint(wanted):
        assert fast == outcome(reference_stage_to_cpu, manifest, state, wanted, protected,
                               probs)
    else:
        assert fast == (ManifestError, None)


@settings(max_examples=300, deadline=None)
@given(cache_cases(), st.data())
def test_plan_and_execute_prefetch_match_reference(case, data):
    manifest, state, _probs, protected = case
    blocks = st.integers(0, manifest.num_blocks - 1)
    runtime = frozenset(data.draw(st.lists(blocks, unique=True)))
    preload = frozenset(data.draw(st.lists(blocks, unique=True)))
    if data.draw(st.booleans()):
        preload -= runtime  # the shape assign_tiers produces
    tiers = TierAssignment(runtime=runtime, preload=preload)
    weights = data.draw(usefulness(runtime | preload)) or {}
    ranked = tuple(sorted(preload, key=lambda b: (-weights.get(b, 0.0), b)))
    plan = plan_prefetch(ranked, runtime | preload, state, manifest)
    assert plan == reference_plan_prefetch(tiers, weights, state, manifest)
    window = data.draw(st.floats(0.0, sum(manifest.block_sizes) + 5.0))
    absent = sorted(manifest.all_blocks - state.cpu_resident)
    shape = data.draw(st.sampled_from(["planned", "any", "full-host"]))
    if shape != "planned" and absent:
        # Any order of any non-resident blocks, so that sizes and plan order
        # differ from the planner's and the host budget can run out.
        order = data.draw(st.permutations(absent))
        plan = PrefetchPlan(tuple(order[:data.draw(st.integers(1, len(order)))]))
    if shape == "full-host" and absent:
        # A host full of protected blocks, with less free space than the
        # plan and a window for all of it: staging fails, and the error must
        # carry the whole plan's shortfall.
        protected |= state.cpu_resident
        free = data.draw(st.integers(0, manifest.bytes_of(plan.entries) - 1))
        state = state._replace(
            cpu_budget_bytes=manifest.bytes_of(state.cpu_resident) + free)
        window = sum(manifest.block_sizes) + 5.0
    elif data.draw(st.booleans()):
        protected = runtime | preload  # contains the plan, as in a replay
    # The reference evicts by usefulness; a replay's weights name only
    # protected blocks.
    useful = {b: w for b, w in weights.items() if b in protected}
    assert outcome(execute_prefetch, plan, state, window, disk_ms(manifest), manifest,
                   protected) \
        == outcome(reference_execute_prefetch, plan, state, window, COST, manifest,
                   protected, useful)


def test_execute_prefetch_reports_the_whole_prefixs_shortfall():
    # Staging 2 overflows the full, protected host by 10 bytes, and 3 as
    # well by 20: the window covers both, so the error carries 20.
    manifest = ModelManifest("m", (10, 10, 10, 10))
    state = CacheState(gpu_budget_bytes=40, cpu_budget_bytes=20,
                       cpu_lru=(0, 1))
    plan, protected = PrefetchPlan((2, 3)), frozenset({0, 1})
    assert outcome(reference_execute_prefetch, plan, state, 100.0, COST, manifest,
                   protected) == (BudgetExceededError, 20)
    assert outcome(execute_prefetch, plan, state, 100.0, disk_ms(manifest), manifest,
                   protected) == (BudgetExceededError, 20)


# Blocks 0..5 of 10, 20, ..., 60 bytes; block 1 is protected throughout.
SIZED = ModelManifest("m", (10, 20, 30, 40, 50, 60))


@pytest.mark.parametrize("lru, blocks, budget, expected", [
    # All fresh: 40 bytes over, covered exactly by 0 and 2 around protected 1.
    ((0, 1, 2), [4, 3], 110, ((1, 4, 3), 90)),
    # All fresh, with room: appended in the given order.
    ((0, 1, 2), [5, 3], 200, ((0, 1, 2, 5, 3), 100)),
    # All fresh, but the overflow needs protected 1: the whole shortfall.
    ((0, 1, 2), [5, 3], 110, (BudgetExceededError, 10)),
], ids=["fresh-evicting", "fresh", "fresh-short"])
def test_stage_to_cpu_hand_cases_match_reference(lru, blocks, budget, expected):
    state = CacheState(gpu_budget_bytes=210, cpu_budget_bytes=budget, cpu_lru=lru)
    protected = frozenset({1})
    fast = outcome(stage_to_cpu, SIZED, state, blocks, protected)
    assert fast == outcome(reference_stage_to_cpu, SIZED, state, blocks, protected)
    if isinstance(fast, tuple) and isinstance(fast[0], CacheState):
        fast = (fast[0].cpu_lru, fast[1])
    assert fast == expected


@pytest.mark.parametrize("lru, blocks", [
    ((0, 1, 2), [2, 3, 0]),     # partly resident
    ((0, 1, 2), [1]),           # resident and protected
    ((1, 0), [3, 1, 3]),        # repeated and resident
    ((0,), [3, 4, 3]),          # repeated, none resident
], ids=["partly-resident", "resident-protected", "repeat-resident", "repeat-fresh"])
def test_stage_to_cpu_refuses_resident_or_repeated_blocks(lru, blocks):
    state = CacheState(gpu_budget_bytes=210, cpu_budget_bytes=210, cpu_lru=lru)
    with pytest.raises(ManifestError):
        stage_to_cpu(SIZED, state, blocks, frozenset({1}))
    assert state.cpu_lru == lru


@pytest.mark.parametrize("window, staged", [
    (4.0, (0, 1)),      # 1.5 + 2.5 lands on the window exactly: both fit
    (3.999, (0,)),
    (5.0, (0, 1, 2)),   # 1.5 + 2.5 + 1.0, exactly again
])
def test_execute_prefetch_window_boundary_with_fixed_cost(window, staged):
    # With a 0.5 ms fixed cost per block, blocks of 1,000, 2,000 and 500
    # bytes take 1.5, 2.5 and 1.0 ms on a 1 MB/s link; every sum is exact.
    cost = CostModel(disk_to_cpu_mbps=1.0, cpu_to_gpu_mbps=1.0, per_block_fixed_ms=0.5)
    manifest = ModelManifest("m", (1000, 2000, 500, 700))
    state = CacheState(gpu_budget_bytes=4200, cpu_budget_bytes=3500, cpu_lru=(3,))
    plan = PrefetchPlan((0, 1, 2))
    fast = execute_prefetch(plan, state, window, disk_ms(manifest, cost), manifest)
    assert fast == reference_execute_prefetch(plan, state, window, cost, manifest)
    assert fast[1] == staged

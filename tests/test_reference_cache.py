"""The host-cache operations against their references in ``reference_cache``."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim.block_store import CacheState, ModelManifest, _touch, evict, stage_to_cpu
from switchsim.errors import BudgetExceededError, SwitchSimError
from switchsim.prefetch import PrefetchPlan, execute_prefetch, plan_prefetch
from switchsim.switching import CostModel
from switchsim.transitions import TierAssignment

from reference_cache import (reference_evict, reference_execute_prefetch,
                             reference_plan_prefetch, reference_stage_to_cpu,
                             reference_touch)

# A block of s bytes takes s ms on the disk link.
COST = CostModel(disk_to_cpu_mbps=0.001, cpu_to_gpu_mbps=1.0)


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
    # One id past the manifest is drawn too, to compare the unknown-id error.
    wanted = data.draw(st.lists(st.integers(0, manifest.num_blocks), unique=True))
    assert outcome(stage_to_cpu, manifest, state, wanted, protected) \
        == outcome(reference_stage_to_cpu, manifest, state, wanted, protected, probs)


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
        # carry the shortfall at the first block that does not fit.
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
    args = (plan, state, window, COST, manifest, protected)
    assert outcome(execute_prefetch, *args) \
        == outcome(reference_execute_prefetch, *args, useful)


def test_execute_prefetch_reports_the_first_failing_blocks_shortfall():
    # Staging 2 overflows the full, protected host by 10 bytes; staging 3
    # as well would overflow it by 20. The one-at-a-time pass fails at 2.
    manifest = ModelManifest("m", (10, 10, 10, 10))
    state = CacheState(gpu_budget_bytes=40, cpu_budget_bytes=20,
                       cpu_lru=(0, 1))
    args = (PrefetchPlan((2, 3)), state, 100.0, COST, manifest, frozenset({0, 1}))
    assert outcome(reference_execute_prefetch, *args) == (BudgetExceededError, 10)
    assert outcome(execute_prefetch, *args) == (BudgetExceededError, 10)


@given(st.lists(st.integers(0, 9), unique=True).flatmap(
    lambda lru: st.tuples(st.just(tuple(lru)),
                          st.lists(st.integers(0, 9), unique=True))))
def test_touch_matches_reference(case):
    lru, order = case
    assert _touch(lru, frozenset(order), tuple(order)) == reference_touch(lru, order)

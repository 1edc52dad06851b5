"""The host-cache operations against their references in ``reference_cache``."""
from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim.block_store import (CacheState, ModelManifest, TierAssignment, _touch,
                                   evict, stage_to_cpu)
from switchsim.errors import SwitchSimError
from switchsim.prefetch import execute_prefetch, plan_prefetch
from switchsim.switching import CostModel

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


@st.composite
def cache_cases(draw):
    """A manifest, a consistent state, usefulness weights and a protected set.

    Sizes are uniform or varied; weights are ``None``, empty, or drawn from
    a few values so that ties are common.
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
        cpu_resident=frozenset(lru),
        cpu_lru=lru,
    )
    probs = draw(st.one_of(
        st.none(), st.just({}),
        st.dictionaries(blocks, st.sampled_from([0.0, 0.25, 0.5, 1.0]))))
    protected = frozenset(draw(st.lists(blocks, unique=True)))
    return manifest, state, probs, protected


@settings(max_examples=300, deadline=None)
@given(cache_cases(), st.data())
def test_evict_matches_reference(case, data):
    manifest, state, probs, protected = case
    needed = data.draw(st.integers(-5, sum(manifest.block_sizes) + 5))
    assert outcome(evict, manifest, state, needed, protected, probs) \
        == outcome(reference_evict, manifest, state, needed, protected, probs)


@settings(max_examples=300, deadline=None)
@given(cache_cases(), st.data())
def test_stage_to_cpu_matches_reference(case, data):
    manifest, state, probs, protected = case
    # One id past the manifest is drawn too, to compare the unknown-id error.
    wanted = data.draw(st.lists(st.integers(0, manifest.num_blocks), unique=True))
    assert outcome(stage_to_cpu, manifest, state, wanted, protected, probs) \
        == outcome(reference_stage_to_cpu, manifest, state, wanted, protected, probs)


@settings(max_examples=300, deadline=None)
@given(cache_cases(), st.data())
def test_plan_and_execute_prefetch_match_reference(case, data):
    manifest, state, probs, protected = case
    blocks = st.integers(0, manifest.num_blocks - 1)
    runtime = frozenset(data.draw(st.lists(blocks, unique=True)))
    preload = frozenset(data.draw(st.lists(blocks, unique=True)))
    if data.draw(st.booleans()):
        preload -= runtime  # the shape assign_tiers produces
    tiers = TierAssignment(runtime=runtime, preload=preload)
    weights = probs or {}
    plan = plan_prefetch(tiers, weights, state, manifest)
    assert plan == reference_plan_prefetch(tiers, weights, state, manifest)
    if data.draw(st.booleans()):
        protected = runtime | preload  # contains the plan, as in a replay
    window = data.draw(st.floats(0.0, sum(manifest.block_sizes) + 5.0))
    args = (plan, state, window, COST, manifest, protected, probs)
    assert outcome(execute_prefetch, *args) == outcome(reference_execute_prefetch, *args)


@given(st.lists(st.integers(0, 9), unique=True).flatmap(
    lambda lru: st.tuples(st.just(tuple(lru)),
                          st.frozensets(st.integers(0, 9)))))
def test_touch_matches_reference(case):
    lru, blocks = case
    assert _touch(lru, blocks) == reference_touch(lru, blocks)

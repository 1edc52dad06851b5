"""Greedy skip-set selection, shared-pool alignment, and overlap measurement."""
from __future__ import annotations

import itertools
import math
import random
import statistics
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim.errors import EXACT_SCALE, ConfigError, OracleError
from switchsim.sparsity import (AdditiveOracle, MetricOracle, RemovalRanking, TableOracle,
                                TaskSpec, build_all_tasks, jaccard, select_skip_set)
from switchsim.synthetic import gen_instance

from reference import brute_force_greedy_replay, enumerate_table_entries, reference_select


def task(max_remove: int, retention: float = 0.9, task_id: str = "t",
         priority: float = 1.0) -> TaskSpec:
    return TaskSpec(task_id=task_id, retention_ratio=retention,
                    max_remove=max_remove, priority_weight=priority)


# Landscapes where scores sit on the threshold or tie: equal weights,
# zeros, decimals that do not add exactly, subnormals and all-zero (total
# 0). Weights one ulp apart can round to equal scores, which the additive
# ranking then holds out of id order.
ADVERSARIAL_WEIGHTS = [
    [1.0] * 9,
    [0.1] * 16,
    [0.1, 0.2, 0.3, 0.0],
    [0.1, 0.3, 0.0] * 6,
    [0.1, 0.09999999999999999, 0.1],
    [0.10000000000000002, 0.3, 0.1],
    [0.1, 0.2, 0.3, 0.0, 0.7] * 8,
    [0.0, 1.0, 0.0, 0.0, 2.0] * 3,
    [0.0] * 6,
    [1e-300, 1e-310, 0.5, 0.5, 1e-320] * 2,
]


def ranking_after(oracle: MetricOracle, removals, pool: frozenset[int] = frozenset()):
    """The oracle's removal ranking and active set after ``removals``, in order."""
    ranking = oracle.removal_ranking(pool)
    active = set(range(oracle.num_blocks))
    for j in removals:
        ranking.step(active)
        active.remove(j)
        ranking.remove(j)
    return ranking, active


def assert_kept_sum_is_fsum(weights: list[float], removals: list[int]) -> None:
    """The additive ranking's int sum, in units of 2**-1074, converts to
    ``math.fsum`` of the active weights before and after each removal."""
    ranking, active = ranking_after(AdditiveOracle(weights), [])
    assert ranking._sum / EXACT_SCALE == math.fsum(weights)
    for j in removals:
        active.remove(j)
        ranking.remove(j)
        assert ranking._sum / EXACT_SCALE == math.fsum(weights[k] for k in active)


def assert_ranking_scores_are_fsum(weights: list[float], removals: list[int],
                                   pool: frozenset[int] = frozenset()) -> None:
    """Before and after each removal, the additive ranking's score of each
    candidate ``j``, the oracle's score of the active set without ``j``,
    and the quotient of the two ``math.fsum`` sums are one float."""
    oracle = AdditiveOracle(weights)
    total = math.fsum(weights)
    ranking, active = ranking_after(oracle, [], pool)
    for j in [*removals, None]:
        _, _, score = ranking.step(active)
        for k in active:
            rest = active - {k}
            exact = math.fsum(weights[i] for i in rest) / total if total else 1.0
            assert score(k) == oracle.score(frozenset(rest)) == exact
        if j is not None:
            active.remove(j)
            ranking.remove(j)


def assert_matches_reference(spec: TaskSpec, oracle, pool: frozenset[int]):
    """All four result fields equal the exactly-scoring reference's."""
    mine = select_skip_set(spec, oracle, pool)
    ref = reference_select(spec, oracle, pool)
    assert (mine.skipped, mine.final_score, mine.oracle_calls, mine.removal_order) == \
        (ref.skipped, ref.final_score, ref.oracle_calls, ref.removal_order)
    return mine


class TestOracles:
    def test_additive_score_is_weight_fraction(self):
        oracle = AdditiveOracle([1.0, 3.0])
        assert oracle.full_score == 1.0
        assert oracle.score(frozenset({1})) == 0.75

    def test_additive_sums_are_correctly_rounded(self):
        # The total is 1e16 + 2 exactly; 1e16 + 1 rounds to even, 1e16. A
        # left-to-right sum would make the total 1e16 and this score 1.0.
        oracle = AdditiveOracle([1e16, 1.0, 1.0])
        assert oracle.score(frozenset({0, 1})) == 0.9999999999999998

    def test_additive_score_ignores_how_the_set_was_built(self):
        # In an 8-slot hash table 8 and 0 collide, so these two equal sets
        # iterate as 8, 0, 1 and as 0, 1, 8.
        oracle = AdditiveOracle([1.0, 1.0] + [0.0] * 6 + [1e16])
        assert oracle.score(frozenset([8, 0, 1])) == oracle.score(frozenset([0, 1, 8])) == 1.0

    def test_additive_needs_a_weight(self):
        with pytest.raises(OracleError, match="^need at least one block weight$"):
            AdditiveOracle([])

    def test_additive_rejects_negative_weights(self):
        with pytest.raises(OracleError):
            AdditiveOracle([1.0, -0.1])

    @pytest.mark.parametrize("weights", [[math.nan, 1.0], [math.inf, 1.0],
                                         [1.0, -math.inf], [1e308, 1e308]])
    def test_additive_rejects_non_finite_weights_and_totals(self, weights):
        # Unchecked, [nan, 1] scores nan and [inf, 1] has a nan full score.
        with pytest.raises(OracleError):
            AdditiveOracle(weights)

    def test_default_ranking_scores_exactly_by_score_then_id(self):
        # Dropping 0 or 2 ties at 0.5, so 0 ranks first.
        full = frozenset(range(4))
        oracle = TableOracle({full: 1.0, full - {0}: 0.5, full - {1}: 0.9,
                              full - {2}: 0.5, full - {3}: 0.7}, num_blocks=4)
        ranking = oracle.removal_ranking(frozenset({0, 2, 3}))
        assert type(ranking) is RemovalRanking
        pooled, ranked, score = ranking.step(set(full))
        ranked = list(ranked)
        assert ranked == [1, 3, 0, 2]
        assert [score(j) for j in ranked] == [0.9, 0.7, 0.5, 0.5]
        assert list(pooled) == [3, 0, 2]

    @given(weights=st.lists(st.sampled_from([0.0, 1e-310, 0.1, 0.3, 1.0, 2.5]) |
                            st.floats(0.0, 10.0), min_size=1, max_size=24),
           data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_additive_rankings_hold_the_active_blocks_by_weight(self, weights, data):
        # Pool preference removes the pool's blocks before lighter ones
        # outside it, so removals break the by-weight order.
        n = len(weights)
        oracle = AdditiveOracle(weights)
        pool = frozenset(data.draw(st.sets(st.sampled_from(range(n)))))
        by_weight = sorted(range(n), key=weights.__getitem__)
        removals = data.draw(st.sampled_from([
            [j for j in by_weight if j in pool] + [j for j in by_weight if j not in pool],
            data.draw(st.permutations(range(n)))]))
        removals = removals[:data.draw(st.integers(0, n))]
        ranking, active = ranking_after(oracle, [], pool)
        for j in removals + [None]:
            pooled, ranked, score = ranking.step(active)
            ranked = list(ranked)
            assert ranked == [k for k in by_weight if k in active]
            assert list(pooled) == [k for k in ranked if k in pool]
            scores = [score(k) for k in ranked]
            assert all(a >= b for a, b in zip(scores, scores[1:]))
            if j is not None:
                active.remove(j)
                ranking.remove(j)

    @pytest.mark.parametrize("weights, expected", [
        # The exact total 1e16 + 2 is above the left-to-right one, 1e16;
        # the scores stay in [0, 1] with no clamp.
        ([1e16, 1.0, 1.0], [0.9999999999999998, 0.9999999999999998,
                            1.9999999999999997e-16]),
        ([0.0, 0.0], [1.0, 1.0]),
    ], ids=["exact-total", "all-zero"])
    def test_additive_ranking_edge_estimates(self, weights, expected):
        ranking, active = ranking_after(AdditiveOracle(weights), [])
        _, ranked, score = ranking.step(active)
        assert [score(j) for j in ranked] == expected

    @given(weights=st.lists(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                                             0.1, 0.3, 1e8]) |
                            st.floats(0.0, 1e8), min_size=1, max_size=40),
           near_range=st.lists(st.sampled_from([2e307, 4e307]), max_size=2),
           data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_kept_sum_equals_fsum_after_any_removals(self, weights, near_range, data):
        # At most two weights near the float range, so the total stays finite.
        weights = data.draw(st.permutations(weights + near_range))
        removals = data.draw(st.permutations(range(len(weights))))
        assert_kept_sum_is_fsum(weights, removals)

    @pytest.mark.parametrize("weights", ADVERSARIAL_WEIGHTS + [
        [1e16, 1.0, 1.0], [4e307, 4e307, 5e-324], [sys.float_info.max / 2]])
    def test_kept_sum_equals_fsum_on_edge_landscapes(self, weights):
        n = len(weights)
        for removals in (range(n), reversed(range(n))):
            assert_kept_sum_is_fsum(weights, list(removals))

    @pytest.mark.parametrize("landscape", [st.just(w) for w in ADVERSARIAL_WEIGHTS + [
        [1e16, 1.0, 1.0], [4e307, 4e307, 5e-324], [sys.float_info.max],
        [sys.float_info.max / 2] * 2 + [5e-324]]] + [
        st.lists(st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308,
                                  0.1, 0.3, 1e8, 2e307, 4e307]) |
                 st.floats(0.0, 1e8), min_size=1, max_size=24)])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_additive_ranking_scores_equal_oracle_scores(self, landscape, data):
        # The fixed landscapes, and drawn ones with weights from subnormal
        # to near the float range, each after any removals and pool. A draw
        # whose total overflows is outside the oracle's domain, which it
        # refuses exactly then.
        weights = data.draw(landscape)
        try:
            math.fsum(weights)
        except OverflowError:
            with pytest.raises(OracleError, match="beyond the float range"):
                AdditiveOracle(weights)
            return
        n = len(weights)
        removals = data.draw(st.permutations(range(n)))[:data.draw(st.integers(0, n))]
        pool = frozenset(data.draw(st.sets(st.sampled_from(range(n)))))
        assert_ranking_scores_are_fsum(weights, removals, pool)

    def test_table_oracle_missing_subset_is_an_error(self):
        oracle = TableOracle({frozenset({0, 1}): 1.0}, num_blocks=2)
        with pytest.raises(OracleError):
            oracle.score(frozenset({0}))

    def test_table_oracle_can_score_above_baseline(self):
        # Sparse accuracy above the full model is expressible via tables.
        oracle = TableOracle({frozenset({0, 1}): 0.8, frozenset({1}): 0.9,
                              frozenset({0}): 0.1}, num_blocks=2)
        res = select_skip_set(task(1, retention=1.0), oracle)
        assert res.skipped == {0}
        assert res.final_score == 0.9


class TestGreedySelect:
    def test_retention_threshold_uses_full_score(self):
        # lambda = 0.9: exactly one of the two light blocks fits the budget.
        oracle = AdditiveOracle([1.0, 1.0, 1.0, 1.0, 1.0, 0.4])
        res = select_skip_set(task(3), oracle)
        assert res.skipped == {5}
        assert res.final_score >= 0.9 * oracle.full_score

    def test_strictly_decreasing_oracle_at_full_retention_removes_nothing(self):
        oracle = AdditiveOracle([1.0, 2.0, 3.0])
        res = select_skip_set(task(3, retention=1.0), oracle)
        assert res.skipped == frozenset()
        assert res.final_score == oracle.full_score

    def test_matches_step_by_step_replay_on_small_instance(self):
        inst = gen_instance(seed=42, num_blocks=6, num_tasks=1, correlation=0.5)
        oracle = inst.oracle(0)
        spec = task(3)
        mine = select_skip_set(spec, oracle)
        ref = brute_force_greedy_replay(oracle, 0.9, 3)
        assert mine.skipped == ref

    def test_respects_max_remove(self):
        oracle = AdditiveOracle([0.0, 0.0, 0.0, 0.0])
        res = select_skip_set(task(2), oracle)
        assert len(res.skipped) == 2

    def test_counts_oracle_calls(self):
        oracle = AdditiveOracle([1.0, 1.0, 0.1, 0.1])
        res = select_skip_set(task(2), oracle)
        # 1 baseline + 4 candidates + 3 candidates.
        assert res.oracle_calls == 8


class TestMatchesReferenceSelector:
    # Retention 0.9 leaves the removal cap binding; at 0.99 and 0.995 the
    # threshold binds. Tasks come in priority order, as in build_all_tasks.
    @pytest.mark.parametrize("num_blocks, num_tasks, max_remove, seeds", [
        (64, 5, None, 8), (256, 3, 12, 2), (512, 2, 4, 1)],
        ids=["64-blocks", "256-blocks", "512-blocks"])
    @pytest.mark.parametrize("align", [True, False], ids=["aligned", "independent"])
    def test_generated_landscapes(self, num_blocks, num_tasks, max_remove, seeds,
                                  align):
        for seed in range(seeds):
            for retention in (0.9, 0.99, 0.995):
                inst = gen_instance(seed, num_blocks, num_tasks, correlation=0.6,
                                    retention_ratio=retention)
                oracles = inst.oracles()
                pool: frozenset[int] = frozenset()
                for spec in inst.task_specs(max_remove=max_remove):
                    res = assert_matches_reference(spec, oracles[spec.task_id], pool)
                    if align:
                        pool |= res.skipped

    @pytest.mark.parametrize("weights", ADVERSARIAL_WEIGHTS)
    @pytest.mark.parametrize("retention", [1.0, 1 - 1e-15, 0.95, 0.5])
    def test_adversarial_grid(self, weights, retention):
        oracle = AdditiveOracle(weights)
        n = len(weights)
        rng = random.Random(n)
        # The heaviest third ranks last, so a pool scan skips most of the ranking.
        heaviest = sorted(range(n), key=weights.__getitem__)[n - n // 3:]
        pools = [frozenset(), frozenset(rng.sample(range(n), n // 3)),
                 frozenset(rng.sample(range(n), 2 * n // 3)), frozenset(heaviest)]
        for pool in pools:
            assert_matches_reference(task(n, retention), oracle, pool)

    @pytest.mark.parametrize("seed", range(3))
    def test_heaviest_half_pool_with_deep_removals(self, seed):
        # Low retention removes critical blocks too, and every removal from
        # the pool leaves a gap ahead of the lighter outsiders in the ranking.
        n = 48
        inst = gen_instance(seed, num_blocks=n, num_tasks=1, correlation=0.5)
        weights = inst.weights[0]
        heaviest = frozenset(sorted(range(n), key=weights.__getitem__)[n // 2:])
        for retention in (0.5, 0.2, 0.05):
            res = assert_matches_reference(task(n, retention), AdditiveOracle(weights),
                                           heaviest)
            assert len(res.skipped & heaviest) > n // 4

    @pytest.mark.parametrize("extra", [0, 1, 5])
    @pytest.mark.parametrize("weights", [[0.0, 1.0, 0.0], [1e-320, 0.0, 1e-310, 3.0],
                                         [2.0, 1.0, 1.0, 2.0]])
    def test_removal_cap_at_or_beyond_block_count(self, weights, extra):
        n = len(weights)
        oracle = AdditiveOracle(weights)
        for retention in (1.0, 0.5, 1e-9):
            for pool in (frozenset(), frozenset({0}), frozenset(range(n))):
                assert_matches_reference(task(n + extra, retention), oracle, pool)

    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_all_zero_weights_remove_every_block(self, n):
        # A zero total scores every set 1.0, so the rankings empty out.
        oracle = AdditiveOracle([0.0] * n)
        for pool in (frozenset(), frozenset({n - 1}), frozenset(range(n))):
            res = assert_matches_reference(task(n + 2, 1.0), oracle, pool)
            assert res.skipped == frozenset(range(n))
            assert res.final_score == 1.0
            assert res.oracle_calls == 1 + n * (n + 1) // 2

    def test_table_oracle(self):
        rng = random.Random(11)
        n = 6
        oracle = TableOracle({frozenset(c): rng.random() for size in range(n + 1)
                              for c in itertools.combinations(range(n), size)}, n)
        additive = TableOracle.from_json(
            enumerate_table_entries(AdditiveOracle([0.1, 0.3, 0.0, 0.2, 0.3, 0.1]), n), n)
        for table in (oracle, additive):
            for retention in (0.3, 0.7, 1.0):
                for pool in (frozenset(), frozenset({1, 4}), frozenset(range(n))):
                    assert_matches_reference(task(n, retention), table, pool)

    def test_tied_weights_score_only_the_full_and_final_sets(self, monkeypatch):
        # Every candidate ties at every step, so the selector walks the
        # whole active set each time, comparing the ranking's scores.
        calls = []
        score = AdditiveOracle.score
        monkeypatch.setattr(AdditiveOracle, "score",
                            lambda self, active: calls.append(1) or score(self, active))
        res = select_skip_set(task(128, retention=0.5), AdditiveOracle([1.0] * 512))
        assert res.oracle_calls == 57409
        assert res.removal_order == tuple(range(128))
        assert len(calls) <= 2

    def test_additive_selection_scores_few_removals_exactly(self):
        inst = gen_instance(5, num_blocks=128, num_tasks=1, correlation=0.5,
                            retention_ratio=0.99)
        oracle = inst.oracle(0)
        calls = []
        score = oracle.score
        oracle.score = lambda active: calls.append(1) or score(active)
        res = select_skip_set(task(40, retention=0.99), oracle)
        assert res.oracle_calls > 40 * len(calls)


class TestAlignedSelect:
    def test_feasible_pool_candidate_beats_better_outsider(self):
        # Shared block scores 0.92*full, non-shared 0.95*full: shared wins.
        oracle = TableOracle({
            frozenset({0, 1}): 1.0,
            frozenset({1}): 0.92,   # drop block 0 (shared)
            frozenset({0}): 0.95,   # drop block 1 (not shared)
            frozenset(): 0.0,
        }, num_blocks=2)
        res = select_skip_set(task(1), oracle, shared_pool=frozenset({0}))
        assert res.skipped == {0}

    def test_infeasible_pool_falls_back_to_best_overall(self):
        oracle = AdditiveOracle([5.0, 1.0, 0.2])
        res = select_skip_set(task(1), oracle, shared_pool=frozenset({0}))
        assert res.skipped == {2}

    def test_alignment_never_hurts_pairwise_overlap(self):
        # Additive-penalty oracles: aligned S2 overlaps S1 at least as much
        # as the independently greedy S2, across 120 random instances.
        for seed in range(120):
            inst = gen_instance(seed, num_blocks=12, num_tasks=2,
                                correlation=(seed % 10) / 10)
            spec = task(5)
            s1 = select_skip_set(spec, inst.oracle(0)).skipped
            ind = select_skip_set(spec, inst.oracle(1)).skipped
            ali = select_skip_set(spec, inst.oracle(1), s1).skipped
            assert jaccard(ali, s1) >= jaccard(ind, s1)

    def test_matches_pool_aware_step_replay_at_small_n(self):
        # Exhaustive per-step replay of the pool-preference rule agrees
        # with the selector on every removal chain at n <= 8.
        for seed in range(60):
            n = 5 + seed % 4
            inst = gen_instance(seed, num_blocks=n, num_tasks=2,
                                correlation=0.6)
            pool = select_skip_set(task(n // 2), inst.oracle(0)).skipped
            spec = task(n // 2)
            mine = select_skip_set(spec, inst.oracle(1), pool).skipped
            ref = brute_force_greedy_replay(inst.oracle(1), 0.9, n // 2,
                                            shared_pool=pool)
            assert mine == ref


class TestBuildAllTasks:
    def test_single_task_is_plain_greedy(self):
        inst = gen_instance(3, num_blocks=8, num_tasks=1, correlation=0.5)
        spec = task(3, task_id="only")
        results = build_all_tasks([spec], {"only": inst.oracle(0)})
        assert results["only"] == select_skip_set(spec, inst.oracle(0))

    def test_identical_oracles_reproduce_the_first_skip_set(self):
        for n in (4, 6, 8):
            inst = gen_instance(n, num_blocks=n, num_tasks=1, correlation=0.5)
            oracle = inst.oracle(0)
            tasks = [task(3, task_id="a", priority=2.0),
                     task(3, task_id="b", priority=1.0)]
            results = build_all_tasks(tasks, {"a": oracle, "b": oracle})
            assert results["a"].skipped == results["b"].skipped

    def test_processing_order_follows_priority(self):
        # Car (vehicle) dominates the switch traffic, bicycle is rarest.
        ids = ["Car", "TrafficLight", "Obstacle", "Person", "Bicycle"]
        weights = [5.0, 4.0, 3.0, 2.0, 1.0]
        inst = gen_instance(9, num_blocks=8, num_tasks=5, correlation=0.7)
        tasks = [task(2, task_id=t, priority=w) for t, w in zip(ids, weights)]
        results = build_all_tasks(
            tasks, {t: inst.oracle(i) for i, t in enumerate(ids)})
        order = list(results)
        assert order.index("Car") < order.index("Bicycle")
        assert order == ids  # descending priority

    def test_priority_tie_breaks_lexicographically(self):
        inst = gen_instance(1, num_blocks=6, num_tasks=2, correlation=0.5)
        tasks = [task(2, task_id="zeta", priority=1.0),
                 task(2, task_id="alpha", priority=1.0)]
        results = build_all_tasks(tasks, {"zeta": inst.oracle(0),
                                         "alpha": inst.oracle(1)})
        assert list(results) == ["alpha", "zeta"]

    def test_no_tasks_is_a_config_error(self):
        with pytest.raises(ConfigError, match="^no tasks given$"):
            build_all_tasks([], {})

    def test_missing_oracle_is_a_config_error(self):
        with pytest.raises(ConfigError):
            build_all_tasks([task(1, task_id="x")], {})

    @pytest.mark.parametrize("key, value", [
        ("retention_ratio", True), ("retention_ratio", "0.5"), ("max_remove", 1.5),
        ("max_remove", True), ("max_remove", "1"), ("priority_weight", True),
        ("priority_weight", None),
    ], ids=repr)
    def test_directly_built_spec_checks_its_numbers(self, key, value):
        # Unchecked, True runs as 1, a fractional cap is accepted, and a
        # string fails with a bare TypeError.
        fields = {"task_id": "a", "retention_ratio": 0.5, "max_remove": 1, key: value}
        with pytest.raises(ConfigError, match=key):
            TaskSpec(**fields)

    @pytest.mark.parametrize("weight", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_priority_is_a_config_error(self, weight):
        # A NaN weight would make the processing order depend on list order.
        with pytest.raises(ConfigError):
            task(1, priority=weight)


class TestJaccard:
    def test_partial_overlap(self):
        assert jaccard(frozenset({2, 3}), frozenset({3, 4})) == pytest.approx(1 / 3)

    def test_identity(self):
        s = frozenset({1, 5})
        assert jaccard(s, s) == 1.0

    def test_both_empty_counts_as_identical(self):
        assert jaccard(frozenset(), frozenset()) == 1.0

    def test_family_contrast_aligned_vs_independent(self):
        # Aligned pairs should look like the high-overlap regime, and
        # independent pairs like the low-overlap one, on this family.
        aligned_vals, indep_vals = [], []
        for seed in range(20):
            inst = gen_instance(seed, num_blocks=32, num_tasks=5, correlation=0.7)
            tasks = inst.task_specs()
            for align, sink in ((True, aligned_vals), (False, indep_vals)):
                res = build_all_tasks(tasks, inst.oracles(), align=align)
                skips = [res[t].skipped for t in inst.task_ids]
                sink.extend(jaccard(x, y)
                            for x, y in itertools.combinations(skips, 2))
        assert statistics.fmean(aligned_vals) > 0.6
        assert statistics.fmean(indep_vals) < 0.4


class TestInvariants:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 12),
           max_remove=st.integers(0, 12), corr=st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_constraint_satisfaction_exact(self, seed, n, max_remove, corr):
        inst = gen_instance(seed, num_blocks=n, num_tasks=1, correlation=corr)
        oracle = inst.oracle(0)
        res = select_skip_set(task(min(max_remove, n)), oracle)
        active = frozenset(range(n)) - res.skipped
        assert oracle.score(active) >= 0.9 * oracle.full_score
        assert len(res.skipped) <= max_remove

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_greedy_step_soundness(self, seed):
        inst = gen_instance(seed, num_blocks=8, num_tasks=2, correlation=0.5)
        oracle = inst.oracle(0)
        pool = select_skip_set(task(3), inst.oracle(1)).skipped
        res = select_skip_set(task(4), oracle, pool)
        # Replay the removal order: each step's pick must have been
        # feasible and score-maximal under pool preference and tie-break.
        threshold = 0.9 * oracle.full_score
        removed: set[int] = set()
        for pick in res.removal_order:
            active = frozenset(range(8)) - removed
            scored = [(j, oracle.score(active - {j})) for j in sorted(active)]
            feasible = [(j, s) for j, s in scored if s >= threshold]
            assert feasible
            pooled = [(j, s) for j, s in feasible if j in pool]
            source = pooled if pooled else feasible
            best = max(source, key=lambda js: (js[1], -js[0]))
            assert pick == best[0]
            removed.add(pick)

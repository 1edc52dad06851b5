"""Brute-force selection references and synthetic instance generation."""
from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchsim.sparsity import AdditiveOracle, TableOracle, TaskSpec, select_skip_set
from switchsim.synthetic import gen_instance, gen_markov_log
from switchsim.workloads import DRIVING_PAIR_BIAS, DRIVING_TASKS

from reference import (brute_force_best_feasible, brute_force_greedy_replay,
                       enumerate_table_entries, reference_markov_log)


class TestGenInstance:
    def test_same_seed_reproduces_the_instance(self):
        a = gen_instance(17, num_blocks=12, num_tasks=3, correlation=0.6)
        b = gen_instance(17, num_blocks=12, num_tasks=3, correlation=0.6)
        assert a == b

    def test_full_correlation_gives_identical_vectors(self):
        inst = gen_instance(5, num_blocks=10, num_tasks=4, correlation=1.0)
        assert all(w == inst.weights[0] for w in inst.weights)

    def test_zero_correlation_gives_distinct_vectors(self):
        inst = gen_instance(5, num_blocks=16, num_tasks=3, correlation=0.0)
        assert len(set(inst.weights)) == 3

    def test_weights_are_non_negative(self):
        inst = gen_instance(2, num_blocks=20, num_tasks=2, correlation=0.3)
        assert all(w >= 0 for row in inst.weights for w in row)

    def test_shape_and_defaults(self):
        inst = gen_instance(0, num_blocks=8, num_tasks=2, correlation=0.5)
        assert len(inst.weights) == 2
        assert all(len(row) == 8 for row in inst.weights)
        assert inst.retention == (0.9, 0.9)
        specs = inst.task_specs()
        assert all(isinstance(s, TaskSpec) for s in specs)
        assert specs[0].max_remove == 2  # 30% of 8, rounded

    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError):
            gen_instance(0, num_blocks=0, num_tasks=1, correlation=0.5)
        with pytest.raises(ValueError):
            gen_instance(0, num_blocks=4, num_tasks=1, correlation=1.5)


class TestGreedyReplay:
    def test_agrees_with_selector_on_small_instances(self):
        for seed in range(60):
            n = 4 + seed % 5
            inst = gen_instance(seed, num_blocks=n, num_tasks=1,
                                correlation=(seed % 10) / 10)
            oracle = inst.oracle(0)
            spec = TaskSpec("t", retention_ratio=0.9, max_remove=n // 2)
            fast = select_skip_set(spec, oracle).skipped
            slow = brute_force_greedy_replay(oracle, 0.9, n // 2)
            assert fast == slow

    def test_full_retention_decreasing_oracle_removes_nothing(self):
        oracle = AdditiveOracle([1.0, 2.0, 3.0, 4.0])
        assert brute_force_greedy_replay(oracle, 1.0, 4) == frozenset()

    def test_single_feasible_candidate_is_always_taken(self):
        # Only block 3 is light enough to remove at each step.
        oracle = AdditiveOracle([10.0, 10.0, 10.0, 0.5])
        assert brute_force_greedy_replay(oracle, 0.95, 2) == frozenset({3})

    def test_size_guard(self):
        oracle = AdditiveOracle([1.0] * 17)
        with pytest.raises(ValueError):
            brute_force_greedy_replay(oracle, 0.9, 1)


class TestBestFeasible:
    def test_additive_exhaustive_maximum(self):
        oracle = AdditiveOracle([4.0, 3.0, 2.0, 1.0])
        best = brute_force_best_feasible(oracle, 0.9, 2)
        # Any removal lowers an additive score, so the top scorer is the
        # empty set; verify against a direct enumeration.
        full = frozenset(range(4))
        expect, expect_score = (), oracle.score(full)
        for size in range(3):
            for combo in itertools.combinations(range(4), size):
                s = oracle.score(full - frozenset(combo))
                if s >= 0.9 * oracle.full_score and s > expect_score:
                    expect, expect_score = combo, s
        assert best == frozenset(expect)

    def test_above_baseline_landscape_prefers_a_removal(self):
        oracle = TableOracle({
            frozenset({0, 1}): 0.8,
            frozenset({0}): 0.95,
            frozenset({1}): 0.85,
            frozenset(): 0.0,
        }, num_blocks=2)
        assert brute_force_best_feasible(oracle, 0.9, 2) == frozenset({1})

    def test_no_feasible_nonempty_set(self):
        oracle = AdditiveOracle([1.0, 1.0])
        assert brute_force_best_feasible(oracle, 1.0, 2) == frozenset()

    def test_zero_removals_allowed(self):
        oracle = AdditiveOracle([1.0, 1.0])
        assert brute_force_best_feasible(oracle, 0.5, 0) == frozenset()

    def test_result_is_always_feasible(self):
        for seed in range(40):
            inst = gen_instance(seed, num_blocks=6, num_tasks=1, correlation=0.5)
            oracle = inst.oracle(0)
            best = brute_force_best_feasible(oracle, 0.9, 3)
            active = frozenset(range(6)) - best
            assert oracle.score(active) >= 0.9 * oracle.full_score

    def test_size_guard(self):
        oracle = AdditiveOracle([1.0] * 13)
        with pytest.raises(ValueError):
            brute_force_best_feasible(oracle, 0.9, 1)


class TestTableEnumeration:
    def test_round_trip_through_table_oracle(self):
        inst = gen_instance(4, num_blocks=5, num_tasks=1, correlation=0.5)
        oracle = inst.oracle(0)
        table = TableOracle.from_json(enumerate_table_entries(oracle, 5), 5)
        for size in range(6):
            for combo in itertools.combinations(range(5), size):
                active = frozenset(combo)
                assert table.score(active) == oracle.score(active)


# Pair weights that ``Random.choices`` refuses as a row total (zero, a
# negative total, infinite or NaN) next to ordinary ones.
PAIR_WEIGHTS = st.one_of(st.floats(0.0, 20.0), st.integers(-3, 20),
                         st.sampled_from([0.0, -1.0, -4.0, math.inf, -math.inf, math.nan]))


@st.composite
def markov_args(draw):
    """Seed, length, 1-7 task ids (repeats allowed) and a pair bias or None."""
    ids = draw(st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=7))
    bias = None
    if draw(st.booleans()):
        pair = st.tuples(st.sampled_from(ids), st.sampled_from(ids))
        bias = draw(st.dictionaries(pair, PAIR_WEIGHTS, max_size=12))
    return draw(st.integers(0, 2**32)), draw(st.integers(0, 300)), ids, bias


def refused_up_front(length, ids, bias):
    """Whether ``gen_markov_log`` must refuse these inputs before drawing."""
    if not ids:
        return True
    if length < 2:
        return False
    if len(set(ids)) < 2:
        return True
    bias = bias or {}
    for task in set(ids):
        # Left to right, as the chain's cumulative weights add them.
        total = functools.reduce(operator.add,
                                 (bias.get((task, t), 1.0) for t in ids if t != task), 0.0)
        if not (math.isfinite(total) and total > 0):
            return True
    return False


class TestMarkovLog:
    @given(markov_args())
    @example((5, 1, ["a"], None))
    @example((5, 2, ["a"], None))
    @example((5, 40, ["a", "b", "c"], {("b", "a"): 0.0, ("b", "c"): 0.0}))
    @example((5, 40, ["a", "b", "c"], {("c", "a"): -3.0, ("c", "b"): 1.0}))
    @example((5, 40, ["a", "b"], {("a", "b"): math.inf}))
    @example((5, 40, ["a", "b", "c"], {("a", "b"): math.nan}))
    @settings(max_examples=200, deadline=None)
    def test_matches_choices_reference(self, args):
        # Valid inputs give the reference's sequence; the rest fail before
        # the first draw.
        _seed, length, ids, bias = args
        if refused_up_front(length, ids, bias):
            with pytest.raises(ValueError):
                gen_markov_log(*args)
        else:
            assert gen_markov_log(*args) == reference_markov_log(*args)

    @pytest.mark.parametrize("length", [0, 1, 5])
    def test_empty_task_list_is_refused(self, length):
        with pytest.raises(ValueError, match="at least one task id"):
            gen_markov_log(5, length, [])

    @pytest.mark.parametrize("ids", [["a"], ["a", "a", "a"]])
    def test_one_distinct_task_is_refused_from_two_steps(self, ids):
        assert gen_markov_log(5, 1, ids) == ["a"]
        with pytest.raises(ValueError, match="at least two distinct task ids"):
            gen_markov_log(5, 2, ids)

    @pytest.mark.parametrize("row", [
        {("c", "a"): 0.0, ("c", "b"): 0.0},
        {("c", "a"): -3.0, ("c", "b"): 1.0},
        {("c", "a"): math.inf},
        {("c", "b"): math.nan},
    ], ids=["zero", "negative", "infinite", "nan"])
    def test_bad_row_is_refused_before_the_chain_reaches_it(self, row):
        # The chain starts at "a" and first leaves "c" at a later step, where
        # the choices loop fails; a short log never gets there.
        args = (5, 2, ["a", "b", "c"], row)
        assert len(reference_markov_log(*args)) == 2
        with pytest.raises(ValueError, match="out of task 'c'"):
            gen_markov_log(*args)

    def test_driving_stream_is_pinned(self):
        # A change to the sampled stream, on any Python version, fails here.
        log = gen_markov_log(1, 2500, DRIVING_TASKS, pair_bias=DRIVING_PAIR_BIAS)
        assert hashlib.sha256("\n".join(log).encode()).hexdigest() == \
            "e7f6c701b773a4330ca20d0c0136e88f1788b534ecf89c545f70f585110ffea6"

    def test_deterministic_per_seed(self):
        ids = ["a", "b", "c"]
        assert gen_markov_log(3, 50, ids) == gen_markov_log(3, 50, ids)

    def test_bias_skews_pair_frequencies(self):
        ids = ["a", "b", "c"]
        log = gen_markov_log(1, 2000, ids, pair_bias={("a", "b"): 20.0})
        ab = sum(1 for x, y in zip(log, log[1:]) if (x, y) == ("a", "b"))
        ac = sum(1 for x, y in zip(log, log[1:]) if (x, y) == ("a", "c"))
        assert ab > 5 * ac

    def test_length_and_no_self_pairs(self):
        log = gen_markov_log(2, 100, ["x", "y"])
        assert len(log) == 100
        assert all(a != b for a, b in zip(log, log[1:]))

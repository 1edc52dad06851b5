"""Scenario loading, trace replay, mode comparison, and report files."""
from __future__ import annotations

import csv
import dataclasses
import json
import statistics
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchsim import replay
from switchsim.block_store import ModelManifest
from switchsim.errors import ConfigError, ReplayError
from switchsim.replay import (Scenario, ScenarioConfig, compare_modes, emit_reports,
                              run_replay, write_compare_csv)
from switchsim.sparsity import SelectionResult, TaskSpec
from switchsim.switching import CostModel, DeployMode, SwitchReport
from switchsim.transitions import fit_transition_model
from switchsim.workloads import write_driving_scenario

from reference_replay import (reference_aggregate, reference_replay,
                              reference_write_compare_csv)

ROUTE = ["Car", "TrafficLight", "Car", "Obstacle", "Person"]


def small_scenario(root, *, trace=None, mode="full_method", window=0.0,
                   k=2, **overrides):
    config = write_driving_scenario(
        root,
        num_blocks=16,
        target_monolithic_ms=400.0,
        max_remove=8,
        trace_length=20,
        log_length=120,
        compute_window_ms=window,
        k=k,
        mode=mode,
        **overrides,
    )
    if trace is not None:
        (root / "trace.txt").write_text("\n".join(trace) + "\n", encoding="utf-8")
    return config


class TestRunReplay:
    def test_single_task_trace_has_no_switches(self, tmp_path):
        config = small_scenario(tmp_path, trace=["Car"] * 6)
        report = run_replay(config)
        assert report.switches == ()
        assert report.mean_latency_ms is None
        assert report.median_latency_ms is None
        assert report.max_latency_ms is None

    def test_route_trace_speedup_with_hand_checked_transition(self, tmp_path):
        config = small_scenario(tmp_path, trace=ROUTE, mode="monolithic")
        mono = run_replay(config)
        full = run_replay(small_scenario(tmp_path / "f", trace=ROUTE,
                                         mode="full_method"))
        assert len(mono.switches) == len(full.switches) == 4
        # Monolithic transitions all cost the calibrated full reload.
        cost = CostModel.load(config.cost_model_path)
        manifest_doc = json.loads(config.manifest_path.read_text())
        sizes = manifest_doc["block_sizes_bytes"]
        expected = cost.monolithic_init_ms + sum(
            cost.disk_ms(s) + cost.gpu_ms(s) for s in sizes)
        assert mono.switches[0].latency_ms == pytest.approx(expected)
        assert mono.switches[0].latency_ms == pytest.approx(400.0, abs=1e-3)
        # With no prefetch window, every full-method transition pays both
        # links for exactly the blocks the device is missing.
        for s in full.switches:
            missing = s.blocks_fetched
            assert s.blocks_prestaged == 0
            per_block = sizes[0]
            assert s.latency_ms == pytest.approx(
                missing * (cost.disk_ms(per_block) + cost.gpu_ms(per_block)))
            assert s.latency_ms < mono.switches[0].latency_ms
        speedups = [m.latency_ms / f.latency_ms
                    for m, f in zip(mono.switches, full.switches)
                    if f.latency_ms > 0]
        assert all(r > 1 for r in speedups)

    @pytest.mark.parametrize("mode", [m.value for m in DeployMode])
    def test_unknown_trace_task_surfaces_position(self, tmp_path, mode):
        config = small_scenario(tmp_path, trace=["Car", "TrafficLight", "Ghost"],
                                mode=mode)
        with pytest.raises(ReplayError) as err:
            run_replay(config)
        assert err.value.position == 2

    def test_mode_is_required(self, tmp_path):
        config = small_scenario(tmp_path)
        config = ScenarioConfig(**{**config.__dict__, "mode": None})
        with pytest.raises(ConfigError):
            run_replay(config)

    def test_budgets_must_admit_largest_block(self, tmp_path):
        config = small_scenario(tmp_path)
        bad = ScenarioConfig(**{**config.__dict__, "cpu_budget_bytes": 1})
        with pytest.raises(ConfigError):
            run_replay(bad)

    def test_hit_rate_is_one_with_full_coverage(self, tmp_path):
        # Wide windows, k covering every successor, and a host budget for
        # the whole model: every differential block is prestaged.
        config = small_scenario(tmp_path, window=1e9, k=4,
                                cpu_budget_blocks=16)
        report = run_replay(config)
        assert report.prestage_misses == 0
        assert report.prestage_hit_rate == 1.0

    def test_hit_rate_bounds(self, tmp_path):
        for mode in ("monolithic", "split_only", "full_method"):
            report = run_replay(small_scenario(tmp_path / mode, mode=mode))
            assert 0.0 <= report.prestage_hit_rate <= 1.0

    def test_jaccard_matrix_symmetric_unit_diagonal(self, tmp_path):
        report = run_replay(small_scenario(tmp_path))
        m = report.jaccard_matrix
        for i in range(len(m)):
            assert m[i][i] == 1.0
            for j in range(len(m)):
                assert m[i][j] == m[j][i]

    def test_replay_is_deterministic(self, tmp_path):
        config = small_scenario(tmp_path, window=50.0)
        assert run_replay(config) == run_replay(config)


@st.composite
def replay_inputs(draw):
    """A small in-memory scenario with its selections and transition model.

    Block sizes differ, so float sums depend on the order they walk
    blocks. The device budget is the whole model or a drawn byte count, so
    some replays fail on a task that does not fit the device. The host
    holds from one block to the whole model; a small host cache makes its
    contents depend on the path the trace took.
    """
    n = draw(st.integers(2, 8))
    sizes = tuple(draw(st.lists(st.integers(1_000, 50_000), min_size=n, max_size=n)))
    ids = tuple(f"t{i}" for i in range(draw(st.integers(2, 4))))
    blocks = st.integers(0, n - 1)
    selections = {}
    for tid in ids:
        order = tuple(draw(st.lists(blocks, unique=True, max_size=n - 1)))
        selections[tid] = SelectionResult(skipped=frozenset(order), final_score=1.0,
                                          oracle_calls=1, removal_order=order)
    total = sum(sizes)
    host_blocks = draw(st.integers(1, n))
    k = draw(st.sampled_from([1, 2]))
    config = ScenarioConfig(
        manifest_path=Path("manifest.json"), tasks_path=Path("tasks.json"),
        oracle={}, log_path=Path("log.txt"), trace_path=Path("trace.txt"),
        cost_model_path=Path("cost.json"),
        gpu_budget_bytes=draw(st.one_of(st.just(total),
                                        st.integers(max(sizes), total))),
        cpu_budget_bytes=min(total, host_blocks * max(sizes)), k=k,
        compute_window_ms=draw(st.sampled_from([0.0, 5.0, 20.0, 80.0, 1e9])))
    cost = CostModel(disk_to_cpu_mbps=draw(st.floats(1.0, 10.0)),
                     cpu_to_gpu_mbps=draw(st.floats(5.0, 50.0)),
                     per_block_fixed_ms=draw(st.sampled_from([0.0, 0.5])),
                     monolithic_init_ms=draw(st.sampled_from([0.0, 7.0])))
    log = tuple(draw(st.lists(st.sampled_from(ids), min_size=2, max_size=30)))
    # Traces long enough to revisit step keys; tests above cover the
    # empty and one-task traces.
    trace = tuple(draw(st.lists(st.sampled_from(ids), min_size=10, max_size=60)))
    scenario = Scenario(
        config=config, manifest=ModelManifest("m", sizes),
        tasks=tuple(TaskSpec(tid, retention_ratio=0.9, max_remove=n) for tid in ids),
        oracles={}, log=log, trace=trace, cost=cost)
    return scenario, selections, fit_transition_model(log, k=k, known_tasks=ids)


def replay_outcome(fn, *args):
    try:
        return fn(*args)
    except ReplayError as exc:
        return (exc.position, str(exc))


class TestMemoMatchesReference:
    @given(replay_inputs())
    @settings(max_examples=150, deadline=None)
    def test_random_scenarios_in_every_mode(self, inputs):
        # Equal reports, floats unrounded, or the same error at the same
        # trace position.
        scenario, selections, model = inputs
        for mode in DeployMode:
            args = (scenario, mode, selections, model)
            assert replay_outcome(replay._replay, *args) \
                == replay_outcome(reference_replay, *args)


# Sums of these differ between naive and exactly rounded summation, e.g.
# 1e16 + 1.0 + 1.0 or 0.1 + 0.2 + 0.3.
LATENCIES = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.675, 1e16, 1 / 3]),
                      st.floats(0.0, 1e4))
TASK = st.sampled_from(["a", "b", "c"])
COUNT = st.integers(0, 50)
RECORD = st.builds(SwitchReport, from_task=TASK, to_task=TASK, mode=st.just("m"),
                   latency_ms=LATENCIES, bytes_disk_to_cpu=st.integers(0, 10**12),
                   bytes_cpu_to_gpu=st.integers(0, 10**12), blocks_reused=COUNT,
                   blocks_fetched=COUNT, blocks_prestaged=COUNT,
                   gpu_resident_bytes_after=st.integers(0, 10**12))


@st.composite
def record_tables(draw):
    """A table of switch records and a trace of indices into it."""
    records = tuple(draw(st.lists(RECORD, min_size=1, max_size=6)))
    order = tuple(draw(st.lists(st.integers(0, len(records) - 1), max_size=40)))
    return records, order


def aggregate_scenario():
    ids = ("a", "b", "c")
    config = ScenarioConfig(
        manifest_path=Path("manifest.json"), tasks_path=Path("tasks.json"),
        oracle={}, log_path=Path("log.txt"), trace_path=Path("trace.txt"),
        cost_model_path=Path("cost.json"), gpu_budget_bytes=1, cpu_budget_bytes=1)
    scenario = Scenario(
        config=config, manifest=ModelManifest("m", (1, 1, 1)),
        tasks=tuple(TaskSpec(tid, retention_ratio=0.9, max_remove=3) for tid in ids),
        oracles={}, log=(), trace=(), cost=CostModel(1.0, 1.0))
    selections = {tid: SelectionResult(skipped=frozenset({i}), final_score=1.0,
                                       oracle_calls=1, removal_order=(i,))
                  for i, tid in enumerate(ids)}
    return scenario, selections


class TestAggregateMatchesReference:
    """Aggregation and compare.csv per distinct record equal the per-switch
    reference, floats unrounded."""

    @given(record_tables())
    @settings(max_examples=150, deadline=None)
    def test_every_report_field(self, table):
        records, order = table
        scenario, selections = aggregate_scenario()
        fast = replay._aggregate(DeployMode.FULL_METHOD, scenario, selections,
                                 records, order)
        ref = reference_aggregate(DeployMode.FULL_METHOD, scenario, selections,
                                  [records[i] for i in order])
        # The reference interns only the records the order uses.
        assert fast.switches == ref.switches
        assert dataclasses.replace(fast, records=ref.records, order=ref.order) == ref

    @pytest.fixture(scope="class")
    def out(self, tmp_path_factory):
        # One directory for every example; each overwrites the two files.
        return tmp_path_factory.mktemp("compare")

    @given(st.lists(record_tables(), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_compare_csv_bytes(self, out, tables):
        scenario, selections = aggregate_scenario()
        fast, ref = {}, {}
        for mode, (records, order) in zip(DeployMode, tables):
            fast[mode] = replay._aggregate(mode, scenario, selections, records, order)
            ref[mode] = reference_aggregate(mode, scenario, selections,
                                            [records[i] for i in order])
        assert write_compare_csv(fast, out / "fast.csv").read_bytes() \
            == reference_write_compare_csv(ref, out / "ref.csv").read_bytes()

    def test_sum_that_naive_addition_rounds_differently(self):
        # Left to right, sum() drops every 1.0 added to 1e16; fsum keeps them.
        records = (SwitchReport("a", "b", "m", 1e16, 0, 0, 0, 0, 0, 0),
                   SwitchReport("b", "a", "m", 1.0, 0, 0, 0, 0, 0, 0))
        scenario, selections = aggregate_scenario()
        for order in ((0, 1, 1), (0, 1, 1, 1), ()):
            fast = replay._aggregate(DeployMode.MONOLITHIC, scenario, selections,
                                     records, order)
            ref = reference_aggregate(DeployMode.MONOLITHIC, scenario, selections,
                                      [records[i] for i in order])
            assert fast.mean_latency_ms == ref.mean_latency_ms
            assert fast.median_latency_ms == ref.median_latency_ms
        assert fast.mean_latency_ms is None and fast.switches == ()


class TestStepInvariants:
    """Each computed step checks the state it leaves; a layer that breaks
    the state fails the replay at that step's trace position."""

    # Steps 1 to 3 have distinct keys, so prefetch call i runs at position i.
    TRACE = ["Car", "Car", "TrafficLight", "Car", "TrafficLight", "Obstacle"]

    def corrupt_prefetch(self, monkeypatch, call, corrupt):
        calls = 0

        def corrupting(*args, **kwargs):
            nonlocal calls
            state, staged, moved = execute(*args, **kwargs)
            calls += 1
            if calls == call:
                state, staged = corrupt(state, staged)
            return state, staged, moved

        execute = replay.execute_prefetch
        monkeypatch.setattr(replay, "execute_prefetch", corrupting)

    @pytest.mark.parametrize("call, corrupt", [
        (3, lambda state, staged: (
            dataclasses.replace(state, cpu_lru=state.cpu_lru[1:]), staged)),
        (3, lambda state, staged: (
            state, staged | {min(frozenset(range(16)) - state.cpu_resident)})),
        # A step without a switch: no device load follows the prefetch.
        (1, lambda state, staged: (
            dataclasses.replace(state, gpu_resident=frozenset()), staged)),
        # A larger budget passes CacheState.check; the memo key leaves it out.
        (3, lambda state, staged: (
            dataclasses.replace(state, cpu_budget_bytes=state.cpu_budget_bytes + 1),
            staged)),
    ], ids=["lru-drops-resident-block", "staged-not-host-resident", "device-emptied",
            "cpu-budget-changed"])
    def test_corrupt_prefetch_fails_at_its_position(self, tmp_path, monkeypatch,
                                                    call, corrupt):
        config = small_scenario(tmp_path, trace=self.TRACE, window=1e9,
                                cpu_budget_blocks=4)
        self.corrupt_prefetch(monkeypatch, call, corrupt)
        with pytest.raises(ReplayError) as err:
            run_replay(config)
        assert err.value.position == call

    def test_uncorrupted_replay_passes(self, tmp_path, monkeypatch):
        config = small_scenario(tmp_path, trace=self.TRACE, window=1e9,
                                cpu_budget_blocks=4)
        self.corrupt_prefetch(monkeypatch, 1, lambda state, staged: (state, staged))
        assert len(run_replay(config).switches) == 4


class TestCompareModes:
    def test_empty_trace_gives_four_empty_reports(self, tmp_path):
        config = small_scenario(tmp_path, trace=[])
        reports = compare_modes(config)
        assert set(reports) == set(DeployMode)
        assert all(r.switches == () for r in reports.values())

    def test_mean_latency_mode_ordering_end_to_end(self, tmp_path):
        for seed in (1, 2, 3):
            config = small_scenario(tmp_path / str(seed), window=40.0,
                                    oracle_seed=seed, trace_seed=seed + 50)
            reports = compare_modes(config)
            means = [reports[m].mean_latency_ms for m in (
                DeployMode.MONOLITHIC, DeployMode.SPARSE_NO_SPLIT,
                DeployMode.SPLIT_ONLY, DeployMode.FULL_METHOD)]
            assert means[0] >= means[1] >= means[2] >= means[3]

    def test_one_fit_per_compare_and_one_tiering_per_running_task(self, tmp_path,
                                                                  monkeypatch):
        calls = {"fit": 0, "tiers": []}

        def counted_fit(*args, **kwargs):
            calls["fit"] += 1
            return fit(*args, **kwargs)

        def counted_tiers(current, *args):
            calls["tiers"].append(current)
            return tiers(current, *args)

        fit, tiers = replay.fit_transition_model, replay.assign_tiers
        monkeypatch.setattr(replay, "fit_transition_model", counted_fit)
        monkeypatch.setattr(replay, "assign_tiers", counted_tiers)
        config = small_scenario(tmp_path, window=40.0)
        compare_modes(config)
        trace = (tmp_path / "trace.txt").read_text().split()
        assert calls["fit"] == 1
        assert sorted(calls["tiers"]) == sorted(set(trace[:-1]))

    def test_aligned_selection_only_in_full_method(self, tmp_path):
        reports = compare_modes(small_scenario(tmp_path, window=40.0))
        full = reports[DeployMode.FULL_METHOD]
        split = reports[DeployMode.SPLIT_ONLY]
        mean_j = lambda rep: statistics.fmean(
            rep.jaccard_matrix[i][j]
            for i in range(5) for j in range(i + 1, 5))
        assert mean_j(full) > mean_j(split)


class TestEmitReports:
    def test_five_tasks_give_a_6x6_jaccard_csv(self, tmp_path):
        report = run_replay(small_scenario(tmp_path))
        emit_reports(report, tmp_path / "out")
        rows = list(csv.reader((tmp_path / "out" / "jaccard.csv").open()))
        assert len(rows) == 6
        assert all(len(r) == 6 for r in rows)

    def test_zero_switches_summary_has_header_only_latency_section(self, tmp_path):
        config = small_scenario(tmp_path, trace=["Car", "Car"])
        report = run_replay(config)
        emit_reports(report, tmp_path / "out")
        text = (tmp_path / "out" / "summary.csv").read_text()
        assert "num_switches,0" in text
        assert "mean_latency_ms" not in text

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_scenario(tmp_path, window=30.0)
        emit_reports(run_replay(config), tmp_path / "a")
        emit_reports(run_replay(config), tmp_path / "b")
        for name in ("switches.jsonl", "summary.csv", "jaccard.csv",
                     "config.echo.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    def test_summary_recomputable_from_switch_stream(self, tmp_path):
        config = small_scenario(tmp_path, window=30.0)
        report = run_replay(config)
        out = tmp_path / "out"
        emit_reports(report, out)
        rows = [json.loads(line)
                for line in (out / "switches.jsonl").read_text().splitlines()]
        summary = dict(r for r in csv.reader((out / "summary.csv").open())
                       if len(r) == 2)
        latencies = [r["latency_ms"] for r in rows]
        assert summary["num_switches"] == str(len(rows))
        assert float(summary["mean_latency_ms"]) == pytest.approx(
            statistics.fmean(latencies), abs=5e-3)
        assert float(summary["max_latency_ms"]) == pytest.approx(
            max(latencies), abs=5e-3)
        assert summary["total_bytes_disk_to_cpu"] == str(
            sum(r["bytes_disk_to_cpu"] for r in rows))
        assert summary["total_bytes_cpu_to_gpu"] == str(
            sum(r["bytes_cpu_to_gpu"] for r in rows))
        hits = sum(r["blocks_prestaged"] for r in rows)
        misses = sum(r["blocks_fetched"] for r in rows)
        assert float(summary["prestage_hit_rate"]) == pytest.approx(
            hits / (hits + misses) if hits + misses else 1.0, abs=1e-6)

    def test_compare_csv_structure(self, tmp_path):
        config = small_scenario(tmp_path, window=30.0)
        reports = compare_modes(config)
        path = write_compare_csv(reports, tmp_path / "compare.csv")
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["from_task", "to_task", "count", "monolithic_ms",
                           "sparse_no_split_ms", "split_only_ms",
                           "full_method_ms"]
        assert rows[-1][0] == "ALL"

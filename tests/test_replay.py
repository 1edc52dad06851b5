"""Scenario loading, trace replay, mode comparison, and report files."""
from __future__ import annotations

import csv
import dataclasses
import gc
import io
import json
import math
import statistics
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchsim import block_store, prefetch, replay
from switchsim.block_store import CacheState, ModelManifest
from switchsim.errors import (BudgetExceededError, ConfigError, LogParseError, OracleError,
                              ReplayError, counted_fsum)
from switchsim.replay import (Scenario, ScenarioConfig, compare_modes, emit_reports,
                              replay_scenario, write_compare_csv)
from switchsim.sparsity import SelectionResult, TaskSpec, jaccard
from switchsim.switching import CostModel, DeployMode, SwitchReport, SwitchTable
from switchsim.transitions import fit_transition_model, index_typecode
from switchsim.workloads import write_driving_scenario

from reference_replay import (reference_aggregate, reference_replay, reference_switch_line,
                              reference_write_compare_csv, reference_write_small_reports,
                              reference_write_switches)

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


def task_indices(ids, trace):
    """A trace of task ids as a loaded scenario holds it: each step's index
    in ``ids``, in an array of the narrowest typecode for ``len(ids)``."""
    return array(index_typecode(len(ids)), map(list(ids).index, trace))


def logged_tasks(scenario):
    """The scenario's log as the task ids it names, which the replay fits."""
    return [scenario.task_ids[i] for i in scenario.log]


def run_config(config):
    """The replay of the config's scenario under the config's mode."""
    return replay_scenario(replay.load_scenario(config), (config.mode,))[config.mode]


def replay_mode(scenario, mode, selections, model):
    """The replay of ``scenario`` under ``mode`` alone, on the given skip
    sets and transition model."""
    return replay_scenario(scenario, (mode,), selections, model)[mode]


class TestReplayScenario:
    def test_single_task_trace_has_no_switches(self, tmp_path):
        config = small_scenario(tmp_path, trace=["Car"] * 6)
        report = run_config(config)
        assert report.switches == ()
        assert report.mean_latency_ms is None
        assert report.median_latency_ms is None
        assert report.max_latency_ms is None

    def test_route_trace_speedup_with_hand_checked_transition(self, tmp_path):
        config = small_scenario(tmp_path, trace=ROUTE, mode="monolithic")
        mono = run_config(config)
        full = run_config(small_scenario(tmp_path / "f", trace=ROUTE,
                                         mode="full_method"))
        assert len(mono.switches) == len(full.switches) == 4
        # Monolithic transitions all cost the calibrated full reload.
        cost = CostModel.load(config.cost_model)
        manifest_doc = json.loads(config.manifest.read_text())
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
            run_config(config)
        assert err.value.position == 2

    def test_an_unknown_log_id_is_refused_before_selection_even_with_a_model(
            self, tmp_path, monkeypatch):
        # Loading refuses the log, so neither a given model nor a selection
        # that would fail goes first.
        config = small_scenario(tmp_path)
        scenario = replay.load_scenario(config)
        selections = replay.build_all_tasks(scenario.tasks, scenario.oracles, align=True)
        model = fit_transition_model(logged_tasks(scenario), k=config.k)
        write_entries(config.log, ["Car", "Ghost"], False)

        def failing_selection(*args, **kwargs):
            raise OracleError("no selection")

        monkeypatch.setattr(replay, "build_all_tasks", failing_selection)
        for run in (lambda: replay_scenario(replay.load_scenario(config), DeployMode,
                                            selections, model),
                    lambda: compare_modes(config)):
            with pytest.raises(LogParseError, match="unknown task id 'Ghost'") as err:
                run()
            assert err.value.position == 1

    def test_budgets_must_admit_largest_block(self, tmp_path):
        config = small_scenario(tmp_path)
        bad = ScenarioConfig(**{**config.__dict__, "cpu_budget_bytes": 1})
        with pytest.raises(ConfigError):
            run_config(bad)

    def test_hit_rate_is_one_with_full_coverage(self, tmp_path):
        # Wide windows, k covering every successor, and a host budget for
        # the whole model: every differential block is prestaged.
        config = small_scenario(tmp_path, window=1e9, k=4,
                                cpu_budget_blocks=16)
        report = run_config(config)
        assert report.prestage_hit_rate == 1.0

    def test_hit_rate_bounds(self, tmp_path):
        for mode in ("monolithic", "split_only", "full_method"):
            report = run_config(small_scenario(tmp_path / mode, mode=mode))
            assert 0.0 <= report.prestage_hit_rate <= 1.0

    def test_jaccard_matrix_symmetric_unit_diagonal(self, tmp_path):
        report = run_config(small_scenario(tmp_path))
        m = report.jaccard_matrix
        for i in range(len(m)):
            assert m[i][i] == 1.0
            for j in range(len(m)):
                assert m[i][j] == m[j][i]

    def test_replay_is_deterministic(self, tmp_path):
        config = small_scenario(tmp_path, window=50.0)
        assert run_config(config) == run_config(config)

    @pytest.mark.parametrize("modes, message", [
        (["full_method"], "'full_method'"), ([1], "1"),
    ], ids=["mode-string", "mode-int"])
    def test_a_mode_that_is_no_deploy_mode_is_refused_first(
            self, tmp_path, monkeypatch, modes, message):
        # Unchecked, a mode string selects and fits, then fails in the
        # switch table with a bare AttributeError; an int is a KeyError.
        def refused(*args, **kwargs):
            raise AssertionError("selected or fitted before the modes were checked")

        scenario = replay.load_scenario(small_scenario(tmp_path))
        monkeypatch.setattr(replay, "build_all_tasks", refused)
        monkeypatch.setattr(replay, "fit_transition_model", refused)
        with pytest.raises(ConfigError, match=f"DeployMode, got {message}"):
            replay_scenario(scenario, modes)

    def test_given_selections_must_name_every_task(self, monkeypatch):
        # Unchecked, a missing task is a bare KeyError from the Jaccard
        # matrix. The check precedes the fit, which would fail here.
        monkeypatch.setattr(replay, "fit_transition_model", None)
        scenario, selections, _ = host_free_scenario(TestHostFreeModes.LOOP, 100)
        del selections["c"]
        with pytest.raises(ConfigError, match="leave out task 'c'"):
            replay_scenario(scenario, DeployMode, selections, None)

    def test_given_skip_sets_must_name_manifest_blocks(self, monkeypatch):
        # Unchecked, a skipped block the manifest lacks replays without an
        # error and simulates something else. The check precedes the fit,
        # which would fail here.
        monkeypatch.setattr(replay, "fit_transition_model", None)
        scenario, selections, _ = host_free_scenario(TestHostFreeModes.LOOP, 100)
        selections["b"] = dataclasses.replace(selections["b"],
                                              skipped=frozenset({0, 4, 999}))
        with pytest.raises(ConfigError, match=r"task 'b' skips block\(s\) 4, 999,"):
            replay_scenario(scenario, DeployMode, selections, None)

    def test_given_skip_sets_are_not_checked_for_feasibility(self):
        # Every block skipped, far over max_remove: replayed as given.
        scenario, selections, model = host_free_scenario(TestHostFreeModes.LOOP, 100)
        selections["a"] = dataclasses.replace(selections["a"],
                                              skipped=frozenset(range(4)))
        assert replay_scenario(scenario, DeployMode, selections, model) == {
            mode: reference_replay(scenario, mode, selections, model) for mode in DeployMode}

    def test_replay_peak_grows_by_at_most_4_bytes_a_switch(self, tmp_path):
        # Every mode's order is an array('B'), one byte a switch, and the
        # host-free modes share theirs: no list or tuple of the switches.
        # full_method's bytearray and its array copy are both alive at its
        # end. CPython 3.11 reads 3.1 B.
        replay_scenario(replay.load_scenario(small_scenario(tmp_path / "warm-up")))
        peaks, switches = [], []
        for steps in (10_000, 20_000):
            scenario = replay.load_scenario(
                write_driving_scenario(tmp_path / str(steps), trace_length=steps))
            gc.collect()
            tracemalloc.start()
            try:
                reports = replay_scenario(scenario)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert all(type(r.order) is array and r.order.typecode == "B"
                       for r in reports.values())
            switches.append(len(reports[DeployMode.FULL_METHOD].order))
        assert (peaks[1] - peaks[0]) / (switches[1] - switches[0]) <= 4

    def test_full_method_peak_grows_by_at_most_85_bytes_a_step(self, tmp_path):
        # On host-churn's shape most steps miss the memo, which then holds a
        # host order key per computed step and the next order when the step
        # replaced it. The replay packs both as bytes, one byte a block:
        # CPython 3.11 reads 68 B a step, where tuples of ints read 101 B.
        peaks = []
        for steps in (4_000, 8_000):
            scenario = replay.load_scenario(host_churn_scenario(tmp_path / str(steps), steps))
            selections = replay.build_all_tasks(scenario.tasks, scenario.oracles, align=True)
            model = fit_transition_model(logged_tasks(scenario), k=1)
            replay_mode(scenario, DeployMode.FULL_METHOD, selections, model)  # warm-up
            gc.collect()
            tracemalloc.start()
            try:
                replay_mode(scenario, DeployMode.FULL_METHOD, selections, model)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert (peaks[1] - peaks[0]) / 4_000 <= 85


def write_entries(path, entries, timestamps):
    """A task log or trace: bare ids, or padded ``timestamp, task_id`` rows."""
    rows = (f"{i}.5, {task}" if timestamps else task for i, task in enumerate(entries))
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")


class TestScenarioConfig:
    """Each field is a config key: the echo reads back to the same config."""

    @pytest.mark.parametrize("mode", ["full_method", None])
    def test_echo_round_trips(self, tmp_path, mode):
        config = small_scenario(tmp_path, mode=mode, window=12.5)
        assert ScenarioConfig.from_dict(config.echo()) == config
        table = dataclasses.replace(config, oracle={
            "kind": "table", "path": str((tmp_path / "table.json").resolve())})
        assert ScenarioConfig.from_dict(table.echo()) == table

    @pytest.mark.parametrize("key, value", [
        ("k", 1.5), ("k", True), ("cpu_budget_bytes", "8"), ("gpu_budget_bytes", 1e12),
        ("gpu_budget_bytes", None), ("compute_window_ms", "80"),
        ("compute_window_ms", False), ("mode", "full_method"),
    ], ids=repr)
    def test_directly_built_config_checks_its_numbers(self, key, value):
        # Unchecked, a fractional k fails in the fit with a bare TypeError,
        # k=True runs as k=1, a float budget runs and echoes a float, and a
        # mode string selects independently, then fails in the switch table.
        config = aggregate_scenario()[0].config
        with pytest.raises(ConfigError, match=key):
            dataclasses.replace(config, **{key: value})


class TestLoadScenario:
    @pytest.mark.parametrize("timestamps", [False, True], ids=["plain", "timestamped"])
    def test_each_entry_is_its_task_specs_id(self, tmp_path, monkeypatch, timestamps):
        # Each log and trace entry is the index of its task spec, and the fit
        # takes each log entry as its task spec's own id string.
        config = small_scenario(tmp_path)
        entries = {}
        for path in (config.log, config.trace):
            entries[path] = path.read_text(encoding="utf-8").split()
            write_entries(path, entries[path], timestamps)
        scenario = replay.load_scenario(config)
        assert scenario.trace and scenario.log
        for held, path in ((scenario.log, config.log), (scenario.trace, config.trace)):
            assert held == task_indices(scenario.task_ids, entries[path])
            assert held.typecode == "B"
        fit, fitted = replay.fit_transition_model, []
        monkeypatch.setattr(replay, "fit_transition_model",
                            lambda log, k: fitted.append(log) or fit(log, k))
        replay_scenario(scenario, (DeployMode.MONOLITHIC,))
        specs = {t.task_id: t for t in scenario.tasks}
        assert list(fitted[0]) == entries[config.log]
        assert all(task is specs[task].task_id for task in fitted[0])

    def test_a_trace_of_many_slices_maps_every_step(self, tmp_path):
        # 20,000 steps span many of the loader's slices, and every step is
        # the index of the task the line names.
        steps = (ROUTE * 4_000)[:20_000]
        config = small_scenario(tmp_path, trace=steps)
        scenario = replay.load_scenario(config)
        assert scenario.trace == task_indices(scenario.task_ids, steps)

    @pytest.mark.parametrize("check, edit, message", [
        ("budget", {"cpu_budget_bytes": 1}, "admit the largest block"),
        ("overflow", {"gpu_budget_bytes": 10 ** 400, "cpu_budget_bytes": 10 ** 400},
         None),
        ("oracle", {"oracle": {"kind": "table"}}, "require a path"),
    ])
    def test_unknown_trace_ids_come_after_the_config_checks(self, tmp_path, check,
                                                            edit, message):
        # A trace with an unknown id fails the checks that precede the trace
        # check as one without it does; the overflow check counts the
        # unknown step among the trace's switches.
        config = small_scenario(tmp_path, trace=["Car", "Ghost", "Car", "Person"])
        with pytest.raises(ReplayError, match="'Ghost' is not a scenario task") as err:
            replay.load_scenario(config)
        assert err.value.position == 1
        if check == "overflow":
            sizes = json.loads(config.manifest.read_text(encoding="utf-8"))
            sizes["block_sizes_bytes"] = [10 ** 307] * len(sizes["block_sizes_bytes"])
            config.manifest.write_text(json.dumps(sizes), encoding="utf-8")
            message = "over the trace's 3 switches"
        with pytest.raises(ConfigError, match=message):
            replay.load_scenario(dataclasses.replace(config, **edit))

    @pytest.mark.parametrize("timestamps", [False, True], ids=["plain", "timestamped"])
    def test_unknown_ids_keep_their_positions(self, tmp_path, timestamps):
        config = small_scenario(tmp_path)
        write_entries(config.trace, ["Car", "Person", "Ghost", "Car"], timestamps)
        with pytest.raises(ReplayError) as err:
            replay.load_scenario(config)
        assert err.value.position == 2
        # A log id no task has is refused at load, at its log position.
        write_entries(config.trace, ["Car", "Person"], timestamps)
        write_entries(config.log, ["Car", "Person", "Car", "Ghost", "Car"],
                      timestamps)
        with pytest.raises(LogParseError, match="unknown task id 'Ghost'") as err:
            replay.load_scenario(config)
        assert err.value.position == 3

    @pytest.mark.parametrize("log, position", [
        (["Car", "Spaceship"], 1),
        (["Spaceship", "Car", "Rocket"], 0),
        (["Car", "Car", "Rocket", "Spaceship"], 2),
    ])
    def test_unknown_log_ids_report_the_first_position(self, tmp_path, log, position):
        config = small_scenario(tmp_path)
        write_entries(config.log, log, False)
        with pytest.raises(LogParseError) as err:
            replay.load_scenario(config)
        assert str(err.value) == (f"unknown task id {log[position]!r} "
                                  f"(log position {position})")
        assert err.value.position == position

    def test_an_unknown_log_id_comes_after_the_config_and_trace_checks(self, tmp_path):
        config = small_scenario(tmp_path, trace=["Car", "Ghost", "Car"])
        write_entries(config.log, ["Car", "Spaceship", "Car"], False)
        with pytest.raises(ConfigError, match="admit the largest block"):
            replay.load_scenario(dataclasses.replace(config, cpu_budget_bytes=1))
        with pytest.raises(ReplayError, match="'Ghost' is not a scenario task"):
            replay.load_scenario(config)
        write_entries(config.trace, ["Car", "Person"], False)
        with pytest.raises(LogParseError, match="'Spaceship'"):
            replay.load_scenario(config)

    def test_a_trace_step_retains_one_byte(self, tmp_path):
        # Each trace step and each log entry holds its task's index in one
        # byte, two bytes a step for both; a tuple or list slot per entry
        # would take 8 B, and a string per entry 64 B or more. CPython 3.11
        # reads 2.0 B a step.
        replay.load_scenario(small_scenario(tmp_path / "warm-up"))
        retained = []
        for steps in (2_000, 20_000):
            entries = (ROUTE * steps)[:steps]
            config = small_scenario(tmp_path / str(steps), trace=entries)
            write_entries(config.log, entries, False)
            gc.collect()
            tracemalloc.start()
            try:
                scenario = replay.load_scenario(config)
                retained.append(tracemalloc.get_traced_memory()[0])
            finally:
                tracemalloc.stop()
            assert len(scenario.trace) == len(scenario.log) == steps
        assert (retained[1] - retained[0]) / 18_000 < 3

    @pytest.mark.parametrize("timestamps", [False, True], ids=["plain", "timestamped"])
    def test_loading_peaks_within_4_bytes_a_step_over_the_text(self, tmp_path,
                                                               timestamps):
        # The file's bytes and its text, two bytes a character, plus the
        # one-byte index array: no list of the file's lines or of the
        # entries, which would hold 8 B a step or more. CPython 3.11 reads
        # 15.4 B a step plain and 32.2 B timestamped, under the 48 B a step
        # the trace's tuple, six times over, once allowed.
        config = small_scenario(tmp_path)
        write_entries(config.trace, (ROUTE * 4_000)[:20_000], timestamps)
        chars = len(config.trace.read_text(encoding="utf-8"))
        replay.load_scenario(config)
        gc.collect()
        tracemalloc.start()
        try:
            scenario = replay.load_scenario(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(scenario.trace) == 20_000
        assert peak / 20_000 < 2 * chars / 20_000 + 4 < 48


# A closed walk over four tasks that takes each ordered pair of distinct
# tasks once (back to its start).
ALL_PAIRS_WALK = (0, 1, 2, 3, 0, 2, 1, 3, 2, 0, 3, 1)


@st.composite
def replay_inputs(draw):
    """A small in-memory scenario with its selections and transition model.

    Block sizes differ, so float sums depend on the order they walk
    blocks. The device budget is the whole model or a drawn byte count, so
    some replays fail on a task that does not fit the device. The host
    holds from one block to the whole model; a small host cache makes its
    contents depend on the path the trace took.

    Half the scenarios have four tasks and a log that ties all three
    successors of each, more of them than ``k``, so the task-id tie-break
    picks the pre-load tiers. For that choice to reach the records, these
    scenarios skip a block in every task, fit the device and stage within
    a window.
    """
    n = draw(st.integers(2, 8))
    sizes = tuple(draw(st.lists(st.integers(1_000, 50_000), min_size=n, max_size=n)))
    tied = draw(st.booleans())
    # The ids share a drawn prefix: their sort order stays fixed, while
    # anything else about them, such as their hashes, varies.
    prefix = f"t{draw(st.integers(0, 10**6))}-"
    ids = tuple(f"{prefix}{i}" for i in range(4 if tied else draw(st.integers(2, 4))))
    blocks = st.integers(0, n - 1)
    selections = {}
    for tid in ids:
        order = tuple(draw(st.lists(blocks, unique=True, min_size=int(tied),
                                    max_size=n - 1)))
        selections[tid] = SelectionResult(skipped=frozenset(order), final_score=1.0,
                                          oracle_calls=1, removal_order=order)
    total = sum(sizes)
    windows = [5.0, 20.0, 80.0, 1e9]
    host_blocks = draw(st.integers(1, n))
    k = draw(st.sampled_from([1, 2]))
    config = ScenarioConfig(
        manifest=Path("manifest.json"), tasks=Path("tasks.json"),
        oracle={}, log=Path("log.txt"), trace=Path("trace.txt"),
        cost_model=Path("cost.json"),
        gpu_budget_bytes=total if tied else draw(st.one_of(
            st.just(total), st.integers(max(sizes), total))),
        cpu_budget_bytes=min(total, host_blocks * max(sizes)), k=k,
        compute_window_ms=draw(st.sampled_from(windows if tied else [0.0, *windows])))
    cost = CostModel(disk_to_cpu_mbps=draw(st.floats(1.0, 10.0)),
                     cpu_to_gpu_mbps=draw(st.floats(5.0, 50.0)),
                     per_block_fixed_ms=draw(st.sampled_from([0.0, 0.5])),
                     monolithic_init_ms=draw(st.sampled_from([0.0, 7.0])))
    if tied:
        walk = ALL_PAIRS_WALK * draw(st.integers(1, 3))
        log = tuple(ids[i] for i in walk + walk[:1])
    else:
        log = tuple(draw(st.lists(st.sampled_from(ids), min_size=2, max_size=30)))
    # Traces long enough to revisit step keys; tests above cover the
    # empty and one-task traces.
    trace = task_indices(ids, draw(st.lists(st.sampled_from(ids), min_size=10,
                                            max_size=60)))
    scenario = Scenario(
        config=config, manifest=ModelManifest("m", sizes),
        tasks=tuple(TaskSpec(tid, retention_ratio=0.9, max_remove=n) for tid in ids),
        oracles={}, log=task_indices(ids, log), trace=trace, cost=cost)
    return scenario, selections, fit_transition_model(log, k=k)


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
            assert replay_outcome(replay_mode, *args) \
                == replay_outcome(reference_replay, *args)

    def test_wide_indices_in_every_mode(self):
        # 18 tasks make 306 ordered pairs, more than one byte indexes: the
        # host-free modes share an array('H'). The trace takes every pair,
        # so full_method's order widens when its 257th record appears.
        ids = tuple(f"t{i:02}" for i in range(18))
        sizes = tuple(1_000 + 37 * b for b in range(24))
        walk = [i for a in range(len(ids)) for b in range(len(ids)) if a != b
                for i in (a, b)]
        log = [ids[i] for i in walk]
        config = ScenarioConfig(
            manifest=Path("manifest.json"), tasks=Path("tasks.json"),
            oracle={}, log=Path("log.txt"), trace=Path("trace.txt"),
            cost_model=Path("cost.json"), gpu_budget_bytes=sum(sizes),
            cpu_budget_bytes=6 * max(sizes), compute_window_ms=40.0)
        scenario = Scenario(
            config=config, manifest=ModelManifest("m", sizes),
            tasks=tuple(TaskSpec(tid, retention_ratio=0.9, max_remove=8) for tid in ids),
            oracles={}, log=task_indices(ids, log), trace=task_indices(ids, log),
            cost=CostModel(5.0, 20.0, per_block_fixed_ms=0.5))
        # Each task skips a different run of blocks.
        selections = {tid: SelectionResult(
            skipped=frozenset((i + j) % len(sizes) for j in range(2 + i % 5)),
            final_score=1.0, oracle_calls=1, removal_order=()) for i, tid in enumerate(ids)}
        model = fit_transition_model(log, k=2)
        reports = replay_scenario(scenario, DeployMode, selections, model)
        assert scenario.trace.typecode == "B"
        for mode, report in reports.items():
            assert report == reference_replay(scenario, mode, selections, model)
            assert len(report.records) > 256 and report.order.typecode == "H"

    # Each layer a full_method step reaches, and the host orders, plan
    # entries and staged prefixes among its arguments and its result.
    LAYER_ORDERS = {
        (replay, "plan_prefetch"): lambda args, plan: (args[2].cpu_lru, plan.entries),
        (replay, "execute_prefetch"): lambda args, out: (
            args[0].entries, args[1].cpu_lru, out[0].cpu_lru, out[1]),
        (prefetch, "stage_to_cpu"): lambda args, out: (args[1].cpu_lru, out[0].cpu_lru),
        (block_store, "evict"): lambda args, out: (args[1].cpu_lru, out.cpu_lru),
        (replay, "execute_switch"): lambda args, out: (args[0].cpu_lru, out[0].cpu_lru),
    }

    @pytest.mark.parametrize("num_blocks", [256, 300])
    def test_layers_take_tuple_host_orders_either_side_of_256_blocks(
            self, tmp_path, monkeypatch, num_blocks):
        # Up to 256 blocks every id fits in a byte and the replay keys its
        # memo by bytes; past that, by tuples. Either way every layer takes
        # and returns tuples, and every mode equals the reference.
        config = write_driving_scenario(
            tmp_path, num_blocks=num_blocks, target_monolithic_ms=3000.0, max_remove=100,
            correlation=0.3, trace_length=300, k=1, compute_window_ms=1000.0,
            cpu_budget_blocks=12)
        orders = {}

        def spy(module, name, pick):
            layer = getattr(module, name)

            def spying(*args):
                result = layer(*args)
                orders.setdefault(name, []).extend(pick(args, result))
                return result
            monkeypatch.setattr(module, name, spying)

        for (module, name), pick in self.LAYER_ORDERS.items():
            spy(module, name, pick)
        scenario = replay.load_scenario(config)
        selections = replay.build_all_tasks(scenario.tasks, scenario.oracles, align=True)
        model = fit_transition_model(logged_tasks(scenario), k=1)
        reports = replay_scenario(scenario, DeployMode, selections, model)
        assert orders.keys() == {name for _, name in self.LAYER_ORDERS}
        for name, seen in orders.items():
            assert {type(order) for order in seen} == {tuple}, name
        # The host fills up, so it evicts; at 300 blocks it holds ids past a
        # byte.
        assert max(map(len, orders["plan_prefetch"])) == 12
        if num_blocks > 256:
            assert max(map(max, filter(None, orders["stage_to_cpu"]))) > 255
        for mode, report in reports.items():
            assert report == reference_replay(scenario, mode, selections, model)

    # Each layer that takes the host budget, and its argument position.
    BUDGET_ARGS = {(replay, "plan_prefetch"): 4, (replay, "execute_prefetch"): 5,
                   (prefetch, "stage_to_cpu"): 3}

    def test_every_layer_takes_the_configs_host_budget(self, tmp_path, monkeypatch):
        # No state carries a budget, so each call must be handed the
        # config's; a churning replay reaches every layer that takes one.
        config = host_churn_scenario(tmp_path)
        budgets = {}
        for (module, name), index in self.BUDGET_ARGS.items():
            def spying(*args, layer=getattr(module, name), name=name, index=index):
                budgets.setdefault(name, set()).add(args[index])
                return layer(*args)
            monkeypatch.setattr(module, name, spying)
        run_config(config)
        assert budgets == {name: {config.cpu_budget_bytes} for _, name in self.BUDGET_ARGS}

    def test_each_distinct_step_prefetches_and_switches_once(self, tmp_path,
                                                             monkeypatch):
        # Each distinct (current, next, host) key runs execute_prefetch
        # once, and execute_switch once if it switches; a memo hit calls
        # neither.
        config = host_churn_scenario(tmp_path)
        calls = {"execute_prefetch": 0, "execute_switch": 0}

        def counting(name):
            layer = getattr(replay, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return layer(*args, **kwargs)
            monkeypatch.setattr(replay, name, wrapper)

        for name in calls:
            counting(name)
        steps = self.reference_steps(config, run_config(config))
        keys = set(steps)
        assert len(keys) < len(steps)  # the memo hits
        assert calls == {"execute_prefetch": len(keys),
                         "execute_switch": sum(k[0] != k[1] for k in keys)}

    @staticmethod
    def reference_steps(config, report):
        """Every step's key (current task, next task, state before the
        step) in trace order, from the reference full_method replay of
        ``config``, which must equal ``report``."""
        scenario = replay.load_scenario(config)
        selections = replay.build_all_tasks(scenario.tasks, scenario.oracles, align=True)
        model = fit_transition_model(logged_tasks(scenario), k=config.k)
        steps = []
        assert reference_replay(scenario, DeployMode.FULL_METHOD, selections, model,
                                steps) == report
        return steps

    def test_each_computed_step_starts_from_its_memo_key(self, tmp_path, monkeypatch):
        # The replay computes a step at its key's first occurrence, and the
        # state it plans from is built from that key alone: the running
        # task's target, by identity, and the key's ``cpu_lru``.
        config = host_churn_scenario(tmp_path)
        tables = self.switch_tables(monkeypatch)
        inputs = []

        def recording(ranked, protected, state, manifest, budget):
            inputs.append(state)
            return plan(ranked, protected, state, manifest, budget)

        plan = replay.plan_prefetch
        monkeypatch.setattr(replay, "plan_prefetch", recording)
        steps = self.reference_steps(config, run_config(config))
        keys = list(dict.fromkeys(steps))
        assert len(keys) < len(steps)  # the memo hits
        assert len(inputs) == len(keys)
        [table] = tables
        for state, (current, _task, before) in zip(inputs, keys):
            target = table.target(DeployMode.FULL_METHOD, current)
            assert state == CacheState(target, before.cpu_lru)
            assert state.gpu_resident is target

    @staticmethod
    def switch_tables(monkeypatch):
        """Each mode's ``SwitchTable``, recorded as a compare builds them,
        one per replay in ``DeployMode`` order."""
        tables = []

        def recording(*args):
            tables.append(table(*args))
            return tables[-1]

        table = replay.SwitchTable
        monkeypatch.setattr(replay, "SwitchTable", recording)
        return tables

    def test_each_replay_builds_one_leg_per_distinct_pair(self, tmp_path, monkeypatch):
        # Split legs are keyed on the (from, to) pair, not on the device
        # set. In full_method too every pair is built, because a pair's
        # first occurrence is a step key not seen before. The
        # monolithic-style modes reload instead, and build no leg.
        tables = self.switch_tables(monkeypatch)
        config = host_churn_scenario(tmp_path)
        compare_modes(config)
        scenario = replay.load_scenario(config)
        ids = scenario.task_ids
        pairs = {(ids[a], ids[b]) for a, b in scenario.switch_pairs[0]}
        assert len(pairs) > 1 and len(tables) == len(DeployMode)
        for mode, table in zip(DeployMode, tables):
            assert set(table._legs) == (pairs if mode.is_split else set())

    def test_each_replay_keeps_one_reload_per_target_set(self, tmp_path, monkeypatch):
        # A whole-checkpoint reload depends on its target alone: monolithic's
        # five tasks share the whole model, and sparse_no_split keeps one
        # reload per distinct incoming active set. The split modes reload
        # nothing.
        built = self.switch_tables(monkeypatch)
        config = host_churn_scenario(tmp_path)
        compare_modes(config)
        tables = dict(zip(DeployMode, built))
        scenario = replay.load_scenario(config)
        incoming = {scenario.task_ids[to] for _, to in scenario.switch_pairs[0]}
        assert len(scenario.tasks) == len(incoming) == 5
        sparse = tables[DeployMode.SPARSE_NO_SPLIT]
        assert list(tables[DeployMode.MONOLITHIC]._reloads) == [scenario.manifest.all_blocks]
        assert set(sparse._reloads) == {sparse.active[task] for task in incoming}
        assert not tables[DeployMode.SPLIT_ONLY]._reloads
        assert not tables[DeployMode.FULL_METHOD]._reloads


def host_churn_scenario(root, trace_length=600):
    """The host-churn benchmark's shape, on a 600-step trace unless told
    otherwise: 64 blocks, a 12-block host, k=1 and a window for every plan,
    so the host order keeps changing and most full_method steps miss the
    memo."""
    return write_driving_scenario(
        root, num_blocks=64, target_monolithic_ms=3000.0, max_remove=24,
        correlation=0.3, trace_length=trace_length, k=1, compute_window_ms=1000.0,
        cpu_budget_blocks=12, mode="full_method")


def host_free_scenario(trace, gpu_budget_bytes):
    """Three tasks on four blocks: "a" holds 30 bytes on the device, "b" 50,
    and "c" 90; the whole model is 100 bytes."""
    ids = ("a", "b", "c")
    config = ScenarioConfig(
        manifest=Path("manifest.json"), tasks=Path("tasks.json"),
        oracle={}, log=Path("log.txt"), trace=Path("trace.txt"),
        cost_model=Path("cost.json"), gpu_budget_bytes=gpu_budget_bytes,
        cpu_budget_bytes=40)
    log = ("a", "b", "c", "a", "c", "b", "a")
    scenario = Scenario(
        config=config, manifest=ModelManifest("m", (10, 20, 30, 40)),
        tasks=tuple(TaskSpec(tid, retention_ratio=0.9, max_remove=4) for tid in ids),
        oracles={}, log=task_indices(ids, log), trace=task_indices(ids, trace),
        cost=CostModel(1.0, 2.0, per_block_fixed_ms=0.5, monolithic_init_ms=7.0))
    skipped = {"a": (2, 3), "b": (0, 3), "c": (0,)}
    selections = {tid: SelectionResult(skipped=frozenset(order), final_score=1.0,
                                       oracle_calls=1, removal_order=order)
                  for tid, order in skipped.items()}
    return scenario, selections, fit_transition_model(log, k=1)


HOST_FREE = [m for m in DeployMode if m is not DeployMode.FULL_METHOD]


class TestHostFreeModes:
    """monolithic, sparse_no_split and split_only never stage, so they take
    one report per distinct (from, to) pair from the switch table, with no
    cache state."""

    # Self-steps between the switches, and pairs that repeat.
    LOOP = ["a", "a", "b", "b", "b", "a", "a", "b", "a"]

    @pytest.mark.parametrize("mode", HOST_FREE, ids=lambda m: m.value)
    def test_self_steps_and_repeats_match_reference(self, mode):
        scenario, selections, model = host_free_scenario(self.LOOP * 6, 100)
        fast = replay_mode(scenario, mode, selections, model)
        assert fast == reference_replay(scenario, mode, selections, model)
        assert len(fast.records) == 2 and len(fast.order) == 6 * 4

    @pytest.mark.parametrize("mode", HOST_FREE, ids=lambda m: m.value)
    def test_builds_no_cache_state_and_executes_no_switch(self, monkeypatch, mode):
        def refused(*args):
            raise AssertionError("a host-free replay stepped a cache state")

        monkeypatch.setattr(replay, "CacheState", refused)
        monkeypatch.setattr(replay, "execute_switch", refused)
        scenario, selections, model = host_free_scenario(
            self.LOOP * 3 + ["b", "c", "a", "c", "b"], 100)
        assert replay_mode(scenario, mode, selections, model) \
            == reference_replay(scenario, mode, selections, model)

    @pytest.mark.parametrize("mode", HOST_FREE, ids=lambda m: m.value)
    def test_failing_switch_fails_at_the_pairs_first_position(self, monkeypatch, mode):
        # The pair ("b", "c") first switches at position 28, and again at 31;
        # the table computes each pair once, and its error takes the first.
        calls = []

        def failing(table, mode, from_task, to_task):
            calls.append((from_task, to_task))
            if (from_task, to_task) == ("b", "c"):
                raise BudgetExceededError("gpu", 1)
            return report(table, mode, from_task, to_task)

        report = SwitchTable.report
        monkeypatch.setattr(SwitchTable, "report", failing)
        scenario, selections, model = host_free_scenario(
            self.LOOP * 3 + ["b", "c", "a", "b", "c"], 100)
        with pytest.raises(ReplayError, match="gpu budget exceeded by 1 bytes") as err:
            replay_mode(scenario, mode, selections, model)
        assert err.value.position == 28
        assert calls == [("a", "b"), ("b", "a"), ("b", "c")]

    def test_modes_share_one_switch_order(self):
        scenario, selections, model = host_free_scenario(self.LOOP * 3, 100)
        orders = {id(replay_mode(scenario, mode, selections, model).order)
                  for mode in HOST_FREE}
        assert orders == {id(scenario.switch_pairs[1])}
        assert scenario.switch_pairs[0] == ((0, 1), (1, 0))


class TestDeviceBudget:
    """Every mode checks each task's device target against the device
    budget once, with ``check_device``: the first task's at position 0,
    and each other's at the first switch into it."""

    @pytest.mark.parametrize("mode", DeployMode, ids=lambda m: m.value)
    def test_device_budget_failure_deep_in_the_trace(self, mode):
        # Task "c" first runs at position 56, after the trace has repeated
        # other pairs and self-steps; its 90 bytes exceed the 60-byte device
        # by 30. The whole model never fits, so monolithic fails on the
        # first load, by 40.
        trace = TestHostFreeModes.LOOP * 6 + ["a", "a", "c", "c", "b"]
        scenario, selections, model = host_free_scenario(trace, 60)
        fast, ref = (replay_outcome(fn, scenario, mode, selections, model)
                     for fn in (replay_mode, reference_replay))
        position, shortfall = (0, 40) if mode is DeployMode.MONOLITHIC else (56, 30)
        assert fast == ref == (position, f"gpu budget exceeded by {shortfall} bytes "
                                         f"(trace position {position})")

    @pytest.mark.parametrize("mode", DeployMode, ids=lambda m: m.value)
    def test_device_budget_failure_on_the_first_task(self, mode):
        # The first task's target is checked at position 0, before any pair.
        scenario, selections, model = host_free_scenario(["c", "a", "b", "c"], 60)
        fast, ref = (replay_outcome(fn, scenario, mode, selections, model)
                     for fn in (replay_mode, reference_replay))
        # "c" holds 90 bytes, the whole model 100.
        shortfall = 40 if mode is DeployMode.MONOLITHIC else 30
        assert fast == ref == (0, f"gpu budget exceeded by {shortfall} bytes "
                                  "(trace position 0)")


def without_mode(outcome):
    """A replay outcome's switches with the mode left out, or its error."""
    if isinstance(outcome, tuple):
        return outcome
    return [s._replace(mode="") for s in outcome.switches]


def scaled(scenario: Scenario, factor: int) -> Scenario:
    """``scenario`` with block sizes, budgets and bandwidths times ``factor``."""
    config = dataclasses.replace(
        scenario.config, gpu_budget_bytes=scenario.config.gpu_budget_bytes * factor,
        cpu_budget_bytes=scenario.config.cpu_budget_bytes * factor)
    manifest = ModelManifest(scenario.manifest.model_name,
                             tuple(s * factor for s in scenario.manifest.block_sizes))
    cost = dataclasses.replace(
        scenario.cost, disk_to_cpu_mbps=scenario.cost.disk_to_cpu_mbps * factor,
        cpu_to_gpu_mbps=scenario.cost.cpu_to_gpu_mbps * factor)
    return dataclasses.replace(scenario, config=config, manifest=manifest, cost=cost)


class TestMetamorphicRelations:
    """Relations between two different replays, with no reference: each
    asserts exact equality of the unrounded switch floats."""

    @given(replay_inputs())
    @settings(max_examples=100, deadline=None)
    def test_zero_window_full_method_is_split_only(self, inputs):
        # With no window nothing is ever staged, so no block skips the disk
        # leg: full_method is split_only on the same (aligned) skip sets.
        scenario, selections, model = inputs
        scenario = dataclasses.replace(
            scenario, config=dataclasses.replace(scenario.config, compute_window_ms=0.0))
        full, split = (replay_outcome(replay_mode, scenario, mode, selections, model)
                       for mode in (DeployMode.FULL_METHOD, DeployMode.SPLIT_ONLY))
        assert without_mode(full) == without_mode(split)

    @given(replay_inputs(), st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_scaling_bytes_and_bandwidths_keeps_every_latency(self, inputs, power):
        # Bytes over MB/s: a power of two cancels exactly in every transfer
        # time, and every byte comparison keeps its outcome.
        scenario, selections, model = inputs
        factor = 2 ** power
        big = scaled(scenario, factor)
        for mode in DeployMode:
            base, bigger = (replay_outcome(replay_mode, s, mode, selections, model)
                            for s in (scenario, big))
            if isinstance(base, tuple):
                assert bigger[0] == base[0]  # same trace position
                continue
            assert bigger.order == base.order
            assert [s._replace(
                bytes_disk_to_cpu=s.bytes_disk_to_cpu // factor,
                bytes_cpu_to_gpu=s.bytes_cpu_to_gpu // factor,
                gpu_resident_bytes_after=s.gpu_resident_bytes_after // factor)
                for s in bigger.records] == list(base.records)
            assert (bigger.mean_latency_ms, bigger.prestage_hit_rate) \
                == (base.mean_latency_ms, base.prestage_hit_rate)

    @given(replay_inputs(), st.integers(1, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_device_slack_changes_nothing(self, inputs, slack):
        # The device holds exactly the running task's target and never
        # evicts, so a budget above the largest target replays exactly as
        # one equal to it.
        scenario, selections, model = inputs
        manifest = scenario.manifest
        active = [frozenset(range(manifest.num_blocks)) - r.skipped
                  for r in selections.values()]
        for mode in DeployMode:
            largest = (sum(manifest.block_sizes) if mode is DeployMode.MONOLITHIC
                       else max(map(manifest.bytes_of, active)))
            tight, roomy = (
                replay_outcome(replay_mode, dataclasses.replace(
                    scenario, config=dataclasses.replace(scenario.config,
                                                         gpu_budget_bytes=budget)),
                    mode, selections, model)
                for budget in (largest, largest + slack))
            if isinstance(tight, tuple):
                assert roomy == tight
                continue
            assert (roomy.records, roomy.order) == (tight.records, tight.order)
            assert (roomy.mean_latency_ms, roomy.prestage_hit_rate) \
                == (tight.mean_latency_ms, tight.prestage_hit_rate)

    @given(replay_inputs())
    @settings(max_examples=60, deadline=None)
    def test_renaming_tasks_changes_only_the_names(self, inputs):
        # A common prefix keeps the ids' sort order, so every tie that task
        # ids break (successor ranking, priority order) breaks the same way.
        # The log and the trace hold task indices, so they name the renamed
        # tasks as they are.
        scenario, selections, model = inputs
        name = {tid: "renamed-" + tid for tid in scenario.task_ids}
        old = {new: tid for tid, new in name.items()}
        renamed = dataclasses.replace(
            scenario, tasks=tuple(dataclasses.replace(t, task_id=name[t.task_id])
                                  for t in scenario.tasks))
        renamed_selections = {name[tid]: r for tid, r in selections.items()}
        renamed_model = fit_transition_model(logged_tasks(renamed), k=model.k)
        for mode in DeployMode:
            base = replay_outcome(replay_mode, scenario, mode, selections, model)
            other = replay_outcome(replay_mode, renamed, mode, renamed_selections,
                                   renamed_model)
            if isinstance(base, tuple):
                assert (other[0], other[1].replace("renamed-", "")) == base
                continue
            assert other.order == base.order
            assert [r._replace(from_task=old[r.from_task], to_task=old[r.to_task])
                    for r in other.records] == list(base.records)
            assert other.task_ids == tuple(map(name.__getitem__, base.task_ids))
            # Every other field, each float unrounded, is unchanged.
            assert dataclasses.replace(other, task_ids=base.task_ids,
                                       records=base.records) == base


# Sums of these differ between naive and exactly rounded summation, e.g.
# 1e16 + 1.0 + 1.0 or 0.1 + 0.2 + 0.3.
LATENCIES = st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1.0, 2.675, 1e16, 1 / 3]),
                      st.floats(0.0, 1e4))
# Task ids that CSV must quote, and one outside ASCII.
ODD_IDS = ('say "hi"', "Ampel-\u00e4")
TASK = st.sampled_from(["a", "b", "c", *ODD_IDS])
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
    order = array("I", draw(st.lists(st.integers(0, len(records) - 1), max_size=40)))
    return records, order


def aggregate_scenario(ids=("a", "b", "c")):
    config = ScenarioConfig(
        manifest=Path("manifest.json"), tasks=Path("tasks.json"),
        oracle={}, log=Path("log.txt"), trace=Path("trace.txt"),
        cost_model=Path("cost.json"), gpu_budget_bytes=1, cpu_budget_bytes=1)
    scenario = Scenario(
        config=config, manifest=ModelManifest("m", (1, 1, 1)),
        tasks=tuple(TaskSpec(tid, retention_ratio=0.9, max_remove=3) for tid in ids),
        oracles={}, log=task_indices(ids, ()), trace=task_indices(ids, ()),
        cost=CostModel(1.0, 1.0))
    selections = {tid: SelectionResult(skipped=frozenset({i}), final_score=1.0,
                                       oracle_calls=1, removal_order=(i,))
                  for i, tid in enumerate(ids)}
    return scenario, selections, replay._jaccard_matrix(ids, selections)


class TestAggregateMatchesReference:
    """Aggregation and compare.csv per distinct record equal the per-switch
    reference, floats unrounded."""

    @given(record_tables())
    @settings(max_examples=150, deadline=None)
    def test_every_report_field(self, table):
        records, order = table
        scenario, selections, matrix = aggregate_scenario()
        fast = replay._aggregate(DeployMode.FULL_METHOD, scenario, matrix,
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
    @example(tables=[((SwitchReport(ODD_IDS[0], ODD_IDS[1], "m", 1.5, 0, 0, 0, 0, 0, 0),
                       SwitchReport(ODD_IDS[1], "a", "m", 2.25, 0, 0, 0, 0, 0, 0)),
                      array("I", (0, 1, 0)))] * 4)
    @settings(max_examples=50, deadline=None)
    def test_compare_csv_bytes(self, out, tables):
        scenario, selections, matrix = aggregate_scenario()
        fast, ref = {}, {}
        for mode, (records, order) in zip(DeployMode, tables):
            fast[mode] = replay._aggregate(mode, scenario, matrix, records, order)
            ref[mode] = reference_aggregate(mode, scenario, selections,
                                            [records[i] for i in order])
        assert write_compare_csv(fast, out / "fast.csv").read_bytes() \
            == reference_write_compare_csv(ref, out / "ref.csv").read_bytes()

    @given(st.lists(st.sampled_from([0.5, 1.0, 2.675, 1e16]) | st.floats(0.0, 1e4),
                    min_size=1, max_size=6),
           st.data())
    @example([2.0], None)
    @example([3.0, 3.0, 1.0], None)
    @settings(max_examples=150, deadline=None)
    def test_median_from_counts(self, latencies, data):
        # Odd and even trace lengths, ties within and across records.
        records = tuple(SwitchReport("a", "b", "m", lat, 0, 0, 0, 0, 0, 0)
                        for lat in latencies)
        indices = st.integers(0, len(records) - 1)
        order = (tuple(range(len(records))) * 2 if data is None
                 else tuple(data.draw(st.lists(indices, min_size=1, max_size=41))))
        scenario, _, matrix = aggregate_scenario()
        fast = replay._aggregate(DeployMode.SPLIT_ONLY, scenario, matrix,
                                 records, order)
        assert fast.median_latency_ms == statistics.median(
            records[i].latency_ms for i in order)

    def test_sum_that_naive_addition_rounds_differently(self):
        # Left to right, sum() drops every 1.0 added to 1e16; fsum keeps them.
        records = (SwitchReport("a", "b", "m", 1e16, 0, 0, 0, 0, 0, 0),
                   SwitchReport("b", "a", "m", 1.0, 0, 0, 0, 0, 0, 0))
        scenario, selections, matrix = aggregate_scenario()
        for order in ((0, 1, 1), (0, 1, 1, 1), ()):
            fast = replay._aggregate(DeployMode.MONOLITHIC, scenario, matrix,
                                     records, order)
            ref = reference_aggregate(DeployMode.MONOLITHIC, scenario, selections,
                                      [records[i] for i in order])
            assert fast.mean_latency_ms == ref.mean_latency_ms
            assert fast.median_latency_ms == ref.median_latency_ms
        assert fast.mean_latency_ms is None and fast.switches == ()

    @given(st.lists(st.frozensets(st.integers(0, 7), max_size=8), min_size=1, max_size=6))
    @example([frozenset(), frozenset()])
    @example([frozenset(), frozenset({1}), frozenset(range(8))])
    @settings(max_examples=150, deadline=None)
    def test_jaccard_matrix_equals_every_cell_computed(self, skips):
        # Equal and empty skip sets included: each mirrored cell and the
        # diagonal equal the per-cell ``jaccard``.
        ids = tuple(f"t{i}" for i in range(len(skips)))
        selections = {tid: SelectionResult(skipped=skip, final_score=1.0,
                                           oracle_calls=1, removal_order=tuple(skip))
                      for tid, skip in zip(ids, skips)}
        assert replay._jaccard_matrix(ids, selections) \
            == tuple(tuple(jaccard(a, b) for b in skips) for a in skips)


class TestCountedFsum:
    """``counted_fsum`` is ``math.fsum`` of the expanded multiset."""

    # Mixes that naive addition rounds differently, subnormals, and values
    # whose doubled sum overflows. ``abs`` drops -0.0, which no report holds.
    VALUES = (st.sampled_from([1e16, 1.0, 0.1, 1 / 3, 5e-324, 1e-310, 1.7e308, 9e307])
              | st.floats(0.0, allow_nan=False, allow_infinity=False).map(abs))

    @given(st.lists(st.tuples(VALUES, st.integers(0, 50)), max_size=8))
    @example([(1e16, 1), (1.0, 3)])
    @example([(5e-324, 3), (1e-310, 2)])
    @example([(1.7e308, 2)])
    @settings(max_examples=300, deadline=None)
    def test_equals_fsum_of_the_expanded_values(self, counted):
        expanded = [value for value, count in counted for _ in range(count)]
        try:
            expected = math.fsum(expanded)
        except OverflowError:
            with pytest.raises(OverflowError):
                counted_fsum(counted)
            return
        assert counted_fsum(counted) == expected

    def test_sum_beyond_the_float_range_raises_as_fsum_does(self):
        with pytest.raises(OverflowError):
            math.fsum([1.7e308] * 2)
        with pytest.raises(OverflowError):
            counted_fsum([(1.7e308, 2)])


def older_block_reported_staged(state, staged):
    """The host also holds an older block, which is a valid host, and the
    prefetch reports that oldest resident block as staged last: it is
    host-resident, but not among the newest."""
    older = min(frozenset(range(16)) - state.cpu_resident)
    return state._replace(cpu_lru=(older,) + state.cpu_lru), staged + (older,)


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

    @staticmethod
    def corrupt_switch(monkeypatch, call, corrupt):
        calls = 0

        def corrupting(*args):
            nonlocal calls
            state, report = switch(*args)
            calls += 1
            return (corrupt(state) if calls == call else state), report

        switch = replay.execute_switch
        monkeypatch.setattr(replay, "execute_switch", corrupting)

    @pytest.mark.parametrize("call, corrupt", [
        (3, lambda state, staged: (
            state._replace(cpu_lru=state.cpu_lru + state.cpu_lru[:1]), staged)),
        (3, lambda state, staged: (
            state, staged + (min(frozenset(range(16)) - state.cpu_resident),))),
        (3, lambda state, staged: older_block_reported_staged(state, staged)),
        # A step without a switch: no device load follows the prefetch.
        (1, lambda state, staged: (
            state._replace(gpu_resident=frozenset()), staged)),
    ], ids=["lru-lists-a-block-twice", "staged-not-host-resident",
            "staged-oldest-host-block", "device-emptied"])
    def test_corrupt_prefetch_fails_at_its_position(self, tmp_path, monkeypatch,
                                                    call, corrupt):
        config = small_scenario(tmp_path, trace=self.TRACE, window=1e9,
                                cpu_budget_blocks=4)
        self.corrupt_prefetch(monkeypatch, call, corrupt)
        with pytest.raises(ReplayError) as err:
            run_config(config)
        assert err.value.position == call

    # With no window nothing is staged, so the host is the step's input
    # until the switch. Switch calls 1 to 3 run at positions 2, 3 and 5.
    # The corrupt order is a valid host; only the switch's own check sees it.
    @pytest.mark.parametrize("corrupt", [
        lambda state: state._replace(cpu_lru=state.cpu_lru + (0,)),
    ], ids=["lru-gains-block"])
    def test_corrupt_switch_host_fails_at_its_position(self, tmp_path, monkeypatch,
                                                       corrupt):
        config = small_scenario(tmp_path, trace=self.TRACE, window=0.0,
                                cpu_budget_blocks=4)
        self.corrupt_switch(monkeypatch, 2, corrupt)
        with pytest.raises(ReplayError) as err:
            run_config(config)
        assert err.value.position == 3

    @pytest.mark.parametrize("corrupt", [
        lambda state: state._replace(
            gpu_resident=state.gpu_resident - {min(state.gpu_resident)}),
        lambda state: state._replace(gpu_resident=frozenset(range(16))),
        lambda state: state._replace(gpu_resident=frozenset()),
    ], ids=["device-drops-a-block", "device-holds-the-whole-model", "device-emptied"])
    def test_corrupt_switch_device_fails_at_its_position(self, tmp_path, monkeypatch,
                                                         corrupt):
        # Switch call 2 runs at position 3, as in the host case above.
        config = small_scenario(tmp_path, trace=self.TRACE, window=0.0,
                                cpu_budget_blocks=4)
        self.corrupt_switch(monkeypatch, 2, corrupt)
        with pytest.raises(ReplayError, match="device does not hold") as err:
            run_config(config)
        assert err.value.position == 3

    def test_switch_leaving_an_equal_device_copy_passes(self, monkeypatch):
        # The device is compared by identity first, then by value: a copy
        # of the target passes the replay's check, and the next switch
        # starts from it.
        def copying(*args):
            after, report = switch(*args)
            return after._replace(gpu_resident=frozenset(sorted(after.gpu_resident))), \
                report

        switch = replay.execute_switch
        monkeypatch.setattr(replay, "execute_switch", copying)
        scenario, selections, model = host_free_scenario(
            TestHostFreeModes.LOOP * 3 + ["b", "c", "a", "c", "b"], 100)
        mode = DeployMode.FULL_METHOD
        assert replay_mode(scenario, mode, selections, model) \
            == reference_replay(scenario, mode, selections, model)

    def test_usefulness_outside_the_protected_tiers_fails_where_the_task_runs(
            self, tmp_path, monkeypatch):
        # Eviction by recency alone is exact only while every useful block is
        # protected. TrafficLight first runs at step 3, so its weights are
        # first read there.
        config = small_scenario(tmp_path, trace=self.TRACE, window=1e9,
                                cpu_budget_blocks=4)

        def widened(current, model, active):
            weights = usefulness(current, model, active)
            if current == "TrafficLight":
                tiers = replay.assign_tiers(current, active, model)
                weights[min(frozenset(range(16)) - tiers.runtime - tiers.preload)] = 0.5
            return weights

        usefulness = replay.block_usefulness
        monkeypatch.setattr(replay, "block_usefulness", widened)
        with pytest.raises(ReplayError) as err:
            run_config(config)
        assert err.value.position == 3
        assert "TrafficLight" in str(err.value)

    def test_uncorrupted_replay_passes(self, tmp_path, monkeypatch):
        config = small_scenario(tmp_path, trace=self.TRACE, window=1e9,
                                cpu_budget_blocks=4)
        self.corrupt_prefetch(monkeypatch, 1, lambda state, staged: (state, staged))
        assert len(run_config(config).switches) == 4


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

    @pytest.mark.parametrize("modes, aligns", [
        (None, [False, True]),
        ((DeployMode.FULL_METHOD,), [True]),
        ((DeployMode.SPLIT_ONLY,), [False]),
    ], ids=["compare", "full_method", "split_only"])
    def test_one_fit_per_compare_and_one_tiering_per_running_task(
            self, tmp_path, monkeypatch, modes, aligns):
        # One selection per alignment the modes need, the independent one
        # first, and one fit; ``None`` is a compare of all four modes. Only
        # full_method, the aligned mode, ranks pre-load tiers.
        calls = {"align": [], "fit": 0, "tiers": []}

        def counted_select(*args, align):
            calls["align"].append(align)
            return select(*args, align=align)

        def counted_fit(*args, **kwargs):
            calls["fit"] += 1
            return fit(*args, **kwargs)

        def counted_tiers(current, *args):
            calls["tiers"].append(current)
            return tiers(current, *args)

        select, fit, tiers = (replay.build_all_tasks, replay.fit_transition_model,
                              replay.assign_tiers)
        monkeypatch.setattr(replay, "build_all_tasks", counted_select)
        monkeypatch.setattr(replay, "fit_transition_model", counted_fit)
        monkeypatch.setattr(replay, "assign_tiers", counted_tiers)
        config = small_scenario(tmp_path, window=40.0)
        if modes is None:
            compare_modes(config)
        else:
            replay_scenario(replay.load_scenario(config), modes)
        trace = (tmp_path / "trace.txt").read_text().split()
        assert calls["align"] == aligns
        assert calls["fit"] == 1
        assert sorted(calls["tiers"]) == (sorted(set(trace[:-1])) if True in aligns else [])

    def test_one_mode_replays_as_in_all_four(self, tmp_path):
        scenario = replay.load_scenario(host_churn_scenario(tmp_path))
        reports = replay_scenario(scenario)
        assert list(reports) == list(DeployMode)
        for mode in DeployMode:
            assert replay_scenario(scenario, (mode,)) == {mode: reports[mode]}

    def test_given_selections_and_model_are_used_as_they_are(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("selected or fitted again")

        monkeypatch.setattr(replay, "build_all_tasks", refused)
        monkeypatch.setattr(replay, "fit_transition_model", refused)
        scenario, selections, model = host_free_scenario(TestHostFreeModes.LOOP * 3, 100)
        assert replay_scenario(scenario, DeployMode, selections, model) == {
            mode: reference_replay(scenario, mode, selections, model) for mode in DeployMode}

    def test_aligned_selection_only_in_full_method(self, tmp_path):
        reports = compare_modes(small_scenario(tmp_path, window=40.0))
        full = reports[DeployMode.FULL_METHOD]
        split = reports[DeployMode.SPLIT_ONLY]
        mean_j = lambda rep: statistics.fmean(
            rep.jaccard_matrix[i][j]
            for i in range(5) for j in range(i + 1, 5))
        assert mean_j(full) > mean_j(split)


# Records for the batch tests. Task ids outside ASCII check that the bytes
# are JSON's escaped text.
BATCH_RECORDS = (SwitchReport("Car", "Ampel-\u00e4", "m", 1.0005, 1, 2, 3, 4, 5, 6),
                 SwitchReport("Ampel-\u00e4", "Car", "m", 2.25, 0, 0, 0, 0, 0, 0),
                 SwitchReport("Car", "Person", "m", 1e16 / 3, 7, 8, 9, 1, 2, 3))
# switches.jsonl lines per write: as many of the longest line as the byte
# bound holds.
BATCH = replay._WRITE_BYTES // max(len(reference_switch_line(r).encode())
                                   for r in BATCH_RECORDS)


class RecordingFile:
    """A binary file that keeps the bytes of each write."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)
        self.writes = []

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes.append(bytes(data))
        return self.fh.write(data)


def emit_recording_writes(monkeypatch, report, out):
    """``emit_reports(report, out)``, and the bytes of each write of
    switches.jsonl."""
    files = []

    def recording_open(path, mode):
        files.append(RecordingFile(path, mode))
        return files[-1]

    monkeypatch.setattr(replay, "open", recording_open, raising=False)
    emit_reports(report, out)
    assert len(files) == 1
    return files[0].writes


# Record strings: any text, with JSON's escapes (quotes, backslashes,
# control characters) and characters outside ASCII, a lone surrogate too.
RECORD_TEXT = st.text(st.one_of(st.characters(),
                                st.sampled_from('"\\/\x00\x1f\x7f\u00e4\u2028\ud800\U0001f697')),
                      max_size=8)
# Latencies: any float, ties at the third decimal, and the edges of the
# float range.
RECORD_LATENCY = st.one_of(
    st.floats(),
    st.integers(-10 ** 9, 10 ** 9).map(lambda i: (i + 0.5) / 1000),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.675, 1.0005, 1e16 / 3, 1e22,
                     1.7976931348623157e308, math.inf, -math.inf, math.nan]))
RECORD_INT = st.integers(0, 2 ** 70)


class TestSwitchLine:
    @given(st.builds(SwitchReport, RECORD_TEXT, RECORD_TEXT, RECORD_TEXT, RECORD_LATENCY,
                     *[RECORD_INT] * 6))
    @settings(max_examples=300, deadline=None)
    def test_line_is_json_dumps_of_the_record(self, record):
        assert replay._switch_line(record) == reference_switch_line(record).encode()


class TestEmitReports:
    def test_five_tasks_give_a_6x6_jaccard_csv(self, tmp_path):
        report = run_config(small_scenario(tmp_path))
        emit_reports(report, tmp_path / "out")
        text = (tmp_path / "out" / "jaccard.csv").read_text()
        rows = list(csv.reader(text.splitlines()))
        assert len(rows) == 6
        assert all(len(r) == 6 for r in rows)

    def test_zero_switches_summary_has_header_only_latency_section(self, tmp_path):
        config = small_scenario(tmp_path, trace=["Car", "Car"])
        report = run_config(config)
        emit_reports(report, tmp_path / "out")
        text = (tmp_path / "out" / "summary.csv").read_text()
        assert "num_switches,0" in text
        assert "mean_latency_ms" not in text

    def test_rerun_is_byte_identical(self, tmp_path):
        config = small_scenario(tmp_path, window=30.0)
        emit_reports(run_config(config), tmp_path / "a")
        emit_reports(run_config(config), tmp_path / "b")
        for name in ("switches.jsonl", "summary.csv", "jaccard.csv",
                     "config.echo.json"):
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes()

    @pytest.mark.parametrize(
        "n", [0, 1, BATCH - 1, BATCH, BATCH + 1, 2 * BATCH + 1],
        ids=["0", "1", "B-1", "B", "B+1", "2B+1"])
    def test_batched_switches_match_per_line_writer(self, tmp_path, monkeypatch, n):
        # Batches of B lines: empty, short, one short of a batch, one batch,
        # one past it, and two batches and one line.
        order = tuple((i * i) % 3 for i in range(n))
        scenario, _, matrix = aggregate_scenario()
        report = replay._aggregate(DeployMode.SPLIT_ONLY, scenario, matrix,
                                   BATCH_RECORDS, order)
        writes = emit_recording_writes(monkeypatch, report, tmp_path)
        written = (tmp_path / "switches.jsonl").read_bytes()
        assert written == reference_write_switches(report, tmp_path / "ref.jsonl"
                                                   ).read_bytes()
        assert written.count(b"\n") == n
        assert b"".join(writes) == written
        assert [w.count(b"\n") for w in writes] == [
            min(BATCH, n - start) for start in range(0, n, BATCH)]
        assert all(len(w) <= replay._WRITE_BYTES for w in writes)

    def test_a_line_longer_than_the_bound_is_written_alone(self, tmp_path, monkeypatch):
        long_id = "L" * replay._WRITE_BYTES
        records = (*BATCH_RECORDS, SwitchReport("Car", long_id, "m", 1.5, 1, 1, 1, 1, 1, 1))
        order = (0, 3, 1, 2, 3, 3, 0)
        scenario, _, matrix = aggregate_scenario()
        report = replay._aggregate(DeployMode.SPLIT_ONLY, scenario, matrix,
                                   records, order)
        writes = emit_recording_writes(monkeypatch, report, tmp_path)
        assert b"".join(writes) == reference_write_switches(
            report, tmp_path / "ref.jsonl").read_bytes()
        # One line per write; only the long record's lines exceed the bound.
        assert [w.count(b"\n") for w in writes] == [1] * len(order)
        assert [len(w) > replay._WRITE_BYTES for w in writes] == [
            i == 3 for i in order]

    @pytest.mark.parametrize("case", ["replay", "zero-switches", "odd-ids"])
    def test_small_reports_match_text_mode_writers(self, tmp_path, case):
        if case == "odd-ids":
            ids = (*ODD_IDS, "Car")
            records = (SwitchReport(ids[0], ids[1], "m", 1.0005, 1, 2, 3, 4, 5, 6),
                       SwitchReport(ids[1], ids[2], "m", 2.25, 0, 0, 0, 0, 0, 0))
            scenario, _, matrix = aggregate_scenario(ids)
            report = replay._aggregate(DeployMode.SPLIT_ONLY, scenario, matrix,
                                       records, (0, 1, 0))
            report = dataclasses.replace(report, config_echo={
                **report.config_echo, "manifest": "Ampel-\u00e4/manifest.json"})
        else:
            trace = ["Car", "Car"] if case == "zero-switches" else None
            report = run_config(small_scenario(tmp_path, trace=trace, window=30.0))
        emit_reports(report, tmp_path / "fast")
        (tmp_path / "ref").mkdir()
        reference_write_small_reports(report, tmp_path / "ref")
        for name in ("summary.csv", "jaccard.csv", "config.echo.json"):
            assert (tmp_path / "fast" / name).read_bytes() \
                == (tmp_path / "ref" / name).read_bytes()

    def test_summary_recomputable_from_switch_stream(self, tmp_path):
        config = small_scenario(tmp_path, window=30.0)
        report = run_config(config)
        out = tmp_path / "out"
        emit_reports(report, out)
        rows = [json.loads(line)
                for line in (out / "switches.jsonl").read_text().splitlines()]
        text = (out / "summary.csv").read_text()
        summary = dict(r for r in csv.reader(text.splitlines()) if len(r) == 2)
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
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["from_task", "to_task", "count", "monolithic_ms",
                           "sparse_no_split_ms", "split_only_ms",
                           "full_method_ms"]
        assert rows[-1][0] == "ALL"


def _is_task_id(text: str) -> bool:
    try:
        TaskSpec(text, 1.0, 0)
    except ConfigError:
        return False
    return True


# The fields a report row can hold, and more. Task ids as TaskSpec accepts
# them: non-empty, no surrounding whitespace, no comma, "\r" or "\n";
# quotes, inner spaces and non-ASCII are drawn often. Other text with
# commas, quotes and "\n". Ints, floats as the reports format them (and as
# ``str`` gives them), and empty fields. A "\r" lies outside this domain:
# CPython 3.13's writer quotes it and 3.10-3.12's do not.
CSV_TASK_ID = st.one_of(st.text(min_size=1), st.text(' "aäß\t', min_size=1),
                        st.sampled_from(ODD_IDS)).filter(_is_task_id)
CSV_TEXT = st.one_of(st.text(), st.text('a ,"\n')).filter(lambda text: "\r" not in text)
CSV_FLOAT = st.floats(allow_nan=False, allow_infinity=False, width=64)
CSV_FIELD = st.one_of(CSV_TASK_ID, CSV_TEXT, st.integers(-10**20, 10**20), CSV_FLOAT,
                      CSV_FLOAT.map("{:.3f}".format), CSV_FLOAT.map("{:.6f}".format),
                      st.just(""))


class TestCsvText:
    @given(rows=st.lists(st.one_of(st.lists(CSV_FIELD, min_size=1, max_size=1),
                                   st.lists(CSV_FIELD, min_size=2, max_size=7)),
                         max_size=10))
    @example(rows=[[""], ["", ""], ['say "hi"', "Ampel-ä", "a b", 3, "1.500"], [7]])
    @settings(max_examples=300, deadline=None)
    def test_equals_csv_writer_bytes(self, rows):
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert replay._csv_text(rows).encode() == buf.getvalue().encode()

    def test_a_summary_sized_table_peaks_under_16_kib(self):
        means = ("mean_latency_ms", "median_latency_ms", "max_latency_ms",
                 "mean_gpu_resident_bytes")
        rows = [["metric", "value"], ["mode", "full_method"], ["num_switches", 1584],
                *([name, "87.984"] for name in means),
                ["total_bytes_disk_to_cpu", 10**12], ["total_bytes_cpu_to_gpu", 10**12],
                ["prestage_hit_rate", "0.680455"]]
        tracemalloc.start()
        try:
            text = replay._csv_text(rows)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text.count("\n") == len(rows)
        assert peak < 16 * 1024

"""Differential sets, switch execution across modes, cost accounting."""
from __future__ import annotations

import json
import random
from array import array
from pathlib import Path

import pytest

from switchsim import replay
from switchsim.block_store import CacheState, ModelManifest, check_device
from switchsim.errors import BudgetExceededError, ConfigError, ReplayError, SwitchSimError
from switchsim.replay import Scenario, ScenarioConfig, replay_scenario
from switchsim.sparsity import SelectionResult, TaskSpec
from switchsim.switching import (CostModel, DeployMode, SwitchReport, SwitchTable,
                                 calibrate_uniform_block_bytes, execute_switch)
from switchsim.transitions import fit_transition_model

from reference import reference_switch

MB = 1_000_000

HOST_FREE = [m for m in DeployMode if m is not DeployMode.FULL_METHOD]

COST = CostModel(disk_to_cpu_mbps=2000.0, cpu_to_gpu_mbps=8000.0,
                 per_block_fixed_ms=1.0, monolithic_init_ms=250.0)


def actives_for(actives: dict[str, set[int]]) -> dict[str, frozenset[int]]:
    return {t: frozenset(a) for t, a in actives.items()}


def state_for(gpu=(), cpu=()) -> CacheState:
    return CacheState(frozenset(gpu), tuple(cpu))


def on_target(table: SwitchTable, mode: DeployMode, task: str, cpu=()) -> CacheState:
    """The device holding ``task``'s target in ``mode``."""
    return state_for(gpu=table.target(mode, task), cpu=cpu)


def switch_report(state: CacheState, from_task: str, to_task: str, mode: DeployMode,
                  table: SwitchTable) -> SwitchReport:
    """The report of a switch from ``state``, whose device holds
    ``from_task``'s target: full_method's from ``execute_switch``, which
    credits the host, every other mode's from the table."""
    if mode is DeployMode.FULL_METHOD:
        return execute_switch(state, from_task, to_task, table)[1]
    return table.report(mode, from_task, to_task)


class TestDiffSet:
    """Split modes move exactly the differential set: the blocks the incoming
    task needs that the device does not hold."""

    def moved(self, active_from: set[int], active_to: set[int]) -> tuple[int, int]:
        manifest = ModelManifest("m", (MB,) * 8)
        actives = actives_for({"a": active_from, "b": active_to})
        report = SwitchTable(manifest, COST, actives).report(DeployMode.SPLIT_ONLY, "a", "b")
        return report.blocks_fetched, report.bytes_cpu_to_gpu

    def test_plain_difference(self):
        assert self.moved(set(range(6)), set(range(2, 8))) == (2, 2 * MB)

    def test_equal_sets_need_nothing(self):
        assert self.moved({1, 2, 3}, {1, 2, 3}) == (0, 0)

    def test_subset_switch_is_zero_fetch(self):
        # The next task only drops blocks: nothing to load.
        assert self.moved({0, 1, 2}, {1, 2}) == (0, 0)


class TestExecuteSwitch:
    def test_monolithic_reload_hits_calibration_target(self):
        block = calibrate_uniform_block_bytes(1566.5, 32, COST)
        manifest = ModelManifest("m", (block,) * 32)
        actives = actives_for({"a": set(range(16)), "b": set(range(16, 32))})
        report = SwitchTable(manifest, COST, actives).report(DeployMode.MONOLITHIC, "a", "b")
        assert report.latency_ms == pytest.approx(1566.5, abs=1e-3)
        assert report.blocks_reused == 0

    def test_sparse_no_split_reloads_whole_active_set(self):
        manifest = ModelManifest("m", (100 * MB,) * 8)
        actives = actives_for({"a": {0, 1, 2}, "b": {1, 2, 3}})
        report = SwitchTable(manifest, COST, actives).report(DeployMode.SPARSE_NO_SPLIT,
                                                             "a", "b")
        # Whole sparse checkpoint: 3 blocks over both links plus reinit.
        expected = 250.0 + 3 * (100 * MB / (2000 * 1000) + 1) \
            + 3 * (100 * MB / (8000 * 1000) + 1)
        assert report.latency_ms == pytest.approx(expected)
        assert report.blocks_reused == 0
        assert report.bytes_disk_to_cpu == 300 * MB

    def test_split_only_moves_only_missing_blocks(self):
        # split_only takes no host: block 3 pays both links, as it would
        # in full_method from an empty host.
        manifest = ModelManifest("m", (100 * MB,) * 8)
        actives = actives_for({"a": {0, 1, 2}, "b": {1, 2, 3}})
        table = SwitchTable(manifest, COST, actives)
        report = table.report(DeployMode.SPLIT_ONLY, "a", "b")
        assert report.bytes_disk_to_cpu == 100 * MB
        assert report.bytes_cpu_to_gpu == 100 * MB
        assert report.blocks_prestaged == 0
        assert report.blocks_reused == 2
        assert table.target(DeployMode.SPLIT_ONLY, "b") == {1, 2, 3}
        new_state, full = execute_switch(state_for(gpu=(0, 1, 2)), "a", "b", table)
        assert full == report._replace(mode="full_method")
        assert new_state.gpu_resident == {1, 2, 3}

    def test_full_method_prestaged_blocks_skip_the_disk_leg(self):
        # Three 100 MB differential blocks, all host-resident.
        manifest = ModelManifest("m", (100 * MB,) * 8)
        actives = actives_for({"a": {0, 1}, "b": {0, 5, 6, 7}})
        state = state_for(gpu=(0, 1), cpu=(5, 6, 7))
        _, report = execute_switch(state, "a", "b", SwitchTable(manifest, COST, actives))
        assert report.blocks_prestaged == 3
        assert report.bytes_disk_to_cpu == 0
        assert report.latency_ms == pytest.approx(3 * (12.5 + 1.0))

    def test_zero_differential_costs_nothing_in_split_modes(self):
        manifest = ModelManifest("m", (100 * MB,) * 8)
        actives = actives_for({"a": {0, 1, 2}, "b": {1, 2}})
        state = state_for(gpu=(0, 1, 2))
        table = SwitchTable(manifest, COST, actives)
        for mode in (DeployMode.SPLIT_ONLY, DeployMode.FULL_METHOD):
            report = switch_report(state, "a", "b", mode, table)
            assert report.latency_ms == 0.0
            assert report.bytes_disk_to_cpu == 0
            assert report.bytes_cpu_to_gpu == 0

    def test_active_set_beyond_budget_is_an_error(self):
        # No switch checks the device budget: in every mode the replay checks
        # the incoming target with ``check_device``. full_method's switch
        # hands back the over-budget target, and its replay refuses it at
        # the switch, position 2.
        manifest = ModelManifest("m", (100 * MB,) * 4)
        actives = actives_for({"a": {0}, "b": {0, 1, 2, 3}})
        table = SwitchTable(manifest, COST, actives)
        for mode in DeployMode:
            with pytest.raises(BudgetExceededError, match="gpu budget exceeded by 100000000"):
                check_device(manifest, table.target(mode, "b"), 300 * MB)
        after, _ = execute_switch(state_for(gpu=(0,)), "a", "b", table)
        assert after.gpu_resident == actives["b"]
        config = ScenarioConfig(
            manifest=Path("manifest.json"), tasks=Path("tasks.json"), oracle={},
            log=Path("log.txt"), trace=Path("trace.txt"), cost_model=Path("cost.json"),
            gpu_budget_bytes=300 * MB, cpu_budget_bytes=400 * MB)
        scenario = Scenario(
            config=config, manifest=manifest,
            tasks=tuple(TaskSpec(t, retention_ratio=0.9, max_remove=4) for t in actives),
            oracles={}, log=array("B", [0, 1, 0]), trace=array("B", [0, 0, 1]), cost=COST)
        selections = {t: SelectionResult(skipped=manifest.all_blocks - active,
                                         final_score=1.0, oracle_calls=1, removal_order=())
                      for t, active in actives.items()}
        with pytest.raises(ReplayError, match=r"gpu budget exceeded by 100000000 bytes "
                                              r"\(trace position 2\)"):
            replay_scenario(scenario, (DeployMode.FULL_METHOD,), selections,
                            fit_transition_model(["a", "b", "a"], k=1))

    def test_device_off_the_outgoing_target_is_refused(self):
        # A refused switch builds no leg and no report, on a fresh pair and
        # on one whose leg and reports are memoized.
        manifest = ModelManifest("m", (MB,) * 8)
        actives = actives_for({"a": {0, 1, 2}, "b": {2, 3}})
        table = SwitchTable(manifest, COST, actives)
        memos = lambda: (dict(table._legs), dict(table._full_reports), dict(table._reloads))
        for warm in (False, True):
            if warm:
                execute_switch(on_target(table, DeployMode.FULL_METHOD, "a", cpu=(3,)),
                               "a", "b", table)
            before = memos()
            for device in ({0, 1}, {0, 1, 2, 3}, set(), actives["b"], manifest.all_blocks):
                state = state_for(gpu=device, cpu=(3,))
                with pytest.raises(SwitchSimError, match="does not hold task 'a'"):
                    execute_switch(state, "a", "b", table)
            assert memos() == before
            assert len(before[0]) == len(before[1]) == warm

    def test_missing_skip_set_is_a_config_error(self):
        # Outside monolithic mode, whose target is the whole model, each
        # task needs an active set; a refused switch memoizes nothing.
        manifest = ModelManifest("m", (MB,) * 4)
        for known in ({}, {"a": frozenset({0})}, {"b": frozenset({0})}):
            table = SwitchTable(manifest, COST, known)
            with pytest.raises(ConfigError, match="no active set for task"):
                execute_switch(state_for(gpu=known.get("a", ())), "a", "b", table)
            for mode in (DeployMode.SPARSE_NO_SPLIT, DeployMode.SPLIT_ONLY):
                with pytest.raises(ConfigError, match="no active set for task"):
                    table.report(mode, "a", "b")
            assert not (table._legs or table._full_reports or table._reloads)

    def test_residency_after_switch_is_the_active_set(self):
        # full_method's switch leaves the device on the incoming active set
        # and the host as it was; a host-free replay's device holds the
        # incoming target, the whole model in monolithic mode.
        manifest = ModelManifest("m", (MB,) * 8)
        actives = actives_for({"a": {0, 1, 2}, "b": {2, 3}})
        table = SwitchTable(manifest, COST, actives)
        state = on_target(table, DeployMode.FULL_METHOD, "a", cpu=(3,))
        new_state, _ = execute_switch(state, "a", "b", table)
        assert new_state == state._replace(gpu_resident=actives["b"])
        for mode in HOST_FREE:
            active = actives["b"] if mode is not DeployMode.MONOLITHIC \
                else manifest.all_blocks
            assert table.target(mode, "b") == active


class TestTableMatchesReference:
    """The tabled switch equals the per-block reference exactly: same report
    floats, same device, same error. full_method's switch also returns the
    reference's state; a host-free switch is the table's report. Either way
    the tabled side runs the device check a replay runs on the incoming
    target."""

    def outcome(self, switch, *args):
        try:
            return switch(*args)
        except BudgetExceededError as exc:
            return exc.tier, exc.shortfall_bytes

    @staticmethod
    def tabled(state, a, b, mode, table, gpu_budget):
        if mode is DeployMode.FULL_METHOD:
            result = execute_switch(state, a, b, table)
            device = result[0].gpu_resident
        else:
            device = table.target(mode, b)
            result = device, table.report(mode, a, b)
        check_device(table.manifest, device, gpu_budget)
        return result

    @staticmethod
    def reference(state, a, b, mode, skipped, cost, manifest, gpu_budget):
        after, report = reference_switch(state, a, b, mode, skipped, cost, manifest,
                                         gpu_budget)
        if mode is DeployMode.FULL_METHOD:
            return after, report
        # Nothing stages in a host-free mode, so the reference's host is the
        # input's.
        assert after.cpu_lru == state.cpu_lru
        return after.gpu_resident, report

    def test_random_switches(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randrange(1, 40)
            sizes = tuple(rng.randrange(1, 50 * MB) for _ in range(n))
            manifest = ModelManifest("m", sizes)
            cost = CostModel(
                disk_to_cpu_mbps=rng.uniform(100, 5000),
                cpu_to_gpu_mbps=rng.uniform(1000, 20000),
                per_block_fixed_ms=rng.uniform(0, 3),
                monolithic_init_ms=rng.uniform(0, 500),
            )
            tasks = [f"t{i}" for i in range(rng.randrange(2, 5))]
            skipped = {t: frozenset(range(n)) - frozenset(
                rng.sample(range(n), rng.randrange(0, n + 1))) for t in tasks}
            active = {t: frozenset(range(n)) - s for t, s in skipped.items()}
            table = SwitchTable(manifest, cost, active)
            total = sum(manifest.block_sizes)
            gpu_budget = rng.choice([total, rng.randrange(1, total + 1)])
            cases = []
            for _step in range(4):
                a, b = rng.sample(tasks, 2)
                for mode in DeployMode:
                    # An equal, not identical, copy of the outgoing task's
                    # target.
                    device = frozenset(sorted(table.target(mode, a)))
                    cpu = tuple(rng.sample(range(n), rng.randrange(0, n + 1)))
                    cases.append((CacheState(device, cpu), a, b, mode))
            # The second pass runs every switch again on the warm table: it
            # reads the pair's leg or reload and, in full_method, the report
            # memo for its host credit.
            for _pass in range(2):
                for state, a, b, mode in cases:
                    assert self.outcome(self.tabled, state, a, b, mode, table, gpu_budget) \
                        == self.outcome(self.reference, state, a, b, mode, skipped,
                                        cost, manifest, gpu_budget)

    def test_warm_table_reports_equal_the_reference(self):
        # b and c share an active set: a report memo keyed without the
        # incoming task would hand the switch to c the report of b.
        n = 8
        manifest = ModelManifest("m", tuple((i + 1) * MB for i in range(n)))
        skipped = {"a": frozenset({0, 1}), "b": frozenset({5, 6, 7}),
                   "c": frozenset({5, 6, 7})}
        active = {t: frozenset(range(n)) - s for t, s in skipped.items()}
        table = SwitchTable(manifest, COST, active)
        rng = random.Random(5)
        total = sum(manifest.block_sizes)
        cases = []
        for _ in range(40):
            a, b = rng.sample(sorted(skipped), 2)
            cpu = tuple(rng.sample(range(n), rng.randrange(0, 4)))
            cases.append((a, b, cpu))
        first = {}
        # The second pass runs every switch again on the warm table.
        for _pass in range(2):
            for a, b, cpu in cases:
                for mode in DeployMode:
                    state = CacheState(table.target(mode, a), cpu)
                    result = self.tabled(state, a, b, mode, table, total)
                    assert result == self.reference(state, a, b, mode, skipped, COST,
                                                    manifest, total)
                    first.setdefault((state, a, b, mode), result[1])
                    if mode is DeployMode.FULL_METHOD:
                        assert result[1] is first[state, a, b, mode]
        # Reloads are kept per target: the whole model, a's active set, and
        # the one b and c share.
        assert set(table._reloads) == {manifest.all_blocks, active["a"], active["b"]}


class TestGpuUtilization:
    """Device bytes after a switch, as reported in ``gpu_resident_bytes_after``."""

    def test_empty_residency(self):
        # A task that actives every block leaves the device empty.
        manifest = ModelManifest("m", (MB,) * 4)
        actives = actives_for({"a": {0, 1}, "b": set()})
        _, report = execute_switch(state_for(gpu=(0, 1)), "a", "b",
                                   SwitchTable(manifest, COST, actives))
        assert report.gpu_resident_bytes_after == 0

    def test_full_residency_uniform_blocks(self):
        manifest = ModelManifest("m", (100 * MB,) * 32)
        actives = actives_for({"a": set(range(20)), "b": set(range(4, 24))})
        report = SwitchTable(manifest, COST, actives).report(DeployMode.MONOLITHIC, "a", "b")
        assert report.gpu_resident_bytes_after == 3200 * MB

    def test_sparse_mode_occupies_less_than_monolithic(self):
        manifest = ModelManifest("m", (100 * MB,) * 32)
        actives = actives_for({"a": set(range(20)), "b": set(range(4, 24))})
        table = SwitchTable(manifest, COST, actives)
        mono, full = (switch_report(on_target(table, mode, "a"), "a", "b", mode, table)
                      for mode in (DeployMode.MONOLITHIC, DeployMode.FULL_METHOD))
        assert full.gpu_resident_bytes_after == 2000 * MB
        assert full.gpu_resident_bytes_after < mono.gpu_resident_bytes_after


class TestAccountingIdentity:
    def _recompute(self, report, cost: CostModel) -> float:
        disk = report.bytes_disk_to_cpu / (cost.disk_to_cpu_mbps * 1000.0)
        gpu = report.bytes_cpu_to_gpu / (cost.cpu_to_gpu_mbps * 1000.0)
        if report.mode in ("monolithic", "sparse_no_split"):
            disk_blocks = gpu_blocks = report.blocks_fetched
            init = cost.monolithic_init_ms
        else:
            disk_blocks = report.blocks_fetched
            gpu_blocks = report.blocks_fetched + report.blocks_prestaged
            init = 0.0
        return (init + disk + gpu
                + (disk_blocks + gpu_blocks) * cost.per_block_fixed_ms)

    def test_latency_matches_report_counters(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randrange(2, 12)
            manifest = ModelManifest("m", (rng.randrange(1, 40) * MB,) * n)
            active_a = set(rng.sample(range(n), rng.randrange(1, n + 1)))
            active_b = set(rng.sample(range(n), rng.randrange(1, n + 1)))
            actives = actives_for({"a": active_a, "b": active_b})
            cpu = tuple(sorted(rng.sample(range(n), rng.randrange(0, n + 1))))
            table = SwitchTable(manifest, COST, actives)
            for mode in DeployMode:
                state = on_target(table, mode, "a", cpu=cpu)
                report = switch_report(state, "a", "b", mode, table)
                assert report.latency_ms == pytest.approx(
                    self._recompute(report, COST))

    def test_fetched_plus_prestaged_covers_the_missing_differential(self):
        rng = random.Random(9)
        for _ in range(60):
            n = rng.randrange(2, 12)
            manifest = ModelManifest("m", (5 * MB,) * n)
            active_a = set(rng.sample(range(n), rng.randrange(1, n + 1)))
            active_b = set(rng.sample(range(n), rng.randrange(1, n + 1)))
            actives = actives_for({"a": active_a, "b": active_b})
            cpu = tuple(sorted(rng.sample(range(n), rng.randrange(0, n + 1))))
            state = state_for(gpu=tuple(sorted(active_a)), cpu=cpu)
            delta = frozenset(active_b) - frozenset(active_a)
            table = SwitchTable(manifest, COST, actives)
            for mode in (DeployMode.SPLIT_ONLY, DeployMode.FULL_METHOD):
                report = switch_report(state, "a", "b", mode, table)
                missing = delta - state.gpu_resident
                assert report.blocks_fetched + report.blocks_prestaged \
                    == len(missing)


class TestModeOrdering:
    def test_ordering_on_random_scenarios(self):
        rng = random.Random(123)
        for _ in range(40):
            n = rng.randrange(2, 16)
            manifest = ModelManifest("m", (rng.randrange(1, 30) * MB,) * n)
            cost = CostModel(
                disk_to_cpu_mbps=rng.uniform(100, 5000),
                cpu_to_gpu_mbps=rng.uniform(1000, 20000),
                per_block_fixed_ms=rng.uniform(0, 3),
                monolithic_init_ms=rng.uniform(0, 500),
            )
            tasks = [f"t{i}" for i in range(rng.randrange(2, 5))]
            actives = actives_for({
                t: set(rng.sample(range(n), rng.randrange(1, n + 1)))
                for t in tasks
            })
            table = SwitchTable(manifest, cost, actives)
            # full_method's device, which each switch carries to the next.
            device = actives[tasks[0]]
            current = tasks[0]
            for _step in range(12):
                nxt = rng.choice([t for t in tasks if t != current])
                prestage = tuple(sorted(rng.sample(range(n),
                                                   rng.randrange(0, n + 1))))
                latencies = {}
                for mode in DeployMode:
                    if mode is DeployMode.FULL_METHOD:
                        after, report = execute_switch(
                            state_for(gpu=device, cpu=prestage), current, nxt,
                            table)
                        device = after.gpu_resident
                    else:
                        report = table.report(mode, current, nxt)
                    latencies[mode] = report.latency_ms
                assert latencies[DeployMode.MONOLITHIC] \
                    >= latencies[DeployMode.SPARSE_NO_SPLIT] \
                    >= latencies[DeployMode.SPLIT_ONLY] \
                    >= latencies[DeployMode.FULL_METHOD]
                current = nxt


class TestSummationOrder:
    # A block of s bytes takes s ms on each link.
    COST = CostModel(disk_to_cpu_mbps=0.001, cpu_to_gpu_mbps=0.001)

    def test_link_milliseconds_are_correctly_rounded_sums(self):
        # Per-block costs of 1e16, 1 and 1 ms on each link: each leg is
        # exactly 1e16 + 2, and the two legs 2e16 + 4, which a left-to-right
        # sum would round down to 1e16 and 2e16.
        manifest = ModelManifest("m", (10 ** 16, 1, 1))
        state = CacheState(manifest.all_blocks)
        report = SwitchTable(manifest, self.COST, {}).report(DeployMode.MONOLITHIC, "a", "b")
        assert report.latency_ms == 2.0000000000000004e16
        _, ref = reference_switch(state, "a", "b", DeployMode.MONOLITHIC, {}, self.COST,
                                  manifest, 10 ** 17)
        assert ref.latency_ms == 2.0000000000000004e16

    def test_equal_active_sets_give_equal_reports_in_any_iteration_order(self):
        # Block 0 costs 1e16 ms per link and blocks 8 and 16 cost 1 ms: left
        # to right, 0, 8, 16 drops both 1s, and 16, 8, 0 keeps them.
        manifest = ModelManifest("m", (10 ** 16,) + (1,) * 16)
        forward, backward = frozenset([0, 8, 16]), frozenset([16, 8, 0])
        assert forward == backward and list(forward) != list(backward)
        reports = []
        for b_active in (forward, backward):
            table = SwitchTable(manifest, self.COST, {"a": frozenset({1}), "b": b_active})
            reports.append(table.report(DeployMode.SPARSE_NO_SPLIT, "a", "b"))
        assert reports[0] == reports[1]
        assert reports[0].latency_ms.hex() == reports[1].latency_ms.hex()
        assert reports[0].latency_ms == 2.0000000000000004e16


class TestDocuments:
    @pytest.mark.parametrize("cost", [COST, CostModel(disk_to_cpu_mbps=0.5,
                                                      cpu_to_gpu_mbps=1e9)],
                             ids=["every-field", "defaults"])
    def test_cost_model_round_trips(self, cost):
        assert list(cost.to_json()) == ["disk_to_cpu_mbps", "cpu_to_gpu_mbps",
                                        "per_block_fixed_ms", "monolithic_init_ms"]
        assert CostModel.from_json(cost.to_json()) == cost

    def test_cost_model_without_a_bandwidth_is_a_config_error(self):
        with pytest.raises(ConfigError, match="bad cost model document.*cpu_to_gpu_mbps"):
            CostModel.from_json({"disk_to_cpu_mbps": 1.0})

    @pytest.mark.parametrize("key, value", [
        ("disk_to_cpu_mbps", True), ("disk_to_cpu_mbps", "1"), ("cpu_to_gpu_mbps", None),
        ("per_block_fixed_ms", False), ("monolithic_init_ms", "0"),
    ], ids=repr)
    def test_directly_built_cost_model_checks_its_numbers(self, key, value):
        # Unchecked, True runs at 1 MB/s and a string fails with a bare
        # TypeError.
        fields = {"disk_to_cpu_mbps": 1, "cpu_to_gpu_mbps": 2.0, key: value}
        with pytest.raises(ConfigError, match=key):
            CostModel(**fields)

    def test_switch_report_lists_its_fields_with_the_latency_rounded(self):
        # The report's switches.jsonl line.
        report = SwitchReport("a", "b", "split_only", 1.23456, 1, 2, 3, 4, 5, 6)
        line = replay._switch_line(report)
        assert line.endswith(b"}\n") and line.count(b"\n") == 1
        assert json.loads(line, object_pairs_hook=list) == [
            ("from_task", "a"), ("to_task", "b"), ("mode", "split_only"),
            ("latency_ms", 1.235), ("bytes_disk_to_cpu", 1), ("bytes_cpu_to_gpu", 2),
            ("blocks_reused", 3), ("blocks_fetched", 4), ("blocks_prestaged", 5),
            ("gpu_resident_bytes_after", 6)]


class TestCalibration:
    def test_closed_form_solves_the_target(self):
        block = calibrate_uniform_block_bytes(1566.5, 32, COST)
        assert block == 62_625_000

    def test_unreachable_target_is_rejected(self):
        with pytest.raises(ConfigError):
            calibrate_uniform_block_bytes(100.0, 32, COST)  # below fixed costs

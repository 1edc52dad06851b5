"""Golden digests of ``compare`` and ``select`` output: refactors must keep
every byte.

Each case writes a driving scenario, runs ``switchsim compare`` on it and
hashes every report except ``config.echo.json`` (it holds absolute
paths). The digests were recorded from the simulator before its block
store was reduced to one residency model, the varied-size one before
switch costs were tabled per replay; a change that moves any simulated
number, report format or tie-break fails here. Reports round latencies,
so a change in float summation order can pass the digests; the
replay-versus-reference test below compares every switch unrounded.
The compare reports hold no selection score; ``select`` prints each
task's ``final_score`` at full float precision, so its digests pin that.
"""
from __future__ import annotations

import hashlib
import json
import random

import pytest

from switchsim import replay
from switchsim.block_store import CacheState, ModelManifest
from switchsim.cli import main
from switchsim.switching import CostModel, DeployMode, SwitchTable
from switchsim.workloads import DRIVING_TASKS, write_driving_scenario

from reference import reference_switch
from reference_replay import reference_replay

# Seeded scenarios that differ in block count, k, prefetch window and host
# budget. Each one stages and evicts host-cache blocks in full_method. A
# ``size_seed`` redraws the block sizes after the scenario is written (see
# ``vary_block_sizes``).
CASES = {
    "driving-default": ({},
        "7ea5d2e7f06c6ba42d68839d9e131d4b55bd6a3ece35ea2321b041e72580464c"),
    "16-blocks-k1": (dict(
        num_blocks=16, target_monolithic_ms=400.0, max_remove=8, oracle_seed=3,
        correlation=0.3, log_seed=5, trace_seed=17, trace_length=300, k=1,
        compute_window_ms=25.0, cpu_budget_blocks=3),
        "0375e92c2aed82ef880f7ab07f9e1881bf3f18c0a14750d6d0106b9d9b7b6bc9"),
    "24-blocks-k3": (dict(
        num_blocks=24, target_monolithic_ms=1000.0, max_remove=10, oracle_seed=29,
        correlation=0.5, log_seed=31, trace_seed=37, trace_length=240, k=3,
        compute_window_ms=120.0, cpu_budget_blocks=6),
        "cb48ea0890b973b1ac21c39176c1211c1f19f4cda7013dad4d72f0f3aa1b56b5"),
    "48-blocks-k2": (dict(
        num_blocks=48, target_monolithic_ms=3000.0, max_remove=20, oracle_seed=41,
        correlation=0.4, log_seed=43, trace_seed=47, trace_length=200, k=2,
        compute_window_ms=1000.0, cpu_budget_blocks=10),
        "117020b5e2c6926edfb7a991449c8e22040f5d2bf9e49a014cca27b574a36dba"),
    "32-blocks-varied-sizes": (dict(
        num_blocks=32, oracle_seed=61, correlation=0.4, trace_seed=53,
        trace_length=300, k=2, compute_window_ms=300.0, cpu_budget_blocks=3,
        size_seed=59),
        "8483e4c5efc8e12ea85f76f0c9cd8f4d63234d36b2429dca4c00db84a253c670"),
}


def vary_block_sizes(scenario_dir, seed: int) -> None:
    """Redraw each block size in [1/4, 1] of the calibrated size.

    With equal sizes every summation order gives the same float; unequal
    ones make a latency or byte sum depend on the order it walks blocks.
    No size grows, so the scenario's budgets still admit every block.
    """
    path = scenario_dir / "manifest.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    rng = random.Random(seed)
    doc["block_sizes_bytes"] = [rng.randint(s // 4, s) for s in doc["block_sizes_bytes"]]
    path.write_text(json.dumps(doc), encoding="utf-8")


def compare_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name != "config.echo.json":
            digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def write_case(name: str, scenario_dir):
    """Write the scenario of case ``name``; return its config."""
    params = dict(CASES[name][0])
    size_seed = params.pop("size_seed", None)
    config = write_driving_scenario(scenario_dir, **params)
    if size_seed is not None:
        vary_block_sizes(scenario_dir, size_seed)
    return config


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_reports_match_golden_digest(name, tmp_path):
    write_case(name, tmp_path / "scenario")
    expected = CASES[name][1]
    out = tmp_path / "reports"
    assert main(["compare", "--config", str(tmp_path / "scenario" / "config.json"),
                 "--out-dir", str(out)]) == 0
    assert compare_digest(out) == expected


# ``select`` at 128 blocks, five tasks, up to 32 removals each: aligned the
# constraint binds for some tasks, independent the removal cap does.
SELECT_CASES = {
    "aligned": ([],
        "d4dddc44591e98f6faa5d513e49bd511c67fcb903bb2ee0f48cbfb9cde21e684"),
    "independent": (["--independent"],
        "48ee8f29256bd89bd9da3637cfd338e8bbe76a6ddd45c295dd337dc49af10e8e"),
}


@pytest.mark.parametrize("name", sorted(SELECT_CASES))
def test_select_output_matches_golden_digest(name, tmp_path):
    flags, expected = SELECT_CASES[name]
    tasks = tmp_path / "tasks.json"
    tasks.write_text(json.dumps([
        {"task_id": t, "retention_ratio": 0.9, "max_remove": 32,
         "priority_weight": 5.0 - i} for i, t in enumerate(DRIVING_TASKS)]))
    out = tmp_path / "skips.json"
    assert main(["select", "--tasks", str(tasks), "--num-blocks", "128",
                 "--seed", "7", "--correlation", "0.5", "--out", str(out),
                 *flags]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == expected


def test_every_compare_switch_matches_reference(tmp_path, monkeypatch):
    """Each switch a replay computes equals the per-block reference on the
    same input state, floats unrounded, in all four modes: full_method's
    ``execute_switch`` the reference's state and report, and a host-free
    mode's ``SwitchTable.report`` the reference's report from the state the
    pair fixes (the device on the outgoing target, an empty host), under
    the config's device budget. Every reported switch is one of those checked
    results, and the replay computes one switch per distinct step key that
    switches."""
    config = write_case("32-blocks-varied-sizes", tmp_path)
    manifest = ModelManifest.load(config.manifest)
    cost = CostModel.load(config.cost_model)
    selections_by_align = {}
    checked = {mode: [] for mode in DeployMode}

    def recording_select(tasks, oracles, align):
        selections_by_align[align] = select(tasks, oracles, align=align)
        return selections_by_align[align]

    def reference(state, from_task, to_task, mode):
        skipped = {tid: r.skipped for tid, r in
                   selections_by_align[mode is DeployMode.FULL_METHOD].items()}
        return reference_switch(state, from_task, to_task, mode, skipped, cost, manifest,
                                config.gpu_budget_bytes)

    def checked_switch(state, from_task, to_task, table):
        result = switch(state, from_task, to_task, table)
        assert result == reference(state, from_task, to_task, DeployMode.FULL_METHOD)
        checked[DeployMode.FULL_METHOD].append(result[1])
        return result

    def checked_report(table, mode, from_task, to_task):
        result = report(table, mode, from_task, to_task)
        state = CacheState(table.target(mode, from_task))
        after, expected = reference(state, from_task, to_task, mode)
        assert result == expected
        assert after == state._replace(gpu_resident=table.target(mode, to_task))
        checked[mode].append(result)
        return result

    select, switch, report = replay.build_all_tasks, replay.execute_switch, SwitchTable.report
    monkeypatch.setattr(replay, "build_all_tasks", recording_select)
    monkeypatch.setattr(replay, "execute_switch", checked_switch)
    monkeypatch.setattr(SwitchTable, "report", checked_report)
    reports = replay.compare_modes(config)
    scenario = replay.load_scenario(config)
    model = replay.fit_transition_model([scenario.task_ids[i] for i in scenario.log],
                                        k=config.k)
    for mode in DeployMode:
        steps = []
        reference_replay(scenario, mode,
                         selections_by_align[mode is DeployMode.FULL_METHOD],
                         model, steps)
        switching_keys = {key for key in steps if key[0] != key[1]}
        checked_ids = {id(r) for r in checked[mode]}
        assert reports[mode].switches
        assert all(id(r) in checked_ids for r in reports[mode].switches)
        assert len(checked[mode]) == len(switching_keys)

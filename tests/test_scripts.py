"""The experiment scripts under ``scripts/``, and the names the benchmark's
tracer in ``perfbench/`` patches and the layer calls it counts."""
from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import sys
import tempfile
from pathlib import Path

import pytest

from switchsim import cli
from switchsim.sparsity import AdditiveOracle
from switchsim.workloads import write_driving_scenario

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def load_script(name: str, directory: Path = SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, directory / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_speedup_experiment_removes_its_temp_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    monkeypatch.setattr(sys, "argv", ["run_speedup_experiment.py"])
    load_script("run_speedup_experiment").main()
    lines = capsys.readouterr().out.splitlines()
    # The default scenario's four mode rows and mean speedup, pinned so
    # that a change to its trace, model or cost fails here.
    assert lines[1:7] == [
        "mode             switches    mean ms     max ms hit rate",
        "monolithic             79   1566.500   1566.500    0.000",
        "sparse_no_split        79    908.250    908.250    0.000",
        "split_only             79    172.374    205.703    0.000",
        "full_method            79      8.158      8.828    1.000",
        "",
    ]
    assert lines[7] == "mean speedup (sparse_no_split / full_method): 111.34x"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flags, pinned", [
    (["--instances", "2"], []),
    # The default run's headline lines, which CI also greps for.
    ([], ["aligned mean pairwise Jaccard:     0.830",
          "independent mean pairwise Jaccard: 0.277"]),
], ids=["two-instances", "default"])
def test_overlap_experiment_runs(monkeypatch, capsys, flags, pinned):
    monkeypatch.setattr(sys, "argv", ["run_overlap_experiment.py", *flags])
    load_script("run_overlap_experiment").main()
    out = capsys.readouterr().out
    assert "aligned mean pairwise Jaccard" in out
    lines = out.splitlines()
    assert [line for line in pinned if line not in lines] == []


def test_demo_scenario_is_written(tmp_path, monkeypatch, capsys):
    out = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", ["build_demo_scenario.py", str(out)])
    load_script("build_demo_scenario").main()
    assert f"scenario written under {out}" in capsys.readouterr().out
    assert sorted(p.name for p in out.iterdir()) == [
        "config.json", "cost_model.json", "log.txt", "manifest.json", "tasks.json",
        "trace.txt"]


def test_time_selection_prints_pinned_counts_and_digest(monkeypatch, capsys):
    # CI pins the same figures up to 2,048 blocks; these are for 128.
    monkeypatch.setattr(sys, "argv", ["time_selection.py", "--max-blocks", "128",
                                      "--repeats", "1"])
    load_script("time_selection").main()
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert lines[1].split()[::2] == ["128", "18005"]
    assert lines[2] == ("removal orders sha256="
                        "e6342cc0b9f40054258e367fbc2dba3ce12411cd412ee7481f943fbfadf51e32")
    assert lines[3] == ("final scores sha256="
                        "214e42e2dee7fc9412fdb7d725b13247cf89738e8f485878df773e7a2ccd509a")


def test_every_name_the_tracer_patches_exists():
    # The tracer swaps each attribute in its owner's __dict__; a refactor
    # that moves or renames one breaks the benchmark's traced runs.
    targets = load_script("tracer", ROOT / "perfbench").TARGETS
    missing = [(module, attr) for module, attr, *_ in targets
               if attr not in vars(importlib.import_module(module))]
    assert missing == []
    assert "score" in vars(AdditiveOracle)


def test_the_tracer_sees_every_layer_of_a_churning_compare(tmp_path):
    # A small host-churn-shaped scenario: 64 blocks, a 12-block host, k=1
    # and a 1000 ms window, so full_method plans, stages, evicts and
    # switches on most steps. The counts were recorded before the hot path
    # was made cheaper; a layer that is bypassed, fused or called from a
    # name the tracer does not patch changes them. Only full_method calls
    # execute_switch: the host-free modes take their 20 distinct pairs'
    # reports from the switch table.
    write_driving_scenario(tmp_path / "scenario", num_blocks=64, target_monolithic_ms=3000.0,
                           max_remove=24, correlation=0.3, k=1, compute_window_ms=1000.0,
                           cpu_budget_blocks=12, trace_seed=1, trace_length=300)
    tracer = load_script("tracer", ROOT / "perfbench").Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["compare", "--config", str(tmp_path / "scenario" / "config.json"),
                         "--out-dir", str(tmp_path / "out")])
    assert code == 0
    assert tracer.restored()
    layers = tracer.layer_metrics()
    assert {name: layers[name] for name in (
        "block_store.stage_calls", "block_store.evict_calls", "block_store.evicted_blocks",
        "prefetch.planned_blocks", "prefetch.staged_blocks", "switching.switch_calls")} == {
        "block_store.stage_calls": 140, "block_store.evict_calls": 137,
        "block_store.evicted_blocks": 245, "prefetch.planned_blocks": 257,
        "prefetch.staged_blocks": 257, "switching.switch_calls": 239}

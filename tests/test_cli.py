"""CLI subcommands, flag overrides, and exit codes."""
from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import switchsim
from switchsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_REPLAY, main

# A child interpreter imports the same switchsim as the tests, installed or not.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(switchsim.__file__).parents[1]),
                  os.environ.get("PYTHONPATH")]))}


def write_tasks(path, ids=("a", "b")):
    path.write_text(json.dumps([
        {"task_id": t, "retention_ratio": 0.9, "max_remove": 3,
         "priority_weight": 1.0} for t in ids
    ]))
    return path


class TestSelect:
    def test_synthetic_selection_writes_report(self, tmp_path):
        tasks = write_tasks(tmp_path / "tasks.json")
        out = tmp_path / "skips.json"
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "12",
                     "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert set(doc) == {"a", "b"}
        for entry in doc.values():
            assert set(entry) == {"skipped", "final_score", "oracle_calls"}
            assert entry["skipped"] == sorted(entry["skipped"])

    def test_seed_is_mandatory_for_synthetic(self, tmp_path):
        tasks = write_tasks(tmp_path / "tasks.json")
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "8"])
        assert code == EXIT_CONFIG

    def test_independent_flag_changes_selection(self, tmp_path):
        tasks = write_tasks(tmp_path / "tasks.json", ids=("a", "b", "c"))
        outs = []
        for flag in ([], ["--independent"]):
            out = tmp_path / f"out{len(flag)}.json"
            code = main(["select", "--tasks", str(tasks), "--num-blocks", "32",
                         "--seed", "3", "--correlation", "0.6",
                         "--out", str(out), *flag])
            assert code == EXIT_OK
            outs.append(json.loads(out.read_text()))
        assert outs[0] != outs[1]

    def test_table_oracle_selection(self, tmp_path):
        tasks = write_tasks(tmp_path / "tasks.json", ids=("a",))
        table = {"a": [
            {"active_blocks": [0, 1], "score": 1.0},
            {"active_blocks": [0], "score": 0.95},
            {"active_blocks": [1], "score": 0.5},
            {"active_blocks": [], "score": 0.0},
        ]}
        table_path = tmp_path / "table.json"
        table_path.write_text(json.dumps(table))
        out = tmp_path / "out.json"
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "2",
                     "--oracle-table", str(table_path), "--out", str(out)])
        assert code == EXIT_OK
        assert json.loads(out.read_text())["a"]["skipped"] == [1]


class TestEstimate:
    def test_model_dump(self, tmp_path):
        log = tmp_path / "log.txt"
        log.write_text("Car\nTrafficLight\nCar\nObstacle\nPerson\n")
        out = tmp_path / "model.json"
        code = main(["estimate", "--log", str(log), "--k", "2",
                     "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["k"] == 2
        assert doc["counts"]["Car"] == {"TrafficLight": 1, "Obstacle": 1}
        assert doc["successors"]["Car"] == ["Obstacle", "TrafficLight"]

    def test_out_file_equals_stdout(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        log.write_text("Car\nTrafficLight\nCar\nObstacle\nPerson\n")
        assert main(["estimate", "--log", str(log)]) == EXIT_OK
        stdout = capsys.readouterr().out
        out = tmp_path / "model.json"
        assert main(["estimate", "--log", str(log), "--out", str(out)]) == EXIT_OK
        assert out.read_bytes() == stdout.encode("utf-8")


class TestReplayCommand:
    def test_replay_writes_reports(self, driving_dir, tmp_path):
        out = tmp_path / "reports"
        code = main(["replay", "--config", str(driving_dir / "config.json"),
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config.echo.json", "jaccard.csv", "summary.csv",
                         "switches.jsonl"]

    def test_mode_override_flag(self, driving_dir, tmp_path):
        out = tmp_path / "mono"
        code = main(["replay", "--config", str(driving_dir / "config.json"),
                     "--mode", "monolithic", "--out-dir", str(out)])
        assert code == EXIT_OK
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo["mode"] == "monolithic"

    def test_unknown_trace_task_is_a_replay_error(self, driving_dir, tmp_path, capsys):
        # Monolithic mode loads the whole model and never looks a task up,
        # so only the trace check can catch the unknown id.
        trace = tmp_path / "trace.txt"
        trace.write_text("Car\nGhost\nCar\n")
        code = main(["replay", "--config", str(driving_dir / "config.json"),
                     "--mode", "monolithic", "--trace", str(trace),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_REPLAY
        assert "trace position 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_a_config_error(self, tmp_path):
        code = main(["replay", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_bad_mode_in_config(self, driving_dir, tmp_path):
        doc = json.loads((driving_dir / "config.json").read_text())
        doc["mode"] = "warp_drive"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["replay", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG


class TestCompareCommand:
    def test_compare_writes_all_modes(self, driving_dir, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--config", str(driving_dir / "config.json"),
                     "--out-dir", str(out)])
        assert code == EXIT_OK
        subdirs = sorted(p.name for p in out.iterdir() if p.is_dir())
        assert subdirs == ["full_method", "monolithic", "sparse_no_split",
                           "split_only"]
        assert (out / "compare.csv").is_file()


def compare_edited(driving_dir, tmp_path, name, path, value, *flags) -> int:
    """Run compare on a copy of the driving scenario whose ``name`` file has
    ``value`` at the key path ``path``."""
    root = tmp_path / "scenario"
    shutil.copytree(driving_dir, root)
    doc = json.loads((root / name).read_text())
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    node[last] = value
    (root / name).write_text(json.dumps(doc))
    return main(["compare", "--config", str(root / "config.json"),
                 "--out-dir", str(tmp_path / "out"), *flags])


def key_path_id(value):
    return ".".join(map(str, value)) if isinstance(value, tuple) else None


class TestBadNumbers:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -5.0])
    @pytest.mark.parametrize("name, path", [
        ("cost_model.json", ("disk_to_cpu_mbps",)),
        ("cost_model.json", ("cpu_to_gpu_mbps",)),
        ("cost_model.json", ("per_block_fixed_ms",)),
        ("cost_model.json", ("monolithic_init_ms",)),
        ("config.json", ("compute_window_ms",)),
        ("tasks.json", (0, "priority_weight")),
    ], ids=key_path_id)
    def test_non_finite_or_negative_is_a_config_error(self, driving_dir, tmp_path,
                                                      name, path, value):
        assert compare_edited(driving_dir, tmp_path, name, path, value) == EXIT_CONFIG

    @pytest.mark.parametrize("value", ["nan", "inf", "-5"])
    def test_bad_compute_window_flag_is_a_config_error(self, driving_dir, tmp_path,
                                                       value):
        code = main(["compare", "--config", str(driving_dir / "config.json"),
                     "--compute-window-ms", value, "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("name, path, value", [
        ("config.json", ("gpu_budget_bytes",), math.inf),
        ("config.json", ("cpu_budget_bytes",), 1e9 + 0.5),
        ("config.json", ("k",), 2.7),
        ("config.json", ("oracle", "seed"), math.inf),
        ("manifest.json", ("block_sizes_bytes", 0), math.inf),
        ("manifest.json", ("block_sizes_bytes", 0), 62_625_000.5),
        ("tasks.json", (0, "max_remove"), 2.7),
        ("tasks.json", (0, "max_remove"), math.inf),
    ], ids=key_path_id)
    def test_non_integral_count_is_a_config_error(self, driving_dir, tmp_path,
                                                  name, path, value):
        assert compare_edited(driving_dir, tmp_path, name, path, value) == EXIT_CONFIG

    @pytest.mark.parametrize("row", [
        {"active_blocks": [math.inf], "score": 0.5},
        {"active_blocks": [0.5], "score": 0.5},
        {"active_blocks": [-1], "score": 0.5},
        {"active_blocks": [2], "score": 0.5},
        {"active_blocks": [0], "score": math.nan},
        {"active_blocks": [0], "score": math.inf},
        {"active_blocks": [0], "score": 1.5},
        {"active_blocks": [0], "score": -0.1},
        {"score": 0.5},
    ], ids=lambda row: json.dumps(row))
    def test_bad_table_oracle_row_is_a_config_error(self, tmp_path, row):
        tasks = write_tasks(tmp_path / "tasks.json", ids=("a",))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"a": [{"active_blocks": [0, 1], "score": 1.0},
                                           row]}))
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "2",
                     "--oracle-table", str(table)])
        assert code == EXIT_CONFIG

    def test_out_of_range_correlation_is_a_config_error(self, driving_dir, tmp_path):
        code = compare_edited(driving_dir, tmp_path, "config.json",
                              ("oracle", "correlation"), 1.5)
        assert code == EXIT_CONFIG


def run_select(tmp_path, *flags) -> int:
    tasks = write_tasks(tmp_path / "tasks.json")
    return main(["select", "--tasks", str(tasks), *flags])


class TestMalformedInput:
    @pytest.mark.parametrize("name, content", [
        ("tasks.json", b'[{"task_id": "Car"'),
        ("tasks.json", b"\xff\xfe[]"),
        ("manifest.json", b"{"),
        ("cost_model.json", b"disk_to_cpu_mbps = 1"),
        ("log.txt", b"Car\n\xff\xfe\n"),
        ("trace.txt", b"\xffCar\n"),
    ])
    def test_unreadable_scenario_file_is_a_config_error(self, driving_dir, tmp_path,
                                                        name, content):
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)
        (root / name).write_bytes(content)
        code = main(["compare", "--config", str(root / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("content", [
        None, b'{"Car": [', b"\xff",
        # A list naming every task passes a membership test.
        b'["Car", "TrafficLight", "Obstacle", "Person", "Bicycle"]',
    ], ids=["missing", "not-json", "not-utf8", "not-an-object"])
    def test_unreadable_table_oracle_is_a_config_error(self, driving_dir, tmp_path,
                                                       content):
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)
        doc = json.loads((root / "config.json").read_text())
        doc["oracle"] = {"kind": "table", "path": "table.json"}
        (root / "config.json").write_text(json.dumps(doc))
        if content is not None:
            (root / "table.json").write_bytes(content)
        code = main(["compare", "--config", str(root / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_table_oracle_not_an_object_is_a_config_error(self, tmp_path, capsys):
        # "a" in "abc" holds, so only the type check stops the lookup.
        tasks = write_tasks(tmp_path / "tasks.json", ids=("a",))
        table = tmp_path / "table.json"
        table.write_text(json.dumps("abc"))
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "2",
                     "--oracle-table", str(table)])
        assert code == EXIT_CONFIG
        assert "must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("task_id", [["a"], 7], ids=["list", "int"])
    def test_non_string_task_id_is_a_config_error(self, tmp_path, capsys, task_id):
        tasks = tmp_path / "tasks.json"
        tasks.write_text(json.dumps([{"task_id": task_id, "retention_ratio": 0.9,
                                      "max_remove": 3}]))
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "8",
                     "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "task_id must be a string" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["select", "--tasks", "{missing}", "--num-blocks", "8", "--seed", "1"],
        ["select", "--tasks", "{tasks}", "--manifest", "{missing}", "--seed", "1"],
        ["select", "--tasks", "{tasks}", "--num-blocks", "2",
         "--oracle-table", "{missing}"],
        ["estimate", "--log", "{missing}"],
    ], ids=["tasks", "manifest", "oracle-table", "log"])
    def test_missing_input_file_is_a_config_error(self, tmp_path, capsys, argv):
        tasks = write_tasks(tmp_path / "tasks.json")
        missing = tmp_path / "nope.json"
        code = main([a.format(tasks=tasks, missing=missing) for a in argv])
        assert code == EXIT_CONFIG
        assert str(missing) in capsys.readouterr().err

    def test_non_utf8_log_is_a_config_error(self, tmp_path):
        log = tmp_path / "log.txt"
        log.write_bytes(b"Car\n\xffTrafficLight\n")
        assert main(["estimate", "--log", str(log)]) == EXIT_CONFIG

    @pytest.mark.parametrize("flags, message", [
        (["--num-blocks", "-3", "--seed", "1"], "--num-blocks must be >= 1, got -3"),
        (["--num-blocks", "0", "--seed", "1"], "--num-blocks must be >= 1, got 0"),
        (["--num-blocks", "8", "--seed", "1", "--correlation", "nan"],
         "correlation must lie in [0, 1]"),
    ], ids=["negative-blocks", "zero-blocks", "nan-correlation"])
    def test_bad_select_flag_is_a_config_error(self, tmp_path, capsys, flags, message):
        assert run_select(tmp_path, *flags) == EXIT_CONFIG
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["compare", "estimate"])
    def test_k_below_one_is_a_config_error_without_transitions(self, driving_dir,
                                                              tmp_path, capsys,
                                                              command):
        # A log that never switches fits no successor list, so only the
        # up-front check can see k.
        log = tmp_path / "log.txt"
        log.write_text("Car\nCar\n")
        argv = ["estimate", "--log", str(log), "--k", "0"] if command == "estimate" \
            else ["compare", "--config", str(driving_dir / "config.json"),
                  "--log", str(log), "--k", "0", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == EXIT_CONFIG
        assert "k must be >= 1, got 0" in capsys.readouterr().err


class TestConsoleEntry:
    def test_module_invocation(self, driving_dir, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "switchsim.cli", "replay",
             "--config", str(driving_dir / "config.json"),
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=CHILD_ENV,
        )
        assert result.returncode == 0
        assert "switches" in result.stdout

    def test_byte_identical_across_processes_and_hash_seeds(self, driving_dir,
                                                            tmp_path):
        for i, hashseed in enumerate(("1", "12345")):
            env = {**CHILD_ENV, "PYTHONHASHSEED": hashseed}
            result = subprocess.run(
                [sys.executable, "-m", "switchsim.cli", "replay",
                 "--config", str(driving_dir / "config.json"),
                 "--out-dir", str(tmp_path / f"run{i}")],
                capture_output=True, text=True, env=env,
            )
            assert result.returncode == 0
        for name in ("switches.jsonl", "summary.csv", "jaccard.csv",
                     "config.echo.json"):
            assert (tmp_path / "run0" / name).read_bytes() \
                == (tmp_path / "run1" / name).read_bytes()

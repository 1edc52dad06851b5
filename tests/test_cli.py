"""CLI subcommands, flag overrides, and exit codes."""
from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import switchsim
from switchsim import cli
from switchsim.cli import EXIT_CONFIG, EXIT_OK, EXIT_REPLAY, EXIT_SELECTION, main
from switchsim.errors import ConfigError, read_json
from switchsim.scenario import ScenarioConfig
from switchsim.switching import DeployMode
from switchsim.synthetic import gen_markov_log
from switchsim.workloads import DRIVING_PAIR_BIAS, DRIVING_TASKS

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

    def test_manifest_gives_the_block_count(self, tmp_path):
        tasks = write_tasks(tmp_path / "tasks.json")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"model_name": "m", "block_sizes_bytes": [1] * 8}))
        outs = []
        for flags in (["--manifest", str(manifest)], ["--num-blocks", "8"]):
            out = tmp_path / f"out{len(outs)}.json"
            code = main(["select", "--tasks", str(tasks), *flags, "--seed", "7",
                         "--out", str(out)])
            assert code == EXIT_OK
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("num_blocks", ["0", "8"])
    def test_num_blocks_with_a_manifest_is_refused(self, tmp_path, capsys, num_blocks):
        # The flags are alternatives: given both, the manifest's count
        # would win and --num-blocks, even an invalid one, go unread.
        tasks = write_tasks(tmp_path / "tasks.json")
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"model_name": "m", "block_sizes_bytes": [1] * 8}))
        out = tmp_path / "skips.json"
        code = main(["select", "--tasks", str(tasks), "--manifest", str(manifest),
                     "--num-blocks", num_blocks, "--seed", "7", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err \
            == "config error: select takes --num-blocks or --manifest, not both\n"
        assert not out.exists()

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

    @pytest.mark.parametrize("unknown_at", [(2000,), (2000, 2300)], ids=["one", "two"])
    @pytest.mark.parametrize("command", [("replay", "--mode", m.value) for m in DeployMode]
                             + [("compare",)], ids=lambda c: c[-1])
    def test_unknown_task_on_a_long_trace_fails_at_its_position(
            self, driving_dir, tmp_path, capsys, command, unknown_at):
        # With two unknown ids, the earlier one is reported.
        steps = gen_markov_log(5, 2500, DRIVING_TASKS, pair_bias=DRIVING_PAIR_BIAS)
        for pos in unknown_at:
            steps[pos] = f"Ghost{pos}"
        trace = tmp_path / "trace.txt"
        trace.write_text("\n".join(steps) + "\n")
        code = main([*command, "--config", str(driving_dir / "config.json"),
                     "--trace", str(trace), "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_REPLAY
        assert ("trace task 'Ghost2000' is not a scenario task (trace position 2000)"
                in capsys.readouterr().err)
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_a_config_error(self, tmp_path):
        code = main(["replay", "--config", str(tmp_path / "nope.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    def test_mode_is_required(self, driving_dir, tmp_path, capsys):
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)
        doc = json.loads((root / "config.json").read_text())
        doc["mode"] = None
        (root / "config.json").write_text(json.dumps(doc))
        code = main(["replay", "--config", str(root / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert "config error: replay needs a mode" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_bad_mode_in_config(self, driving_dir, tmp_path):
        doc = json.loads((driving_dir / "config.json").read_text())
        doc["mode"] = "warp_drive"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["replay", "--config", str(bad),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG


def override_flags(command: str) -> dict[str, str]:
    """Each option string of ``command`` but ``--help``, mapped to its dest."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction)).choices[command]
    return {flag: a.dest for a in sub._actions for flag in a.option_strings
            if flag not in ("-h", "--help")}


class TestOverrideFlags:
    """Every config key but ``oracle`` has a flag whose dest is the key."""

    @pytest.mark.parametrize("command", ["replay", "compare"])
    def test_flags_are_the_configs_keys(self, command):
        keys = [f.name for f in dataclasses.fields(ScenarioConfig)
                if f.name != "oracle" and (command == "replay" or f.name != "mode")]
        assert override_flags(command) == {
            **{"--" + key.replace("_", "-"): key for key in keys},
            "--config": "config", "--out-dir": "out_dir", "--seed": "seed",
            "--correlation": "correlation"}

    @pytest.mark.parametrize("flag, value", [
        ("--gpu-budget-bytes", 1), ("--cpu-budget-bytes", 1), ("--k", 1),
        ("--compute-window-ms", 12.5),
    ], ids=lambda v: str(v).lstrip("-"))
    def test_number_flag_reaches_the_echo(self, driving_dir, tmp_path, flag, value):
        key = flag[2:].replace("-", "_")
        doc = json.loads((driving_dir / "config.json").read_text())
        # A budget flag adds one byte to the config's budget.
        value = doc[key] + value if key.endswith("_bytes") else value
        out = tmp_path / "out"
        code = main(["replay", "--config", str(driving_dir / "config.json"),
                     flag, str(value), "--out-dir", str(out)])
        assert code == EXIT_OK
        echo = json.loads((out / "config.echo.json").read_text())
        assert echo[key] == value and type(echo[key]) is type(value)


class TestPathFlags:
    """A path flag resolves against the working directory, not the config's."""

    @pytest.mark.parametrize("flag, name, broken", [
        ("--manifest", "manifest.json", b"{"),
        ("--tasks", "tasks.json", b"{"),
        ("--log", "log.txt", b"\xff"),
        ("--trace", "trace.txt", b"\xff"),
        ("--cost-model", "cost_model.json", b"{"),
    ], ids=["manifest", "tasks", "log", "trace", "cost-model"])
    def test_flag_reads_the_working_directorys_file(self, driving_dir, tmp_path,
                                                     monkeypatch, flag, name, broken):
        # The config's directory holds a broken file of the same name.
        shutil.copytree(driving_dir, tmp_path / "scen")
        shadow = "shadow" + Path(name).suffix
        shutil.copy(driving_dir / name, tmp_path / shadow)
        (tmp_path / "scen" / shadow).write_bytes(broken)
        monkeypatch.chdir(tmp_path)
        code = main(["replay", "--config", "scen/config.json", flag, shadow,
                     "--out-dir", "out"])
        assert code == EXIT_OK
        echo = json.loads((tmp_path / "out" / "config.echo.json").read_text())
        assert echo[flag[2:].replace("-", "_")] == str((tmp_path / shadow).resolve())

    def test_trace_flag_is_not_shadowed_by_the_configs_directory(
            self, driving_dir, tmp_path, monkeypatch, capsys):
        # Both files are valid traces; the working directory's has 3 switches.
        shutil.copytree(driving_dir, tmp_path / "scen")
        shutil.copy(driving_dir / "trace.txt", tmp_path / "scen" / "mytrace.txt")
        (tmp_path / "mytrace.txt").write_text("Car\nTrafficLight\nCar\nObstacle\n")
        monkeypatch.chdir(tmp_path)
        code = main(["replay", "--config", "scen/config.json", "--trace", "mytrace.txt",
                     "--out-dir", "out"])
        assert code == EXIT_OK
        assert capsys.readouterr().out.startswith("full_method: 3 switches,")

    def test_table_oracle_path_resolves_against_the_configs_directory(
            self, driving_dir, tmp_path):
        # The manifest comes from another directory, which has no table.
        config = write_table_scenario(driving_dir, tmp_path)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        shutil.copy(config.parent / "manifest.json", elsewhere / "manifest.json")
        code = main(["compare", "--config", str(config),
                     "--manifest", str(elsewhere / "manifest.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_OK
        # The echo names the table that was read, as it names every other file.
        echo = json.loads((tmp_path / "out" / "full_method" / "config.echo.json").read_text())
        assert echo["oracle"]["path"] == str((config.parent / "table.json").resolve())


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

    def test_each_modes_echo_names_the_mode_it_replayed(self, driving_dir, tmp_path):
        # The config names full_method; each echo records its own replay,
        # and a replay of one mode writes what the compare wrote for it.
        config = str(driving_dir / "config.json")
        out = tmp_path / "cmp"
        assert main(["compare", "--config", config, "--out-dir", str(out)]) == EXIT_OK
        for mode in DeployMode:
            echo = json.loads((out / mode.value / "config.echo.json").read_text())
            assert echo["mode"] == mode.value
            single = tmp_path / mode.value
            assert main(["replay", "--config", config, "--mode", mode.value,
                         "--out-dir", str(single)]) == EXIT_OK
            names = sorted(p.name for p in single.iterdir())
            assert names == ["config.echo.json", "jaccard.csv", "summary.csv",
                             "switches.jsonl"]
            assert names == sorted(p.name for p in (out / mode.value).iterdir())
            for name in names:
                assert (single / name).read_bytes() == (out / mode.value / name).read_bytes()


class TestParserReuse:
    def test_no_flag_or_default_carries_to_the_next_call(self, driving_dir, tmp_path,
                                                         capsys, monkeypatch):
        # main() reuses one parser per process. Each call after a flag was
        # given must read as it does on a parser built for that call alone.
        tasks = str(write_tasks(tmp_path / "tasks.json", ids=("a", "b", "c")))
        config = str(driving_dir / "config.json")
        select = ["select", "--tasks", tasks, "--num-blocks", "32", "--seed", "3",
                  "--correlation", "0.6"]
        calls = [[*select, "--independent"], select,
                 ["replay", "--config", config, "--mode", "split_only"],
                 ["replay", "--config", config],
                 ["compare", "--config", config]]

        def outputs(root: Path) -> dict[str, bytes]:
            root.mkdir()
            got = {}
            for i, argv in enumerate(calls):
                out = ["--out", str(root / f"{i}.json")] if argv[0] == "select" \
                    else ["--out-dir", str(root / str(i))]
                assert main([*argv, *out]) == EXIT_OK
                got[f"{i}/stdout"] = capsys.readouterr().out.replace(
                    str(root), "<root>").encode()
            for path in sorted(root.rglob("*")):
                if path.is_file():
                    got[path.relative_to(root).as_posix()] = path.read_bytes()
            return got

        reused = outputs(tmp_path / "reused")
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        assert outputs(tmp_path / "fresh") == reused
        # Each flag changes its output, so a flag that carried over would show.
        assert reused["0.json"] != reused["1.json"]
        assert reused["2/summary.csv"] != reused["3/summary.csv"]


class TestUnwritableOutput:
    def test_compare_out_dir_naming_a_file(self, driving_dir, tmp_path, capsys):
        out = tmp_path / "taken"
        out.write_text("")
        code = main(["compare", "--config", str(driving_dir / "config.json"),
                     "--out-dir", str(out)])
        assert code == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err

    def test_select_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.json"
        assert run_select(tmp_path, "--num-blocks", "8", "--seed", "3",
                          "--out", str(out)) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err

    def test_estimate_out_in_a_missing_directory(self, tmp_path, capsys):
        log = tmp_path / "log.txt"
        log.write_text("Car\nTrafficLight\nCar\n")
        out = tmp_path / "missing" / "y.json"
        assert main(["estimate", "--log", str(log), "--out", str(out)]) == EXIT_CONFIG
        assert str(out) in capsys.readouterr().err


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
    @pytest.mark.parametrize("value", [math.nan, math.inf, -5.0,
                                       pytest.param(10**400, id="int-1e400")])
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

    def test_integer_too_large_for_a_float_is_named_briefly(self, driving_dir,
                                                            tmp_path, capsys):
        code = compare_edited(driving_dir, tmp_path, "config.json",
                              ("compute_window_ms",), 10**400)
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "integer is too large for a float" in err
        assert "0" * 100 not in err

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
        # JSON true is not the count 1.
        ("config.json", ("k",), True),
        ("config.json", ("oracle", "seed"), True),
        ("manifest.json", ("block_sizes_bytes", 0), True),
        ("tasks.json", (0, "max_remove"), True),
        # Nor is a JSON string that int() would parse.
        ("config.json", ("k",), "1"),
        ("config.json", ("gpu_budget_bytes",), "1000000000000"),
        ("config.json", ("oracle", "seed"), "7"),
        ("manifest.json", ("block_sizes_bytes", 0), "62625000"),
        ("tasks.json", (0, "max_remove"), "2"),
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
        {"active_blocks": [True], "score": 0.5},
        {"active_blocks": [0], "score": True},
        {"active_blocks": ["0"], "score": 0.5},
        {"active_blocks": [0], "score": "0.5"},
        # A later row for the same set used to replace the full-model score.
        {"active_blocks": [1, 0], "score": 0.3},
        {"active_blocks": [0, 0], "score": 0.5},
    ], ids=lambda row: json.dumps(row))
    def test_bad_table_oracle_row_is_a_config_error(self, tmp_path, row):
        tasks = write_tasks(tmp_path / "tasks.json", ids=("a",))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"a": [{"active_blocks": [0, 1], "score": 1.0},
                                           row]}))
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "2",
                     "--oracle-table", str(table)])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("name, path, value", [
        pytest.param(name, path, value,
                     id=f"{name}-{key_path_id(path)}" + ("" if value is True else "-str"))
        for name, path in [
            ("config.json", ("compute_window_ms",)),
            ("config.json", ("oracle", "correlation")),
            ("cost_model.json", ("disk_to_cpu_mbps",)),
            ("tasks.json", (0, "retention_ratio")),
            ("tasks.json", (0, "priority_weight")),
        ]
        for value in (True, " 1 ")
    ] + [
        pytest.param("cost_model.json", ("per_block_fixed_ms",), "0.5",
                     id="cost_model.json-per_block_fixed_ms-str"),
        pytest.param("config.json", ("compute_window_ms",), "8e1",
                     id="config.json-compute_window_ms-exp-str"),
    ])
    def test_boolean_is_not_a_number(self, driving_dir, tmp_path, name, path, value):
        # float(True) is 1.0 and float(" 1 ") too, a valid value for each of
        # these fields; only a JSON number is one.
        assert compare_edited(driving_dir, tmp_path, name, path, value) == EXIT_CONFIG

    # Each passes the file loaders' checks; unchecked, it overflows in the
    # replay or in the report means.
    @pytest.mark.parametrize("name, path, value, cause", [
        pytest.param("cost_model.json", ("disk_to_cpu_mbps",), 1e-320, "reloads",
                     id="disk-bandwidth-1e-320"),
        pytest.param("manifest.json", ("block_sizes_bytes",), 10 ** 400, "bytes",
                     id="block-sizes-1e400"),
        pytest.param("cost_model.json", ("per_block_fixed_ms",), 1e307, "reloads",
                     id="per-block-ms-1e307"),
        # Each latency is finite; their sum over the trace is not.
        pytest.param("cost_model.json", ("monolithic_init_ms",), 1e307, "reloads",
                     id="init-ms-1e307"),
        # Each resident byte count is a finite float; their sum is not.
        pytest.param("manifest.json", ("block_sizes_bytes",), 10 ** 306, "bytes",
                     id="block-sizes-1e306"),
    ])
    def test_overflowing_sizes_or_costs_are_a_config_error(self, driving_dir, tmp_path,
                                                           capsys, name, path, value,
                                                           cause):
        flags = ()
        if path == ("block_sizes_bytes",):
            # Every block that large, and budgets that admit them.
            manifest = json.loads((driving_dir / "manifest.json").read_text())
            value = [value] * len(manifest["block_sizes_bytes"])
            budget = str(100 * value[0])
            flags = ("--gpu-budget-bytes", budget, "--cpu-budget-bytes", budget)
            if value[0] < 10 ** 308:
                # Links fast enough that every latency stays finite.
                flags += ("--cost-model", str(self.fast_links(tmp_path)))
        code = compare_edited(driving_dir, tmp_path, name, path, value, *flags)
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and cause in err
        assert "Traceback" not in err and "0" * 100 not in err

    @staticmethod
    def fast_links(tmp_path):
        path = tmp_path / "fast_links.json"
        path.write_text(json.dumps({"disk_to_cpu_mbps": 1e300, "cpu_to_gpu_mbps": 1e300}))
        return path

    def test_out_of_range_correlation_is_a_config_error(self, driving_dir, tmp_path):
        code = compare_edited(driving_dir, tmp_path, "config.json",
                              ("oracle", "correlation"), 1.5)
        assert code == EXIT_CONFIG


class TestUnknownKeys:
    # Each misspelt key used to be ignored, so its field silently ran with
    # the default: window 0, correlation 0.7, priority 1, no fixed cost.
    @pytest.mark.parametrize("name, path, value", [
        ("config.json", ("compute_window",), 80.0),
        ("config.json", ("oracle", "corelation"), 0.85),
        ("tasks.json", (0, "priority"), 5.0),
        ("cost_model.json", ("per_block_ms",), 1.0),
    ], ids=key_path_id)
    def test_unknown_key_is_a_config_error(self, driving_dir, tmp_path, name, path,
                                           value):
        assert compare_edited(driving_dir, tmp_path, name, path, value) == EXIT_CONFIG

    @pytest.mark.parametrize("extra, flags", [
        ({}, []), ({"seed": 7}, []), ({}, ["--seed", "7"]),
        ({}, ["--correlation", "0.5"]),
        # The path is a string; anything else is refused, not joined.
        ({"path": 5}, []), ({"path": None}, []), ({"path": ["table.json"]}, []),
    ], ids=["kind-and-path", "seed-key", "seed-flag", "correlation-flag",
            "path-int", "path-null", "path-list"])
    def test_table_oracle_spec_takes_kind_and_path_only(self, driving_dir, tmp_path,
                                                        extra, flags):
        config = write_table_scenario(driving_dir, tmp_path, extra)
        code = main(["compare", "--config", str(config),
                     "--out-dir", str(tmp_path / "out"), *flags])
        assert code == (EXIT_CONFIG if extra or flags else EXIT_OK)

    @pytest.mark.parametrize("flags", [["--seed", "7"], ["--correlation", "0.1"],
                                       ["--seed", "7", "--correlation", "0.1"]],
                             ids=["seed", "correlation", "both"])
    def test_select_with_table_refuses_synthetic_flags(self, tmp_path, capsys, flags):
        tasks = write_tasks(tmp_path / "tasks.json", ids=("a",))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"a": [{"active_blocks": [0, 1], "score": 1.0}]}))
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "2",
                     "--oracle-table", str(table), *flags])
        assert code == EXIT_CONFIG
        assert "table oracle spec has unknown keys" in capsys.readouterr().err


def full_table(every):
    # With no removals, selection scores only the full model.
    return [{"active_blocks": every, "score": 1.0}]


def write_table_scenario(driving_dir, tmp_path, oracle_extra=None, rows=full_table):
    """A copy of the driving scenario that removes no block, with a table
    oracle whose rows for each task are ``rows(every block id)``. Returns
    its config path."""
    root = tmp_path / "scenario"
    shutil.copytree(driving_dir, root)
    tasks = json.loads((root / "tasks.json").read_text())
    for row in tasks:
        row["max_remove"] = 0
    (root / "tasks.json").write_text(json.dumps(tasks))
    every = list(range(len(json.loads(
        (root / "manifest.json").read_text())["block_sizes_bytes"])))
    (root / "table.json").write_text(json.dumps(
        {row["task_id"]: rows(every) for row in tasks}))
    doc = json.loads((root / "config.json").read_text())
    doc["oracle"] = {"kind": "table", "path": "table.json", **(oracle_extra or {})}
    (root / "config.json").write_text(json.dumps(doc))
    return root / "config.json"


@pytest.mark.parametrize("extra_row, message", [
    # A later row for the full set used to replace the full-model score.
    (lambda every: {"active_blocks": every[::-1], "score": 0.3}, "has two rows"),
    (lambda every: {"active_blocks": [0, 0], "score": 0.5}, "name a block twice"),
], ids=["repeated-set", "repeated-id"])
def test_compare_refuses_an_ambiguous_table_oracle(driving_dir, tmp_path, capsys,
                                                   extra_row, message):
    config = write_table_scenario(driving_dir, tmp_path,
                                  rows=lambda every: full_table(every) + [extra_row(every)])
    code = main(["compare", "--config", str(config), "--out-dir", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err


def test_an_unknown_log_id_precedes_a_selection_error(driving_dir, tmp_path, capsys):
    # A table without rows fails selection; a log naming no task fails
    # loading, which comes first.
    config = write_table_scenario(driving_dir, tmp_path, rows=lambda every: [])
    argv = ["compare", "--config", str(config), "--out-dir", str(tmp_path / "out")]
    assert main(argv) == EXIT_SELECTION
    assert capsys.readouterr().err.startswith("selection error: no table entry")
    log = config.parent / "log.txt"
    entries = len(log.read_text().split())
    with open(log, "a") as fh:
        fh.write("Ghost\n")
    assert main(argv) == EXIT_REPLAY
    assert capsys.readouterr().err == \
        f"replay error: unknown task id 'Ghost' (log position {entries})\n"
    assert not (tmp_path / "out").exists()


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
        ("config.json", b"[]"),
    ])
    def test_unreadable_scenario_file_is_a_config_error(self, driving_dir, tmp_path,
                                                        name, content):
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)
        (root / name).write_bytes(content)
        code = main(["compare", "--config", str(root / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG

    @pytest.mark.parametrize("name", ["config.json", "manifest.json"])
    def test_json_nested_past_the_parsers_recursion_is_a_config_error(
            self, driving_dir, tmp_path, capsys, name):
        # The parser raises RecursionError, not JSONDecodeError, on arrays
        # nested 100,000 deep.
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)
        path = root / name
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(ConfigError, match="nests its JSON too deep"):
            read_json(path)
        code = main(["compare", "--config", str(root / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG
        assert err == f"config error: {path} nests its JSON too deep to parse\n"

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

    @pytest.mark.parametrize("task_id", ["", "a,b", "a\nb", "a\rb", " b", "b\t"],
                             ids=["empty", "comma", "newline", "carriage-return",
                                  "leading-space", "trailing-tab"])
    def test_task_id_no_trace_line_can_name_is_a_config_error(self, tmp_path, capsys,
                                                               task_id):
        # Log and trace lines are stripped and split on commas: " b" and
        # "a,b" would both read as task "b".
        tasks = write_tasks(tmp_path / "tasks.json", ids=(task_id, "b"))
        code = main(["select", "--tasks", str(tasks), "--num-blocks", "4",
                     "--seed", "1"])
        assert code == EXIT_CONFIG
        assert "task_id" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flags", [[], ["--seed", "7"]], ids=["spec", "seed-flag"])
    def test_oracle_not_an_object_is_a_config_error(self, driving_dir, tmp_path,
                                                    capsys, flags):
        # dict() would read these pairs as the default synthetic spec.
        pairs = [["kind", "synthetic"], ["seed", 7], ["correlation", 0.85]]
        code = compare_edited(driving_dir, tmp_path, "config.json", ("oracle",), pairs,
                              *flags)
        assert code == EXIT_CONFIG
        assert "oracle must be a JSON object, not list" in capsys.readouterr().err

    @pytest.mark.parametrize("name, doc, message", [
        ("tasks.json", [], "{root}/tasks.json: task file lists no tasks"),
        ("manifest.json", {"model_name": [1], "block_sizes_bytes": [1]},
         "model_name must be a string, got [1]"),
        ("manifest.json", [{"model_name": "m", "block_sizes_bytes": [1]}],
         "manifest must be a JSON object, not list"),
        ("config.json", {"manifest": 5}, "manifest must be a path string, got 5"),
        ("config.json", {"trace": None}, "config is missing 'trace'"),
        ("config.json", {"oracle": {"kind": "oracle"}}, "unknown oracle kind 'oracle'"),
    ], ids=["empty-task-file", "non-string-model-name", "manifest-array",
            "non-string-path", "missing-path-key", "unknown-oracle-kind"])
    def test_malformed_document_is_refused_at_its_boundary(self, driving_dir, tmp_path,
                                                           capsys, name, doc, message):
        # A config edit sets its keys, and None deletes one.
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)
        path = root / name
        if name == "config.json":
            doc = {**json.loads(path.read_text()), **doc}
            doc = {key: value for key, value in doc.items() if value is not None}
        path.write_text(json.dumps(doc))
        code = main(["compare", "--config", str(root / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: {message.format(root=root.resolve())}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("tasks, flags, message", [
        ({}, ["--num-blocks", "4"], "{tasks}: task file must be a JSON array"),
        ([1], ["--num-blocks", "4"], "{tasks}: task entry must be a JSON object, not int"),
        ([{"task_id": "a", "retention_ratio": 0, "max_remove": 1}], ["--num-blocks", "4"],
         "a: retention_ratio must be in (0, 1]"),
        ([{"task_id": "a", "retention_ratio": 0.9, "max_remove": -1}],
         ["--num-blocks", "4"], "a: max_remove must be >= 0"),
        ([{"task_id": "a", "retention_ratio": 0.9, "max_remove": 1}] * 2,
         ["--num-blocks", "4"], "{tasks}: duplicate task ids"),
        (None, [], "select needs --num-blocks or --manifest"),
        (None, ["--num-blocks", "2", "--oracle-table", "{table}"],
         "table oracle file lacks tasks: ['b']"),
    ], ids=["not-an-array", "entry-not-an-object", "zero-retention",
            "negative-max-remove", "duplicate-ids", "no-block-count", "table-lacks-task"])
    def test_bad_task_file_or_select_flags_are_refused(self, tmp_path, capsys, tasks,
                                                       flags, message):
        path = write_tasks(tmp_path / "tasks.json")
        if tasks is not None:
            path.write_text(json.dumps(tasks))
        table = tmp_path / "table.json"
        table.write_text(json.dumps({"a": []}))
        code = main(["select", "--tasks", str(path),
                     *(f.format(table=table) for f in flags)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err \
            == f"config error: {message.format(tasks=path)}\n"


def output_bytes(root):
    """Every file under ``root`` by its relative name."""
    return {f.relative_to(root).as_posix(): f.read_bytes()
            for f in sorted(root.rglob("*")) if f.is_file()}


class TestByteOrderMark:
    @pytest.mark.parametrize("name", ["config.json", "manifest.json", "tasks.json",
                                      "cost_model.json", "log.txt", "trace.txt",
                                      "estimate"])
    def test_a_leading_bom_reads_as_without_one(self, driving_dir, tmp_path, name):
        # Each scenario file, and estimate's log, writes the same bytes with
        # a UTF-8 byte-order mark at its head as without one.
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)

        def run(out):
            if name == "estimate":
                out.mkdir()
                return main(["estimate", "--log", str(root / "log.txt"),
                             "--out", str(out / "model.json")])
            return main(["compare", "--config", str(root / "config.json"),
                         "--out-dir", str(out)])

        assert run(tmp_path / "plain") == EXIT_OK
        path = root / ("log.txt" if name == "estimate" else name)
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert run(tmp_path / "bom") == EXIT_OK
        plain = output_bytes(tmp_path / "plain")
        assert len(plain) == (1 if name == "estimate" else 17)
        assert output_bytes(tmp_path / "bom") == plain

    def test_a_bom_past_the_head_of_the_trace_stays_text(self, driving_dir, tmp_path,
                                                         capsys):
        # Only the mark at the head is dropped: a later U+FEFF is part of
        # its line's id, which names no task.
        root = tmp_path / "scenario"
        shutil.copytree(driving_dir, root)
        (root / "trace.txt").write_bytes("\ufeffCar\nPerson\n\ufeffCar\n".encode())
        code = main(["compare", "--config", str(root / "config.json"),
                     "--out-dir", str(tmp_path / "out")])
        assert code == EXIT_REPLAY
        assert capsys.readouterr().err == ("replay error: trace task '\\ufeffCar' is not "
                                           "a scenario task (trace position 2)\n")


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

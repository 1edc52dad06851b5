"""The experiment scripts under ``scripts/``."""
from __future__ import annotations

import importlib.util
import sys
import tempfile
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_speedup_experiment_removes_its_temp_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("TMPDIR", str(tmp_path))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    monkeypatch.setattr(sys, "argv", ["run_speedup_experiment.py"])
    load_script("run_speedup_experiment").main()
    assert "mean speedup" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []

"""Golden digests of ``compare`` reports: refactors must keep every byte.

Each case writes a driving scenario, runs ``switchsim compare`` on it and
hashes every report except ``config.echo.json`` (it holds absolute
paths). The digests were recorded from the simulator before its block
store was reduced to one residency model; a change that moves any
simulated number, report format or tie-break fails here.
"""
from __future__ import annotations

import hashlib

import pytest

from switchsim.cli import main
from switchsim.workloads import write_driving_scenario

# Seeded scenarios that differ in block count, k, prefetch window and host
# budget. Each one stages and evicts host-cache blocks in full_method.
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
}


def compare_digest(out_dir) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        if path.name != "config.echo.json":
            digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_compare_reports_match_golden_digest(name, tmp_path):
    params, expected = CASES[name]
    write_driving_scenario(tmp_path / "scenario", **params)
    out = tmp_path / "reports"
    assert main(["compare", "--config", str(tmp_path / "scenario" / "config.json"),
                 "--out-dir", str(out)]) == 0
    assert compare_digest(out) == expected

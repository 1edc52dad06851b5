"""Canned scenario builders for experiments and tests.

The five-task driving workload mirrors the qualitative shape of in-vehicle
perception streams: car and traffic-light recognition dominate the switch
traffic, with obstacle, person, and bicycle tasks as lower-priority
extras. Builders write every referenced file under one directory and
return a ready :class:`ScenarioConfig`.
"""
from __future__ import annotations

import json
from pathlib import Path

from .scenario import ScenarioConfig
from .switching import CostModel, calibrate_uniform_block_bytes
from .synthetic import gen_markov_log

__all__ = ["DRIVING_TASKS", "DRIVING_PAIR_BIAS", "write_driving_scenario"]

DRIVING_TASKS = ("Car", "TrafficLight", "Obstacle", "Person", "Bicycle")

# Switch-frequency skew: the car <-> traffic-light pair dominates, the
# obstacle -> person chain is a distant second, everything else is rare.
DRIVING_PAIR_BIAS = {
    ("Car", "TrafficLight"): 12.0,
    ("TrafficLight", "Car"): 12.0,
    ("Car", "Obstacle"): 2.0,
    ("Obstacle", "Person"): 2.0,
}

_PRIORITY = {"Car": 5.0, "TrafficLight": 4.0, "Obstacle": 3.0,
             "Person": 2.0, "Bicycle": 1.0}

# NVMe-to-host and host-to-device bandwidths with per-block overhead.
_COST_MODEL = CostModel(disk_to_cpu_mbps=2000.0, cpu_to_gpu_mbps=8000.0,
                        per_block_fixed_ms=1.0, monolithic_init_ms=250.0)


def write_driving_scenario(
    root: Path | str,
    *,
    num_blocks: int = 32,
    target_monolithic_ms: float = 1566.5,
    max_remove: int = 16,
    retention_ratio: float = 0.9,
    oracle_seed: int = 7,
    correlation: float = 0.85,
    log_seed: int = 11,
    log_length: int = 400,
    trace_seed: int = 13,
    trace_length: int = 80,
    k: int = 2,
    compute_window_ms: float = 80.0,
    cpu_budget_blocks: int = 8,
    mode: str | None = None,
) -> ScenarioConfig:
    """Write a complete five-task scenario directory and return its config.

    The uniform block size is calibrated so that a monolithic full reload
    costs exactly ``target_monolithic_ms`` under the cost model; every
    other mode is then a prediction of the same parameters.
    """
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    block_bytes = calibrate_uniform_block_bytes(target_monolithic_ms, num_blocks,
                                                _COST_MODEL)

    (root / "manifest.json").write_text(json.dumps({
        "model_name": f"driving-{num_blocks}b",
        "block_sizes_bytes": [block_bytes] * num_blocks,
    }, indent=2) + "\n", encoding="utf-8")

    (root / "tasks.json").write_text(json.dumps([
        {"task_id": t, "retention_ratio": retention_ratio,
         "max_remove": max_remove, "priority_weight": _PRIORITY[t]}
        for t in DRIVING_TASKS
    ], indent=2) + "\n", encoding="utf-8")

    (root / "cost_model.json").write_text(
        json.dumps(_COST_MODEL.to_json(), indent=2) + "\n", encoding="utf-8")

    log = gen_markov_log(log_seed, log_length, list(DRIVING_TASKS),
                         pair_bias=DRIVING_PAIR_BIAS)
    trace = gen_markov_log(trace_seed, trace_length, list(DRIVING_TASKS),
                           pair_bias=DRIVING_PAIR_BIAS)
    (root / "log.txt").write_text("\n".join(log) + "\n", encoding="utf-8")
    (root / "trace.txt").write_text("\n".join(trace) + "\n", encoding="utf-8")

    doc = {
        "manifest": "manifest.json",
        "tasks": "tasks.json",
        "oracle": {"kind": "synthetic", "seed": oracle_seed,
                   "correlation": correlation},
        "log": "log.txt",
        "trace": "trace.txt",
        "cost_model": "cost_model.json",
        "gpu_budget_bytes": block_bytes * num_blocks,
        "cpu_budget_bytes": block_bytes * cpu_budget_blocks,
        "k": k,
        "compute_window_ms": compute_window_ms,
    }
    if mode is not None:
        doc["mode"] = mode
    (root / "config.json").write_text(json.dumps(doc, indent=2) + "\n",
                                      encoding="utf-8")
    return ScenarioConfig.from_dict(doc, base_dir=root)

#!/usr/bin/env python3
"""Calibrated switch-latency comparison across the four deploy modes.

Builds the five-task driving scenario with a cost model calibrated so a
monolithic full reload costs 1566.5 ms, replays the same skewed trace
under every mode, and prints per-pair mean latencies plus the speedup of
the full method over sparse-without-split.

Usage:
    python scripts/run_speedup_experiment.py [--work-dir DIR]
"""
from __future__ import annotations

import argparse
import contextlib
import statistics
import tempfile

from switchsim.replay import compare_modes
from switchsim.switching import DeployMode
from switchsim.workloads import write_driving_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--work-dir", default=None,
                        help="keep scenario files here instead of a temp dir")
    args = parser.parse_args()
    with (contextlib.nullcontext(args.work_dir) if args.work_dir else
          tempfile.TemporaryDirectory(prefix="switchsim-speedup-")) as work:
        reports = compare_modes(write_driving_scenario(work))
        print(f"scenario: {work}")
    print(f"{'mode':16s} {'switches':>8s} {'mean ms':>10s} {'max ms':>10s} "
          f"{'hit rate':>8s}")
    for mode in DeployMode:
        rep = reports[mode]
        print(f"{mode.value:16s} {len(rep.switches):8d} "
              f"{rep.mean_latency_ms:10.3f} {rep.max_latency_ms:10.3f} "
              f"{rep.prestage_hit_rate:8.3f}")

    sparse = reports[DeployMode.SPARSE_NO_SPLIT]
    full = reports[DeployMode.FULL_METHOD]
    mean_speedup = (sparse.mean_latency_ms / full.mean_latency_ms
                    if full.mean_latency_ms else float("inf"))
    print(f"\nmean speedup (sparse_no_split / full_method): {mean_speedup:.2f}x")

    pairs: dict[tuple[str, str], tuple[list[float], list[float]]] = {}
    for s, f in zip(sparse.switches, full.switches):
        key = (s.from_task, s.to_task)
        pairs.setdefault(key, ([], []))
        pairs[key][0].append(s.latency_ms)
        pairs[key][1].append(f.latency_ms)
    print(f"\n{'pair':>28s} {'n':>3s} {'sparse ms':>10s} {'full ms':>10s} "
          f"{'speedup':>8s}")
    for key in sorted(pairs):
        sl, fl = pairs[key]
        ms, mf = statistics.fmean(sl), statistics.fmean(fl)
        ratio = ms / mf if mf else float("inf")
        print(f"{key[0]:>14s}->{key[1]:<13s} {len(sl):3d} {ms:10.3f} "
              f"{mf:10.3f} {ratio:8.2f}")


if __name__ == "__main__":
    main()

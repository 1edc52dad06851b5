#!/usr/bin/env python3
"""Write a ready-to-run five-task driving scenario directory.

Usage:
    python scripts/build_demo_scenario.py OUT_DIR [--seed 7] [--correlation 0.85]

The directory then works directly with the CLI:
    switchsim compare --config OUT_DIR/config.json --out-dir OUT_DIR/reports
"""
from __future__ import annotations

import argparse

from switchsim.workloads import write_driving_scenario


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out_dir")
    parser.add_argument("--seed", type=int, default=7, help="oracle seed")
    parser.add_argument("--correlation", type=float, default=0.85)
    parser.add_argument("--trace-length", type=int, default=80)
    parser.add_argument("--mode", default="full_method")
    args = parser.parse_args()
    config = write_driving_scenario(
        args.out_dir,
        oracle_seed=args.seed,
        correlation=args.correlation,
        trace_length=args.trace_length,
        mode=args.mode,
    )
    print(f"scenario written under {args.out_dir}")
    print(f"  manifest: {config.manifest.name}, "
          f"gpu budget {config.gpu_budget_bytes} B, "
          f"cpu budget {config.cpu_budget_bytes} B")


if __name__ == "__main__":
    main()

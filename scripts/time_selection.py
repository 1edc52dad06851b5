#!/usr/bin/env python3
"""Time aligned skip-set selection as the block count grows.

For each block count, draws a seeded five-task synthetic instance at
correlation 0.5, caps every task's removals at a quarter of the blocks,
and times ``build_all_tasks`` with alignment on fresh oracles (so no
per-oracle cache carries over between repeats). Prints the median
milliseconds and the summed ``oracle_calls`` per block count, then one
SHA-256 over every task's ``removal_order`` and one over the ``repr`` of
every task's ``final_score``, each at every block count run. The counts
and the digests do not depend on the host; the timings do.

Usage:
    python scripts/time_selection.py [--max-blocks 2048] [--repeats 5]
"""
from __future__ import annotations

import argparse
import hashlib
import statistics
from time import perf_counter

from switchsim.sparsity import build_all_tasks
from switchsim.synthetic import gen_instance

BLOCK_COUNTS = (128, 512, 1024, 2048)
NUM_TASKS = 5
CORRELATION = 0.5
SEED = 0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-blocks", type=int, default=BLOCK_COUNTS[-1],
                        help="largest block count to run")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed runs per block count; the median is printed")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    orders, scores = hashlib.sha256(), hashlib.sha256()
    print(f"{'blocks':>7} {'median ms':>10} {'oracle_calls':>13}")
    for num_blocks in BLOCK_COUNTS:
        if num_blocks > args.max_blocks:
            break
        inst = gen_instance(SEED, num_blocks, NUM_TASKS, CORRELATION)
        tasks = inst.task_specs(max_remove=num_blocks // 4)
        times = []
        for _ in range(args.repeats):
            oracles = inst.oracles()
            start = perf_counter()
            results = build_all_tasks(tasks, oracles, align=True)
            times.append(perf_counter() - start)
        calls = sum(res.oracle_calls for res in results.values())
        for task_id in inst.task_ids:
            res = results[task_id]
            orders.update(f"{num_blocks} {task_id} {res.removal_order}\n".encode())
            scores.update(f"{num_blocks} {task_id} {res.final_score!r}\n".encode())
        print(f"{num_blocks:>7} {1e3 * statistics.median(times):>10.2f} {calls:>13}")
    print(f"removal orders sha256={orders.hexdigest()}")
    print(f"final scores sha256={scores.hexdigest()}")


if __name__ == "__main__":
    main()

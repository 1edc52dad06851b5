#!/usr/bin/env python3
"""Measure how shared-pool alignment raises skip-set overlap.

Runs aligned and independent greedy selection over a family of seeded
synthetic instances and prints the mean pairwise Jaccard similarity of
the resulting skip sets for both strategies.

Usage:
    python scripts/run_overlap_experiment.py [--instances 100] [--correlation 0.7]
"""
from __future__ import annotations

import argparse
import itertools
import statistics

from switchsim.sparsity import build_all_tasks, jaccard
from switchsim.synthetic import gen_instance


def mean_pairwise_jaccard(skips: list[frozenset[int]]) -> float:
    pairs = list(itertools.combinations(skips, 2))
    return statistics.fmean(jaccard(a, b) for a, b in pairs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--instances", type=int, default=100)
    parser.add_argument("--num-blocks", type=int, default=32)
    parser.add_argument("--num-tasks", type=int, default=5)
    parser.add_argument("--correlation", type=float, default=0.7)
    args = parser.parse_args()

    aligned_means, independent_means, sparsities = [], [], []
    for seed in range(args.instances):
        inst = gen_instance(seed, args.num_blocks, args.num_tasks, args.correlation)
        tasks = inst.task_specs()
        oracles = inst.oracles()
        for align, sink in ((True, aligned_means), (False, independent_means)):
            results = build_all_tasks(tasks, oracles, align=align)
            skips = [results[t].skipped for t in inst.task_ids]
            sink.append(mean_pairwise_jaccard(skips))
            if align:
                sparsities.append(statistics.fmean(
                    len(s) / args.num_blocks for s in skips))

    print(f"instances={args.instances} blocks={args.num_blocks} "
          f"tasks={args.num_tasks} correlation={args.correlation}")
    print(f"aligned mean pairwise Jaccard:     {statistics.fmean(aligned_means):.3f}")
    print(f"independent mean pairwise Jaccard: {statistics.fmean(independent_means):.3f}")
    print(f"aligned mean sparsity:             {statistics.fmean(sparsities):.3f}")


if __name__ == "__main__":
    main()

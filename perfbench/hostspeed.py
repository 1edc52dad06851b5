"""Host-speed correction for wall times taken on a shared host.

On the 2-vCPU KVM guest (Xeon, Sapphire Rapids) this benchmark was built
on, other tenants slow one vCPU or both by up to 2x, in episodes of one
to several seconds that can last through a whole run. The guest's steal
counter stays at 0 and CPU time grows with wall time, so the process
cannot see it. The same compare took 1.8 s to 2.9 s within one process.

A fixed reference kernel runs before and after every measured step. It
uses the simulator's mix of frozenset algebra, generator sums over a
block set (as in selection's oracle), dict stores, keyed sorts and
``json.dumps``, so contention slows it as it slows a compare. Each
step's wall time is multiplied by ``REFERENCE_KERNEL_S`` over the mean of
the two kernel times around it: the result is the step's time at the
reference host speed. Over ten 20-second runs per workload, with the
kernel's median between 27 and 52 ms, the spread (interquartile range
over median) of the per-run median was 0.15 to 0.35 for raw wall time
and 0.02 to 0.04 for corrected time.
"""
from __future__ import annotations

import json
from time import perf_counter

KERNEL_ROUNDS = 5000
# Nominal kernel time, about its time on an uncontended vCPU of that host.
# Only its constancy matters: it sets the scale of every corrected time.
REFERENCE_KERNEL_S = 0.025


def reference_kernel() -> float:
    """Run the fixed kernel once and return its wall time in seconds."""
    start = perf_counter()
    weights = [((b * 37) % 101) / 101 for b in range(48)]
    counts: dict[int, int] = {}
    total = 0.0
    lines = []
    for i in range(KERNEL_ROUNDS):
        active = frozenset(range(i % 48)) - {i % 7, i % 11}
        total += sum(weights[b] for b in active)
        counts[i % 509] = len(active)
        total += sum(sorted(active, key=lambda b: -b)[:4]) / (1 + i)
        if i % 8 == 0:
            lines.append(json.dumps({"i": i, "n": len(active), "total": round(total, 3)}))
    return perf_counter() - start


class HostSpeed:
    """Brackets measured steps with the reference kernel."""

    def __init__(self):
        self._before = reference_kernel()
        self.kernel_s: list[float] = [self._before]

    def run(self, step):
        """Run ``step()``; return (factor to reference speed, its result)."""
        result = step()
        after = reference_kernel()
        self.kernel_s.append(after)
        factor = REFERENCE_KERNEL_S / ((self._before + after) / 2)
        self._before = after
        return factor, result

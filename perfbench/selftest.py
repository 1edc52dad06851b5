"""Self-test of the benchmark's tracer, output check and workload guard.

Run from the repository root::

    python3 perfbench/selftest.py

It uses the paper-scale driving scenario (80 steps), so it takes a few
seconds. It checks that:

* after a traced compare every wrapped attribute is the original object;
* the span self times of one compare add up to no more than its wall time;
* ``sparsity.score_calls`` equals ``sparsity.oracle_calls``. This holds
  while selection scores every candidate through ``AdditiveOracle.score``;
  an incremental selector makes fewer score calls than logical oracle
  calls, and this line of the self-test is then expected to change;
* the output check rejects out-of-order per-mode means;
* the guard rejects a degenerate instance (identical skip sets).

Exit code 0 when every check passes, 1 otherwise.
"""
from __future__ import annotations

import contextlib
import csv
import importlib
import shutil
import sys

import run
from tracer import TARGETS, Tracer

WORK = run.ROOT / ".bench_run" / "selftest"


def patched_objects() -> list[tuple[object, str, object]]:
    """(owner, attribute, current object) for everything the tracer wraps."""
    owners = [(importlib.import_module(module), attr)
              for module, attr, _name, _counter in TARGETS]
    owners.append((importlib.import_module("switchsim.sparsity").AdditiveOracle, "score"))
    return [(owner, attr, owner.__dict__[attr]) for owner, attr in owners]


def runner_for(switchsim, name: str, **params) -> run.Runner:
    scenario = WORK / name
    switchsim.workloads.write_driving_scenario(scenario, **params)
    return run.Runner(switchsim.cli, scenario / "config.json", WORK / f"{name}-reports",
                      params.get("target_monolithic_ms", 1566.5))


def main() -> int:
    switchsim = run.import_switchsim()
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {what}")
        if not ok:
            failures.append(what)

    shutil.rmtree(WORK, ignore_errors=True)
    try:
        before = patched_objects()
        runner = runner_for(switchsim, "paper")
        tracer = Tracer()
        elapsed, _outputs, layers = run.traced_compare(runner, tracer)
        moved = [f"{owner.__name__}.{attr}" for owner, attr, original in before
                 if owner.__dict__[attr] is not original]
        expect(not moved, f"every wrapped attribute restored (changed: {moved})")
        total = tracer.self_time_total()
        expect(total <= elapsed,
               f"span self times {total:.6f} s <= compare wall time {elapsed:.6f} s")
        expect(layers["sparsity.score_calls"] == layers["sparsity.oracle_calls"],
               f"score_calls {layers['sparsity.score_calls']} == "
               f"oracle_calls {layers['sparsity.oracle_calls']}")

        summary = WORK / "paper-reports" / "full_method" / "summary.csv"
        with open(summary, encoding="utf-8", newline="") as fh:
            rows = [["mean_latency_ms", "99999.000"] if row[0] == "mean_latency_ms" else row
                    for row in csv.reader(fh)]
        with open(summary, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        try:
            run.check_outputs(summary.parent.parent, 1566.5)
            expect(False, "output check rejects out-of-order means")
        except run.OutputError as exc:
            expect(True, f"output check rejects out-of-order means ({exc})")

        degenerate = runner_for(switchsim, "degenerate", max_remove=4)
        _elapsed, outputs, layers = run.traced_compare(degenerate, Tracer())
        try:
            run.guard({"min_staged_blocks": 0}, outputs, layers)
            expect(False, "guard rejects identical skip sets")
        except run.DegenerateWorkload as exc:
            expect(True, f"guard rejects identical skip sets ({exc})")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.parent.rmdir()
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

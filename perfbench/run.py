"""Simulator-cost benchmark: host time of ``switchsim compare`` per workload.

Run from the repository root, for example::

    python3 perfbench/run.py --workload driving-long --seed 1 --seconds 20 --trace 0

switchsim is imported from ``src/`` of the current directory. The workload's
scenario is written with ``switchsim.workloads.write_driving_scenario`` under
``.bench_run/`` (removed on exit); ``--seed`` is its trace seed. Then
``switchsim.cli.main(["compare", ...])`` runs in a closed loop, one client,
one process, one thread, for ``--seconds`` seconds, and every compare's
reports are checked. A reference kernel runs between measured steps, and
every reported time is corrected to the reference host speed
(``hostspeed.py``); raw wall seconds are printed before the result.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced compares and reports the per-layer metrics. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; metric names and units come
from ``BENCHMARK.json``. Exit codes: 0 with a result, 2 when switchsim or
the benchmark definition cannot be found, 3 when the workload instance is
degenerate or its first compare fails.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import hashlib
import io
import json
import math
import shutil
import statistics
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_KERNEL_S, HostSpeed
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
MODES = ("monolithic", "sparse_no_split", "split_only", "full_method")
REPORT_FILES = frozenset(
    ["compare.csv"]
    + [f"{m}/{name}" for m in MODES
       for name in ("switches.jsonl", "summary.csv", "jaccard.csv", "config.echo.json")])
# config.echo.json holds absolute paths, so it is not part of the output hash.
UNHASHED = "config.echo.json"
# Set-ups between two compares; spread over the run, they see its contention.
SETUP_REPEATS = 3


class BenchError(Exception):
    exit_code = 2


class DegenerateWorkload(BenchError):
    """The generated instance would not measure the program the workload names."""

    exit_code = 3


class OutputError(Exception):
    """A compare's reports are missing, inconsistent or differ between repeats."""


@dataclass(frozen=True)
class Outputs:
    digest: str
    sim: dict[str, float]
    bytes_written: int


def import_switchsim():
    src = ROOT / "src"
    if not (src / "switchsim" / "__init__.py").is_file():
        raise BenchError(f"no switchsim package under {src}; run from the repository root")
    sys.path.insert(0, str(src))
    import switchsim.cli
    import switchsim.replay
    import switchsim.workloads
    if Path(switchsim.__file__).resolve().parent != (src / "switchsim").resolve():
        raise BenchError(f"imported switchsim from {switchsim.__file__}, not from {src}")
    return switchsim


def load_definitions(workload: str) -> tuple[dict, dict]:
    """The workload's generator spec and BENCHMARK.json's metric definitions."""
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from exc
    specs = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
    if workload not in specs:
        raise BenchError(f"unknown workload {workload!r}; choose from {sorted(specs)}")
    return specs[workload], bench


def _summary(path: Path) -> dict[str, str]:
    with open(path, encoding="utf-8", newline="") as fh:
        return {row[0]: row[1] for row in csv.reader(fh)}


def check_outputs(out_dir: Path, target_monolithic_ms: float) -> Outputs:
    """Hash one compare's reports and derive the simulated metrics from them.

    Raises :class:`OutputError` when a report is missing or unexpected,
    when the monolithic mean misses the calibration target, or when the
    per-mode means are out of order.
    """
    files = sorted(p for p in out_dir.rglob("*") if p.is_file())
    names = {p.relative_to(out_dir).as_posix() for p in files}
    if names != REPORT_FILES:
        raise OutputError(f"report files differ from expected: {sorted(names ^ REPORT_FILES)}")
    digest = hashlib.sha256()
    written = 0
    for path in files:
        data = path.read_bytes()
        written += len(data)
        if path.name != UNHASHED:
            digest.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
            digest.update(data)
    try:
        means = {m: float(_summary(out_dir / m / "summary.csv")["mean_latency_ms"])
                 for m in MODES}
        full = _summary(out_dir / "full_method" / "summary.csv")
        with open(out_dir / "full_method" / "jaccard.csv", encoding="utf-8",
                  newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        pairs = [float(v) for i, row in enumerate(rows)
                 for j, v in enumerate(row[1:]) if i < j]
        hit_rate = float(full["prestage_hit_rate"])
    except (KeyError, ValueError, IndexError) as exc:
        raise OutputError(f"unreadable report: {exc!r}") from exc
    if abs(means["monolithic"] - target_monolithic_ms) > 1e-3:
        raise OutputError(f"monolithic mean {means['monolithic']} ms is not the "
                          f"calibration target {target_monolithic_ms} ms")
    ordered = [means[m] for m in MODES]
    if ordered != sorted(ordered, reverse=True):
        raise OutputError(f"per-mode means out of order: {means}")
    if not pairs:
        raise OutputError("jaccard.csv has no task pairs")
    sim = {
        "sim_full_method_mean_ms": means["full_method"],
        "sim_speedup_x": (means["sparse_no_split"] / means["full_method"]
                          if means["full_method"] > 0 else math.inf),
        "sim_aligned_jaccard": statistics.fmean(pairs),
        "sim_prestage_hit_rate": hit_rate,
    }
    return Outputs(digest=digest.hexdigest(), sim=sim, bytes_written=written)


class Runner:
    """Runs compares on one scenario and keeps the attempt and failure counts."""

    def __init__(self, cli, config_path: Path, out_dir: Path, target_ms: float):
        self._cli = cli
        self._argv = ["compare", "--config", str(config_path), "--out-dir", str(out_dir)]
        self._out_dir = out_dir
        self._target_ms = target_ms
        self.reference: Outputs | None = None
        self.attempted = 0
        self.failed = 0

    def compare(self, call=None) -> tuple[float, Outputs]:
        """One timed compare; raises if it fails or its reports differ from the first.

        ``call(main, argv)``, when given, runs ``main(argv)`` and returns its
        result, so that a tracer or memory probe can wrap exactly the compare.
        """
        shutil.rmtree(self._out_dir, ignore_errors=True)
        gc.collect()
        self.attempted += 1
        with contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            if call is None:
                code = self._cli.main(self._argv)
            else:
                code = call(self._cli.main, self._argv)
            elapsed = perf_counter() - start
        if code != 0:
            raise OutputError(f"compare exited with code {code}")
        outputs = check_outputs(self._out_dir, self._target_ms)
        if self.reference is None:
            self.reference = outputs
        elif outputs.digest != self.reference.digest:
            raise OutputError("reports differ from the first compare of this run")
        return elapsed, outputs

    def repeat(self, compare):
        """Run ``compare``; a failure is reported and counted, and the loop goes on."""
        try:
            return compare()
        except Exception as exc:  # one failed compare must not end the run
            self.failed += 1
            print(f"perfbench: compare {self.attempted} failed: {exc!r}", file=sys.stderr)
            return None


def set_up(switchsim, params: dict, scenario_dir: Path) -> tuple[float, float]:
    """Write and load the scenario; return (generate seconds, total seconds)."""
    start = perf_counter()
    config = switchsim.workloads.write_driving_scenario(scenario_dir, **params)
    mid = perf_counter()
    switchsim.replay.load_scenario(config)
    return mid - start, perf_counter() - start


def guard(spec: dict, outputs: Outputs, layers: dict) -> None:
    """Reject an instance whose switches cost nothing or whose cache does not churn."""
    sim = outputs.sim
    if not sim["sim_full_method_mean_ms"] > 0 or not math.isfinite(sim["sim_speedup_x"]):
        raise DegenerateWorkload(
            f"full_method mean latency is {sim['sim_full_method_mean_ms']} ms: the skip "
            "sets make switches free, so this seed or parameter set is rejected")
    staged = layers["prefetch.staged_blocks"]
    if staged < spec["min_staged_blocks"]:
        raise DegenerateWorkload(
            f"full_method staged {staged} blocks, fewer than the workload's "
            f"{spec['min_staged_blocks']}; this seed or parameter set is rejected")


def traced_compare(runner: Runner, tracer: Tracer,
                   expected: dict | None = None) -> tuple[float, Outputs, dict]:
    """One compare under the tracer, checked for restored attributes, span sums
    and, given ``expected`` layers, for counts equal to theirs."""
    tracer.reset()
    with tracer:
        elapsed, outputs = runner.compare(
            lambda main, argv: tracer.span("cli.main", main, argv))
    if not tracer.restored():
        raise OutputError("a traced attribute was not restored after the traced compare")
    if tracer.self_time_total() > elapsed:
        raise OutputError("span self times add up to more than the compare's wall time")
    layers = tracer.layer_metrics()
    layers["replay.bytes_written"] = outputs.bytes_written
    if expected is not None and counts_of(layers) != counts_of(expected):
        raise OutputError("layer counts differ from the first traced compare")
    return elapsed, outputs, layers


def counts_of(layers: dict) -> dict:
    return {k: v for k, v in layers.items() if not k.endswith("_s")}


class PeakMemory:
    """Runs ``main(argv)`` under tracemalloc and keeps its peak traced bytes."""

    peak = 0

    def __call__(self, main, argv) -> int:
        tracemalloc.start()
        try:
            code = main(argv)
            self.peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return code


def closed_loop(seconds: float, speed: HostSpeed, *steps) -> list[list]:
    """Run ``steps`` in turn until ``seconds`` have passed.

    Returns, per step, the (host-speed factor, result) of each run that did
    not fail.
    """
    results = [[] for _ in steps]
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        for step, kept in zip(steps, results):
            factor, done = speed.run(step)
            if done is not None:
                kept.append((factor, done))
    if not all(results):
        raise BenchError("no compare succeeded")
    return results


def end_to_end(runner: Runner, speed: HostSpeed, probe,
               seconds: float) -> tuple[dict, list[str]]:
    memory = PeakMemory()
    runner.repeat(lambda: runner.compare(memory))
    probes, done = closed_loop(seconds, speed, probe, lambda: runner.repeat(runner.compare))
    raw = sorted(elapsed for _factor, (elapsed, _outputs) in done)
    q1, median, q3 = statistics.quantiles(raw, n=4, method="inclusive") \
        if len(raw) > 1 else raw * 3
    lines = [f"compare wall seconds: min={raw[0]:.4f} p25={q1:.4f} median={median:.4f} "
             f"p75={q3:.4f} n={len(raw)}; reference kernel median "
             f"{statistics.median(speed.kernel_s) * 1e3:.2f} ms (quiet host "
             f"{REFERENCE_KERNEL_S * 1e3:.0f} ms)"]
    metrics = {
        "compare_s": statistics.median(f * elapsed for f, (elapsed, _o) in done),
        "setup_s": statistics.median(f * total for f, times in probes
                                     for _generate, total in times),
        "peak_mem_mb": memory.peak / 1e6,
        "success_rate": (runner.attempted - runner.failed) / runner.attempted,
        **runner.reference.sim,
    }
    return metrics, lines


def per_layer(runner: Runner, tracer: Tracer, first: dict, speed: HostSpeed, probe,
              seconds: float) -> tuple[dict, list[str]]:
    probes, plain, traced = closed_loop(
        seconds, speed, probe,
        lambda: runner.repeat(runner.compare),
        lambda: runner.repeat(lambda: traced_compare(runner, tracer, first)))
    metrics = counts_of(first)
    for key in first.keys() - metrics.keys():
        metrics[key] = statistics.median(f * layers[key] for f, (_e, _o, layers) in traced)
    metrics["workloads.generate_s"] = statistics.median(
        f * generate for f, times in probes for generate, _total in times)
    metrics["trace.overhead_ratio"] = (
        statistics.median(f * elapsed for f, (elapsed, _o, _l) in traced)
        / statistics.median(f * elapsed for f, (elapsed, _o) in plain))
    return metrics, [f"traced compares n={len(traced)}, untraced n={len(plain)}"]


def measure(args, switchsim, spec: dict, work: Path) -> tuple[Runner, dict, list[str]]:
    params = dict(spec["generator"], trace_seed=args.seed)
    set_up(switchsim, params, work / "scenario")

    def probe():
        # The compare reads work/scenario; the probes write their own copy.
        return [set_up(switchsim, params, work / "setup-probe")
                for _ in range(SETUP_REPEATS)]

    runner = Runner(switchsim.cli, work / "scenario" / "config.json", work / "reports",
                    spec["generator"]["target_monolithic_ms"])
    tracer = Tracer()
    try:
        # Guard and warm-up: the first compare fixes the reference reports.
        _elapsed, reference, first_layers = traced_compare(runner, tracer)
    except Exception as exc:
        raise DegenerateWorkload(f"the first compare failed: {exc!r}") from exc
    guard(spec, reference, first_layers)
    speed = HostSpeed()
    if args.trace:
        metrics, lines = per_layer(runner, tracer, first_layers, speed, probe, args.seconds)
    else:
        metrics, lines = end_to_end(runner, speed, probe, args.seconds)
    return runner, metrics, [f"reports sha256={reference.digest}", *lines]


def result(runner: Runner, values: dict, declared: list[dict]) -> dict:
    metrics = {}
    for entry in declared:
        if entry["name"] not in values:
            raise BenchError(f"the benchmark measured no value for {entry['name']}")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    return {"correct": runner.failed == 0, "attempted": runner.attempted,
            "failed": runner.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A fixed path: report paths end up in memory, so peak_mem_mb depends on it.
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        spec, bench = load_definitions(args.workload)
        switchsim = import_switchsim()
        runner, values, lines = measure(args, switchsim, spec, work)
        out = result(runner, values,
                     bench["per_layer" if args.trace else "end_to_end"])
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return exc.exit_code
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    for line in lines:
        print(line)
    for name, metric in out["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

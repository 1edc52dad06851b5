"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""
from __future__ import annotations

import functools
import itertools
import random
import statistics
import time

from switchsim.block_store import CacheState, ModelManifest
from switchsim.cli import main
from switchsim.replay import compare_modes
from switchsim.scenario import load_scenario
from switchsim.sparsity import TaskSpec, build_all_tasks, jaccard, select_skip_set
from switchsim.switching import CostModel, DeployMode, SwitchTable, execute_switch
from switchsim.synthetic import gen_instance
from switchsim.workloads import write_driving_scenario

from opharness import run_random_ops
from reference import brute_force_greedy_replay


def criterion(num: int, title: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance {num}] FAIL  {title}")
                raise
            print(f"[acceptance {num}] PASS  {title}")
        return wrapper
    return decorate


@criterion(1, "greedy feasibility: retention constraint holds exactly")
def test_greedy_feasibility():
    start = time.monotonic()
    sizes = (8, 16, 32)
    for seed in range(200):
        n = sizes[seed % 3]
        corr = (seed % 11) / 10
        inst = gen_instance(seed, num_blocks=n, num_tasks=1, correlation=corr)
        oracle = inst.oracle(0)
        spec = TaskSpec("t", retention_ratio=0.9,
                        max_remove=max(1, round(0.3 * n)))
        res = select_skip_set(spec, oracle)
        active = frozenset(range(n)) - res.skipped
        assert oracle.score(active) >= 0.9 * oracle.full_score, \
            f"seed {seed}: constraint violated"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s, budget is 10s"


@criterion(2, "greedy selection matches the brute-force replay oracle")
def test_greedy_matches_reference():
    start = time.monotonic()
    for seed in range(200):
        n = 4 + seed % 5  # 4..8 blocks
        corr = (seed % 11) / 10
        max_remove = 1 + seed % n
        inst = gen_instance(seed, num_blocks=n, num_tasks=1, correlation=corr)
        oracle = inst.oracle(0)
        spec = TaskSpec("t", retention_ratio=0.9, max_remove=max_remove)
        fast = select_skip_set(spec, oracle).skipped
        slow = brute_force_greedy_replay(oracle, 0.9, max_remove)
        assert fast == slow, f"seed {seed}: {sorted(fast)} != {sorted(slow)}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


@criterion(3, "shared-pool alignment raises pairwise skip-set overlap")
def test_alignment_raises_overlap():
    start = time.monotonic()
    aligned_means, independent_means = [], []
    for seed in range(100):
        inst = gen_instance(seed, num_blocks=32, num_tasks=5, correlation=0.7)
        tasks = inst.task_specs()
        oracles = inst.oracles()
        per_mode = {}
        for align in (True, False):
            results = build_all_tasks(tasks, oracles, align=align)
            skips = [results[t].skipped for t in inst.task_ids]
            per_mode[align] = statistics.fmean(
                jaccard(a, b) for a, b in itertools.combinations(skips, 2))
        aligned_means.append(per_mode[True])
        independent_means.append(per_mode[False])
    aligned = statistics.fmean(aligned_means)
    independent = statistics.fmean(independent_means)
    assert aligned > independent, (aligned, independent)
    assert aligned >= 0.6, f"aligned mean {aligned:.3f} below 0.6"
    assert independent <= 0.4, f"independent mean {independent:.3f} above 0.4"
    assert aligned - independent >= 0.15, \
        f"separation {aligned - independent:.3f} below 0.15"
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"


@criterion(4, "per-transition latency ordering across the four modes")
def test_mode_ordering_over_random_scenarios():
    violations = 0
    for seed in range(50):
        rng = random.Random(1000 + seed)
        n = rng.randrange(2, 24)
        sizes = tuple(rng.randrange(1, 64) * 1_000_000 for _ in range(n))
        manifest = ModelManifest("m", sizes)
        cost = CostModel(
            disk_to_cpu_mbps=rng.uniform(100, 5000),
            cpu_to_gpu_mbps=rng.uniform(1000, 20000),
            per_block_fixed_ms=rng.uniform(0, 3),
            monolithic_init_ms=rng.uniform(0, 500),
        )
        tasks = [f"t{i}" for i in range(rng.randrange(2, 6))]
        actives = {t: frozenset(rng.sample(range(n), rng.randrange(1, n + 1)))
                   for t in tasks}
        table = SwitchTable(manifest, cost, actives)
        # full_method's device, which each switch carries to the next; the
        # host-free modes' switches depend on the task pair alone.
        device = actives[tasks[0]]
        current = tasks[0]
        for _ in range(12):
            nxt = rng.choice([t for t in tasks if t != current])
            prestage = tuple(sorted(rng.sample(range(n), rng.randrange(0, n + 1))))
            lat = {}
            for mode in DeployMode:
                if mode is DeployMode.FULL_METHOD:
                    state = CacheState(device, prestage)
                    after, report = execute_switch(state, current, nxt, table)
                    device = after.gpu_resident
                else:
                    report = table.report(mode, current, nxt)
                lat[mode] = report.latency_ms
            ordered = (lat[DeployMode.MONOLITHIC] >= lat[DeployMode.SPARSE_NO_SPLIT]
                       >= lat[DeployMode.SPLIT_ONLY] >= lat[DeployMode.FULL_METHOD])
            if not ordered:
                violations += 1
            current = nxt
    assert violations == 0, f"{violations} ordering violations"


@criterion(5, "calibrated speedup of the full method over sparse-no-split")
def test_calibrated_speedup(tmp_path):
    start = time.monotonic()
    config = write_driving_scenario(tmp_path)
    reports = compare_modes(config)
    mono = reports[DeployMode.MONOLITHIC]
    sparse = reports[DeployMode.SPARSE_NO_SPLIT]
    full = reports[DeployMode.FULL_METHOD]

    # One-point calibration: every monolithic switch is the 1566.5 ms reload.
    assert abs(mono.mean_latency_ms - 1566.5) < 1e-3, \
        f"calibration off: monolithic mean {mono.mean_latency_ms:.3f} ms"

    # Aligned skip sets, the full method's, sit at the reported ~47-50%
    # sparsity level.
    scenario = load_scenario(config)
    aligned = build_all_tasks(scenario.tasks, scenario.oracles, align=True)
    sparsity = statistics.fmean(
        len(sel.skipped) / scenario.manifest.num_blocks for sel in aligned.values())
    assert 0.44 <= sparsity <= 0.52, f"aligned sparsity {sparsity:.3f}"

    mean_speedup = (sparse.mean_latency_ms / full.mean_latency_ms
                    if full.mean_latency_ms else float("inf"))
    assert mean_speedup >= 6.6, (
        f"mean speedup {mean_speedup:.2f}x below the 6.6x band "
        f"(sparse {sparse.mean_latency_ms:.3f} ms, full "
        f"{full.mean_latency_ms:.3f} ms)")

    pair_lat: dict[tuple[str, str], list[list[float]]] = {}
    for s, f in zip(sparse.switches, full.switches):
        entry = pair_lat.setdefault((s.from_task, s.to_task), [[], []])
        entry[0].append(s.latency_ms)
        entry[1].append(f.latency_ms)
    frequent = {k: v for k, v in pair_lat.items() if len(v[0]) >= 2}
    best = max(
        (statistics.fmean(sl) / statistics.fmean(fl)
         if statistics.fmean(fl) else float("inf"))
        for sl, fl in frequent.values())
    assert best >= 9.0 * 0.9, (
        f"best frequent-pair speedup {best:.2f}x below the 9x band "
        f"(-10% tolerance)")

    # Dominant-pair ordering: full method under split-only under
    # sparse-no-split on the busiest transition.
    split = reports[DeployMode.SPLIT_ONLY]
    car_tl = [i for i, s in enumerate(sparse.switches)
              if (s.from_task, s.to_task) == ("Car", "TrafficLight")]
    assert car_tl, "skewed trace must exercise the Car->TrafficLight pair"
    for i in car_tl:
        assert full.switches[i].latency_ms <= split.switches[i].latency_ms \
            <= sparse.switches[i].latency_ms
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s, budget is 30s"


@criterion(6, "a drop-only switch moves zero bytes in split modes")
def test_zero_fetch_switch():
    manifest = ModelManifest("m", (50_000_000,) * 8)
    actives = {"wide": frozenset(range(6)), "narrow": frozenset(range(5))}
    active_wide = actives["wide"]
    state = CacheState(active_wide)
    cost = CostModel(disk_to_cpu_mbps=2000.0, cpu_to_gpu_mbps=8000.0,
                     per_block_fixed_ms=1.0, monolithic_init_ms=250.0)
    assert actives["narrow"] < active_wide  # strictly drops blocks
    table = SwitchTable(manifest, cost, actives)
    for report in (table.report(DeployMode.SPLIT_ONLY, "wide", "narrow"),
                   execute_switch(state, "wide", "narrow", table)[1]):
        assert report.bytes_disk_to_cpu == 0
        assert report.bytes_cpu_to_gpu == 0
        assert report.latency_ms == 0.0


@criterion(7, "budget safety over 10,000 randomized operation sequences")
def test_budget_safety_10k_sequences():
    for seed in range(10_000):
        run_random_ops(seed, ops=8)


@criterion(8, "byte-identical outputs for repeated replay and compare runs")
def test_determinism_byte_identical(driving_dir, tmp_path):
    config = str(driving_dir / "config.json")
    for i in ("a", "b"):
        assert main(["replay", "--config", config,
                     "--out-dir", str(tmp_path / f"replay_{i}")]) == 0
        assert main(["compare", "--config", config,
                     "--out-dir", str(tmp_path / f"compare_{i}")]) == 0
    report_names = ["switches.jsonl", "summary.csv", "jaccard.csv",
                    "config.echo.json"]
    for name in report_names:
        assert (tmp_path / "replay_a" / name).read_bytes() \
            == (tmp_path / "replay_b" / name).read_bytes()
    for mode in DeployMode:
        for name in report_names:
            a = tmp_path / "compare_a" / mode.value / name
            b = tmp_path / "compare_b" / mode.value / name
            assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "compare_a" / "compare.csv").read_bytes() \
        == (tmp_path / "compare_b" / "compare.csv").read_bytes()

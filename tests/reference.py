"""Independent reference implementations the fast paths are checked against.

The brute-force routines re-derive selection semantics without sharing
code with :mod:`switchsim.sparsity`; they exist to validate the fast path
on small instances. :func:`reference_select` is the selector that scores
every candidate removal exactly, at any size, to check the estimating
:mod:`switchsim.sparsity` selector result for result.
:func:`reference_switch` recomputes a switch's sets and per-block link
costs from scratch, to check the tabled
:meth:`switchsim.switching.SwitchTable.report` and
:func:`switchsim.switching.execute_switch`, and to switch in
``reference_replay``; :func:`reference_device_bytes` is the device-budget
check both make, by their own sum.
:func:`reference_markov_log` and :func:`reference_load_task_log` are the
per-step sampler and the per-line log reader that
:func:`switchsim.synthetic.gen_markov_log` and
:func:`switchsim.transitions.load_task_log` replace.
:func:`reference_fit_transition_model` is the three-step count, normalize
and rank pipeline that the one-pass
:func:`switchsim.transitions.fit_transition_model` replaces.
"""
from __future__ import annotations

import itertools
import math
import random
from pathlib import Path
from typing import Mapping, Sequence

from switchsim.block_store import CacheState, ModelManifest
from switchsim.errors import BudgetExceededError, ConfigError, read_text
from switchsim.sparsity import MetricOracle, SelectionResult, TaskSpec
from switchsim.switching import CostModel, DeployMode, SwitchReport
from switchsim.transitions import TransitionModel

REPLAY_MAX_BLOCKS = 16
EXHAUSTIVE_MAX_BLOCKS = 12


def brute_force_greedy_replay(oracle: MetricOracle, retention_ratio: float,
                              max_remove: int,
                              shared_pool: frozenset[int] = frozenset()) -> frozenset[int]:
    """Re-derive the greedy removal semantics by per-step enumeration.

    Deliberately shares no code with the production selector: every step
    rebuilds the full candidate table, sorts it, and applies the pool
    preference and tie-break by explicit ordering. Guarded to small
    instances; this is an equivalence oracle, not an algorithm.
    """
    n = oracle.num_blocks
    if n > REPLAY_MAX_BLOCKS:
        raise ValueError(f"replay oracle limited to {REPLAY_MAX_BLOCKS} blocks, got {n}")
    floor = retention_ratio * oracle.score(frozenset(range(n)))
    removed: list[int] = []
    while len(removed) < max_remove:
        remaining = [k for k in range(n) if k not in removed]
        table = [(j, oracle.score(frozenset(k for k in remaining if k != j)))
                 for j in remaining]
        ok = [row for row in table if row[1] >= floor]
        if not ok:
            break
        preferred = [row for row in ok if row[0] in shared_pool]
        ranked = sorted(preferred if preferred else ok,
                        key=lambda row: (-row[1], row[0]))
        removed.append(ranked[0][0])
    return frozenset(removed)


def reference_select(task: TaskSpec, oracle: MetricOracle,
                     shared_pool: frozenset[int]) -> SelectionResult:
    """Greedy selection that scores every candidate of every step exactly.

    Same semantics and bookkeeping as the production selector, with one
    ``oracle.score`` call per candidate per step; the two must agree on
    every field of the result.
    """
    n = oracle.num_blocks
    calls = 1
    s_full = oracle.full_score
    threshold = task.retention_ratio * s_full
    skipped: set[int] = set()
    order: list[int] = []
    current = s_full
    for _ in range(task.max_remove):
        active = frozenset(range(n)) - skipped
        feasible: list[tuple[int, float]] = []
        for j in sorted(active):
            s_j = oracle.score(active - {j})
            calls += 1
            if s_j >= threshold:
                feasible.append((j, s_j))
        if not feasible:
            break
        pooled = [(j, s) for j, s in feasible if j in shared_pool]
        pick = pooled if pooled else feasible
        # Highest score wins; equal scores resolve to the lowest block id.
        best_j, best_s = max(pick, key=lambda js: (js[1], -js[0]))
        skipped.add(best_j)
        order.append(best_j)
        current = best_s
    return SelectionResult(
        skipped=frozenset(skipped),
        final_score=current,
        oracle_calls=calls,
        removal_order=tuple(order),
    )


def brute_force_best_feasible(oracle: MetricOracle, retention_ratio: float,
                              n_remove: int) -> frozenset[int]:
    """Exhaustively find the feasible skip set of size <= n_remove with top score.

    Ties resolve to the lexicographically smallest sorted set. Used to
    measure the greedy optimality gap; greedy equality is never asserted.
    """
    n = oracle.num_blocks
    if n > EXHAUSTIVE_MAX_BLOCKS:
        raise ValueError(
            f"exhaustive search limited to {EXHAUSTIVE_MAX_BLOCKS} blocks, got {n}")
    everything = frozenset(range(n))
    floor = retention_ratio * oracle.score(everything)
    best: tuple[int, ...] | None = None
    best_score = float("-inf")
    for size in range(0, min(n_remove, n) + 1):
        for combo in itertools.combinations(range(n), size):
            s = oracle.score(everything - frozenset(combo))
            if s < floor:
                continue
            if best is None or s > best_score or (s == best_score and combo < best):
                best, best_score = combo, s
    return frozenset(best or ())


def enumerate_table_entries(oracle: MetricOracle, num_blocks: int) -> list[dict]:
    """Serialize an oracle over all subsets into table-oracle JSON rows."""
    if num_blocks > EXHAUSTIVE_MAX_BLOCKS:
        raise ValueError(
            f"table enumeration limited to {EXHAUSTIVE_MAX_BLOCKS} blocks")
    rows = []
    for size in range(num_blocks + 1):
        for combo in itertools.combinations(range(num_blocks), size):
            active = frozenset(combo)
            rows.append({"active_blocks": sorted(active),
                         "score": oracle.score(active)})
    return rows


def reference_device_bytes(manifest: ModelManifest, target: frozenset[int],
                           gpu_budget: int) -> int:
    """The bytes of the device set ``target``, summed block by block;
    raises :class:`BudgetExceededError` when they exceed ``gpu_budget``."""
    target_bytes = sum(manifest.block_sizes[b] for b in target)
    if target_bytes > gpu_budget:
        raise BudgetExceededError("gpu", target_bytes - gpu_budget)
    return target_bytes


def reference_switch(state: CacheState, from_task: str, to_task: str,
                     mode: DeployMode, skipped: Mapping[str, frozenset[int]],
                     cost: CostModel, manifest: ModelManifest, gpu_budget: int
                     ) -> tuple[CacheState, SwitchReport]:
    """One switch with every set and per-block link cost rebuilt on the spot.

    Takes each task's skip set and derives the active set itself, in every
    mode on a :class:`CacheState`, and refuses an incoming target over
    ``gpu_budget`` bytes with :func:`reference_device_bytes`. Same semantics as
    :meth:`switchsim.switching.SwitchTable.report` in the host-free modes
    and :func:`switchsim.switching.execute_switch` in full_method, whose
    caller refuses an over-budget target with
    :func:`switchsim.block_store.check_device`; each leg's milliseconds are
    ``math.fsum`` of its blocks' costs, so they agree exactly.
    """
    mode = DeployMode(mode)
    n = manifest.num_blocks
    if mode is DeployMode.MONOLITHIC:
        target = manifest.all_blocks
    else:
        for task in (from_task, to_task):
            if task not in skipped:
                raise ConfigError(f"no skip set for task {task!r}")
        target = frozenset(range(n)) - skipped[to_task]
    target_bytes = reference_device_bytes(manifest, target, gpu_budget)
    new_state = state._replace(gpu_resident=target)

    if mode.is_split:
        need = target - state.gpu_resident
        prestaged = need & frozenset(state.cpu_lru) if mode is DeployMode.FULL_METHOD \
            else frozenset()
        disk_leg = need - prestaged
        gpu_leg = need
        reused = len(target & state.gpu_resident)
        init = 0.0
    else:
        disk_leg = gpu_leg = target
        prestaged = frozenset()
        reused = 0
        init = cost.monolithic_init_ms

    sizes = manifest.block_sizes
    latency = (init
               + math.fsum(cost.disk_ms(sizes[b]) for b in disk_leg)
               + math.fsum(cost.gpu_ms(sizes[b]) for b in gpu_leg))
    report = SwitchReport(
        from_task=from_task,
        to_task=to_task,
        mode=mode.value,
        latency_ms=latency,
        bytes_disk_to_cpu=manifest.bytes_of(disk_leg),
        bytes_cpu_to_gpu=manifest.bytes_of(gpu_leg),
        blocks_reused=reused,
        blocks_fetched=len(disk_leg) if mode.is_split else len(gpu_leg),
        blocks_prestaged=len(prestaged),
        gpu_resident_bytes_after=target_bytes,
    )
    return new_state, report


def reference_markov_log(seed: int, length: int, task_ids: list[str],
                         pair_bias: dict[tuple[str, str], float] | None = None
                         ) -> list[str]:
    """The chain sampled with ``Random.choices``, its weights rebuilt per step."""
    if length <= 0:
        return []
    rng = random.Random(seed)
    bias = pair_bias or {}
    current = task_ids[0]
    out = [current]
    for _ in range(length - 1):
        others = [t for t in task_ids if t != current]
        weights = [bias.get((current, t), 1.0) for t in others]
        current = rng.choices(others, weights=weights, k=1)[0]
        out.append(current)
    return out


def reference_load_task_log(path: Path | str) -> list[str]:
    """The task log read line by line."""
    entries = []
    for raw in read_text(path).split("\n"):
        line = raw.strip()
        if not line:
            continue
        entries.append(line.split(",")[-1].strip() if "," in line else line)
    return entries


def reference_fit_transition_model(entries: Sequence[str], k: int = 2) -> TransitionModel:
    """The model counted, normalized and ranked in three separate steps."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    # Step 1: adjacent non-self pairs counted.
    counts: dict[tuple[str, str], int] = {}
    for a, b in zip(entries, entries[1:]):
        if a != b:
            counts[(a, b)] = counts.get((a, b), 0) + 1
    # Step 2: row totals in a pass of their own, then every count normalized.
    row_totals: dict[str, int] = {}
    for (a, _b), n in counts.items():
        row_totals[a] = row_totals.get(a, 0) + n
    probs = {(a, b): n / row_totals[a] for (a, b), n in counts.items()}
    # Step 3: each task's row filtered out of every pair and sorted on its own.
    successors = {}
    for task in sorted({a for a, _b in counts}):
        row = sorted(((b, p) for (a, b), p in probs.items() if a == task),
                     key=lambda bp: (-bp[1], bp[0]))
        successors[task] = tuple(b for b, _p in row[:k])
    return TransitionModel(counts=counts, probs=probs, successors=successors, k=k)

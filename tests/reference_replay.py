"""The replay loop without its step memo: every trace step is computed.

It is the reference that the memoized ``switchsim.replay._replay`` is
checked against. Each layer is called from its own module, so a test that
patches the names ``switchsim.replay`` looks up leaves this loop alone.
"""
from __future__ import annotations

from typing import Mapping

from switchsim.block_store import CacheState, TierAssignment, load_to_gpu
from switchsim.errors import ReplayError, SwitchSimError
from switchsim.prefetch import block_usefulness, execute_prefetch, plan_prefetch
from switchsim.replay import ReplayReport, Scenario, _aggregate
from switchsim.sparsity import SelectionResult
from switchsim.switching import DeployMode, SwitchReport, SwitchTable, execute_switch
from switchsim.transitions import TransitionModel, assign_tiers


def reference_replay(scenario: Scenario, mode: DeployMode,
                     selections: Mapping[str, SelectionResult],
                     model: TransitionModel,
                     steps: list[tuple[str, str, CacheState]] | None = None
                     ) -> ReplayReport:
    """Replay the trace one step at a time.

    When ``steps`` is given, the key of every step, (current task, next
    task, state before the step), is appended to it in trace order.
    """
    config = scenario.config
    manifest = scenario.manifest
    cost = scenario.cost
    n = manifest.num_blocks
    active = {tid: frozenset(range(n)) - r.skipped for tid, r in selections.items()}
    table = SwitchTable(manifest, cost, active)
    tiering: dict[str, tuple[TierAssignment, dict[int, float], frozenset[int]]] = {}
    state = CacheState(gpu_budget_bytes=config.gpu_budget_bytes,
                       cpu_budget_bytes=config.cpu_budget_bytes)
    switches: list[SwitchReport] = []
    trace = scenario.trace
    if trace:
        first = trace[0]
        try:
            state = load_to_gpu(manifest, state, table.target(mode, first))
        except SwitchSimError as exc:
            raise ReplayError(str(exc), position=0) from exc
        current = first
        for pos in range(1, len(trace)):
            task = trace[pos]
            if steps is not None:
                steps.append((current, task, state))
            try:
                if mode is DeployMode.FULL_METHOD:
                    if current not in tiering:
                        tiers = assign_tiers(current, active, model)
                        useful = block_usefulness(current, model, active)
                        tiering[current] = (tiers, useful, tiers.runtime | tiers.preload)
                    tiers, useful, protected = tiering[current]
                    plan = plan_prefetch(tiers, useful, state, manifest)
                    state, _staged, _moved = execute_prefetch(
                        plan, state, config.compute_window_ms, cost, manifest,
                        protected=protected, next_task_probs=useful,
                    )
                if task != current:
                    state, report = execute_switch(state, current, task, mode, table)
                    switches.append(report)
                    current = task
            except SwitchSimError as exc:
                raise ReplayError(str(exc), position=pos) from exc
    return _aggregate(mode, scenario, selections, switches)

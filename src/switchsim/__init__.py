"""Block-granular multi-task sparsity and task-switch latency simulator."""

from .block_store import (CacheState, ModelManifest, TierAssignment, evict, load_to_gpu,
                          stage_to_cpu)
from .errors import (BudgetExceededError, ConfigError, LogParseError, ManifestError,
                     OracleError, ReplayError, SwitchSimError)
from .prefetch import PlanEntry, PrefetchPlan, execute_prefetch, plan_prefetch
from .reference import (SyntheticInstance, brute_force_best_feasible,
                        brute_force_greedy_replay, gen_instance, gen_markov_log)
from .replay import (ReplayReport, ScenarioConfig, compare_modes, emit_reports,
                     run_replay, write_compare_csv)
from .sparsity import (AdditiveOracle, MetricOracle, SelectionResult, TableOracle,
                       TaskSpec, aligned_skip_select, build_all_tasks,
                       greedy_skip_select, jaccard)
from .switching import (CostModel, DeployMode, SwitchReport, SwitchTable,
                        calibrate_uniform_block_bytes, execute_switch)
from .transitions import (TransitionModel, assign_tiers, fit_transition_model,
                          ingest_log, load_task_log, top_k_successors,
                          transition_probs)
from .workloads import default_cost_model, write_driving_scenario

__version__ = "0.1.0"

"""Command-line front end: select, estimate, replay, and compare.

Exit codes: 0 on success, 2 for configuration problems, 3 for selection
or oracle failures, 4 for replay-time failures.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, ManifestError, OracleError, SwitchSimError, read_json
from .block_store import ModelManifest
from .replay import ScenarioConfig, compare_modes, emit_reports, run_replay, write_compare_csv
from .reference import gen_instance
from .sparsity import (build_all_tasks, load_table_oracles, load_task_specs,
                       selection_report)
from .switching import DeployMode
from .transitions import fit_transition_model, load_task_log

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SELECTION = 3
EXIT_REPLAY = 4


def _write_json(doc, out: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if out is None or out == "-":
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _cmd_select(args: argparse.Namespace) -> int:
    tasks = load_task_specs(args.tasks)
    if args.manifest:
        num_blocks = ModelManifest.load(args.manifest).num_blocks
    elif args.num_blocks is None:
        raise ConfigError("select needs --num-blocks or --manifest")
    elif args.num_blocks < 1:
        raise ConfigError(f"--num-blocks must be >= 1, got {args.num_blocks}")
    else:
        num_blocks = args.num_blocks
    if args.oracle_table:
        oracles = load_table_oracles(args.oracle_table, tasks, num_blocks)
    else:
        if args.seed is None:
            raise ConfigError("--seed is mandatory for synthetic oracles")
        try:
            instance = gen_instance(args.seed, num_blocks, len(tasks), args.correlation)
        except ValueError as exc:
            raise ConfigError(f"bad synthetic oracle: {exc}") from exc
        oracles = {t.task_id: instance.oracle(i) for i, t in enumerate(tasks)}
    results = build_all_tasks(tasks, oracles, align=not args.independent)
    _write_json(selection_report(results), args.out)
    return EXIT_OK


def _cmd_estimate(args: argparse.Namespace) -> int:
    log = load_task_log(args.log)
    _write_json(fit_transition_model(log, k=args.k).to_json(), args.out)
    return EXIT_OK


def _load_config_with_overrides(args: argparse.Namespace) -> ScenarioConfig:
    path = Path(args.config)
    doc = read_json(path)
    for key in ("manifest", "tasks", "log", "trace", "cost_model"):
        value = getattr(args, key.replace("-", "_"), None)
        if value is not None:
            doc[key] = value
    for key in ("gpu_budget_bytes", "cpu_budget_bytes", "k", "compute_window_ms"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    if getattr(args, "mode", None) is not None:
        doc["mode"] = args.mode
    if args.seed is not None or args.correlation is not None:
        oracle = dict(doc.get("oracle") or {"kind": "synthetic"})
        if args.seed is not None:
            oracle["seed"] = args.seed
        if args.correlation is not None:
            oracle["correlation"] = args.correlation
        doc["oracle"] = oracle
    return ScenarioConfig.from_dict(doc, base_dir=path.parent)


def _cmd_replay(args: argparse.Namespace) -> int:
    config = _load_config_with_overrides(args)
    report = run_replay(config)
    paths = emit_reports(report, args.out_dir)
    mean = f"{report.mean_latency_ms:.3f} ms" if report.mean_latency_ms is not None \
        else "n/a"
    print(f"{report.mode}: {len(report.order)} switches, mean latency {mean}")
    print(f"wrote {len(paths)} files under {args.out_dir}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config_with_overrides(args)
    reports = compare_modes(config)
    out_root = Path(args.out_dir)
    for mode, report in reports.items():
        emit_reports(report, out_root / mode.value)
        mean = f"{report.mean_latency_ms:.3f} ms" if report.mean_latency_ms is not None \
            else "n/a"
        print(f"{mode.value}: {len(report.order)} switches, mean latency {mean}")
    write_compare_csv(reports, out_root / "compare.csv")
    print(f"wrote per-mode reports and compare.csv under {out_root}")
    return EXIT_OK


def _add_override_flags(parser: argparse.ArgumentParser, with_mode: bool) -> None:
    parser.add_argument("--config", required=True, help="scenario config JSON")
    parser.add_argument("--out-dir", required=True, help="directory for reports")
    if with_mode:
        parser.add_argument("--mode", choices=[m.value for m in DeployMode])
    parser.add_argument("--manifest")
    parser.add_argument("--tasks")
    parser.add_argument("--log")
    parser.add_argument("--trace")
    parser.add_argument("--cost-model", dest="cost_model")
    parser.add_argument("--gpu-budget-bytes", type=int, dest="gpu_budget_bytes")
    parser.add_argument("--cpu-budget-bytes", type=int, dest="cpu_budget_bytes")
    parser.add_argument("--k", type=int)
    parser.add_argument("--compute-window-ms", type=float, dest="compute_window_ms")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--correlation", type=float)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="switchsim",
        description="Block-granular multi-task sparsity and task-switch simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_select = sub.add_parser("select", help="build skip sets only")
    p_select.add_argument("--tasks", required=True)
    p_select.add_argument("--num-blocks", type=int, dest="num_blocks")
    p_select.add_argument("--manifest")
    p_select.add_argument("--oracle-table", dest="oracle_table")
    p_select.add_argument("--seed", type=int)
    p_select.add_argument("--correlation", type=float, default=0.7)
    p_select.add_argument("--independent", action="store_true",
                          help="select each task without shared-pool alignment")
    p_select.add_argument("--out", default=None)
    p_select.set_defaults(func=_cmd_select)

    p_estimate = sub.add_parser("estimate", help="estimate the transition model only")
    p_estimate.add_argument("--log", required=True)
    p_estimate.add_argument("--k", type=int, default=2)
    p_estimate.add_argument("--out", default=None)
    p_estimate.set_defaults(func=_cmd_estimate)

    p_replay = sub.add_parser("replay", help="replay a trace under one mode")
    _add_override_flags(p_replay, with_mode=True)
    p_replay.set_defaults(func=_cmd_replay)

    p_compare = sub.add_parser("compare", help="replay a trace under all four modes")
    _add_override_flags(p_compare, with_mode=False)
    p_compare.set_defaults(func=_cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ManifestError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OracleError as exc:
        print(f"selection error: {exc}", file=sys.stderr)
        return EXIT_SELECTION
    except SwitchSimError as exc:
        print(f"replay error: {exc}", file=sys.stderr)
        return EXIT_REPLAY


if __name__ == "__main__":
    sys.exit(main())

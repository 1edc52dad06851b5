"""Command-line front end: select, estimate, replay, and compare.

Exit codes: 0 on success, 2 for configuration problems and for output
paths that cannot be written (the message names the path), 3 for
selection or oracle failures, 4 for replay-time failures.

:func:`main` builds the argument parser once per process, on its first
call, and reuses it, since building it costs many times what parsing
with it does. Parsing leaves the parser as it was: no action appends to
or extends a value and no default is mutable. So a caller that runs
many commands in one process gets what separate processes would.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .errors import (ConfigError, ManifestError, OracleError, SwitchSimError, read_json,
                     write_text)
from .block_store import ModelManifest
from .replay import ReplayReport, compare_modes, replay_scenario
from .reports import emit_reports, write_compare_csv
from .scenario import (FLOAT_KEYS, INT_KEYS, PATH_KEYS, ScenarioConfig, build_oracles,
                       load_scenario)
from .sparsity import build_all_tasks, load_task_specs, selection_report
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
        write_text(out, text)


def _oracle_flags(args: argparse.Namespace) -> dict:
    """The synthetic-oracle keys that --seed and --correlation set; an unset
    flag leaves its key to the spec (and --correlation to its default)."""
    return {key: getattr(args, key) for key in ("seed", "correlation")
            if getattr(args, key) is not None}


def _cmd_select(args: argparse.Namespace) -> int:
    tasks = load_task_specs(args.tasks)
    if args.manifest:
        if args.num_blocks is not None:
            raise ConfigError("select takes --num-blocks or --manifest, not both")
        num_blocks = ModelManifest.load(args.manifest).num_blocks
    elif args.num_blocks is None:
        raise ConfigError("select needs --num-blocks or --manifest")
    elif args.num_blocks < 1:
        raise ConfigError(f"--num-blocks must be >= 1, got {args.num_blocks}")
    else:
        num_blocks = args.num_blocks
    # A table spec refuses the synthetic keys, and a synthetic one requires a seed.
    kind = {"kind": "table", "path": args.oracle_table} if args.oracle_table \
        else {"kind": "synthetic"}
    spec = {**kind, **_oracle_flags(args)}
    oracles = build_oracles(spec, num_blocks, tasks)
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
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: scenario config must be a JSON object")
    # A path flag names a file from the working directory; only the
    # config's own paths resolve against the config's directory.
    for key in PATH_KEYS:
        value = getattr(args, key)
        if value is not None:
            doc[key] = str(Path(value).absolute())
    # compare has no --mode.
    for key in (*INT_KEYS, *FLOAT_KEYS, "mode"):
        value = getattr(args, key, None)
        if value is not None:
            doc[key] = value
    flags = _oracle_flags(args)
    oracle = doc.get("oracle") or {"kind": "synthetic"}
    # An oracle that is not an object is left for ScenarioConfig.from_dict to refuse.
    if flags and isinstance(oracle, dict):
        doc["oracle"] = {**oracle, **flags}
    return ScenarioConfig.from_dict(doc, base_dir=path.parent)


def _print_mode_line(report: ReplayReport) -> None:
    mean = f"{report.mean_latency_ms:.3f} ms" if report.mean_latency_ms is not None \
        else "n/a"
    print(f"{report.mode}: {len(report.order)} switches, mean latency {mean}")


def _cmd_replay(args: argparse.Namespace) -> int:
    config = _load_config_with_overrides(args)
    if config.mode is None:
        raise ConfigError("replay needs a mode (set it in the config or via --mode)")
    report = replay_scenario(load_scenario(config), (config.mode,))[config.mode]
    paths = emit_reports(report, args.out_dir)
    _print_mode_line(report)
    print(f"wrote {len(paths)} files under {args.out_dir}")
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    config = _load_config_with_overrides(args)
    reports = compare_modes(config)
    out_root = Path(args.out_dir)
    for mode, report in reports.items():
        emit_reports(report, out_root / mode.value)
        _print_mode_line(report)
    write_compare_csv(reports, out_root / "compare.csv")
    print(f"wrote per-mode reports and compare.csv under {out_root}")
    return EXIT_OK


def _add_override_flags(parser: argparse.ArgumentParser, with_mode: bool) -> None:
    parser.add_argument("--config", required=True, help="scenario config JSON")
    parser.add_argument("--out-dir", required=True, help="directory for reports")
    if with_mode:
        parser.add_argument("--mode", choices=[m.value for m in DeployMode])
    # One flag per config key but ``oracle``, whose seed and correlation
    # have their own flags.
    for keys, kind in ((PATH_KEYS, None), (INT_KEYS, int), (FLOAT_KEYS, float)):
        for key in keys:
            parser.add_argument("--" + key.replace("_", "-"), type=kind, dest=key)
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
    p_select.add_argument("--correlation", type=float)
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


_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
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
    except OSError as exc:
        # Reads raise ConfigError (``errors.read_text``), so this is a write.
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())

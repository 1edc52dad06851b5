"""Report files: a replay's switches.jsonl, summary.csv, jaccard.csv and
config.echo.json, and a compare's compare.csv.

Each file is a pure function of the reports it is given, so identical
reports write identical bytes. A file is opened once, in binary mode, and
gets the UTF-8 bytes the standard writers give:
``csv.writer(lineterminator="\\n")`` for the CSVs and ``json.dumps`` for
``config.echo.json`` and for each ``switches.jsonl`` line, one line per
switch in trace order.
"""
from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _json_str
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import counted_fsum, write_text
from .replay import ReplayReport
from .switching import DeployMode, SwitchReport

__all__ = ["emit_reports", "write_compare_csv"]


# The most bytes of switches.jsonl lines joined per write, unless one line
# is longer.
_WRITE_BYTES = 32 * 1024

# One switches.jsonl line: a record's fields in order, as ``json.dumps``
# writes the record's dict (``", "`` and ``": "`` separators).
_SWITCH_LINE = "{{" + ", ".join(f'"{name}": {{}}' for name in SwitchReport._fields) + "}}\n"


def _json_float(value: float) -> str:
    """``value`` as ``json.dumps`` writes a float."""
    if value != value:
        return "NaN"
    if value == math.inf:
        return "Infinity"
    if value == -math.inf:
        return "-Infinity"
    return float.__repr__(value)


def _switch_line(r: SwitchReport) -> bytes:
    """The record's switches.jsonl line: the bytes of ``json.dumps`` of its
    fields, in order, with the latency rounded to 3 decimals, and a line
    break. Strings are escaped to ASCII, so the text is its UTF-8 bytes."""
    return _SWITCH_LINE.format(
        _json_str(r.from_task), _json_str(r.to_task), _json_str(r.mode),
        _json_float(round(r.latency_ms, 3)), *map(int.__repr__, r[4:])).encode()


def _fmt_ms(value: float) -> str:
    return f"{value:.3f}"


def _csv_field(value: object) -> str:
    text = str(value)
    if '"' in text:
        return '"' + text.replace('"', '""') + '"'
    if "," in text or "\n" in text or "\r" in text:
        return '"' + text + '"'
    return text


def _csv_text(rows: Iterable[Sequence[object]]) -> str:
    r"""The rows as ``csv.writer(lineterminator="\n")`` writes them.

    Fields are strings, ints and floats, as ``str`` gives them. A field
    with a quote, a comma or a line break is quoted and its quotes doubled,
    and a row of one empty field is ``""``. A ``\r`` is quoted as CPython
    3.13's writer quotes it (3.10-3.12 leave it bare); no task id holds
    one. The C writer allocates a 32,768-character buffer (128 KiB) on its
    first row, where a report's rows need a few hundred bytes.
    """
    lines = []
    for row in rows:
        line = ",".join(map(_csv_field, row))
        lines.append(line if line or len(row) != 1 else '""')
    lines.append("")
    return "\n".join(lines)


def _lookup(mapping: Mapping, keys: Sequence) -> tuple:
    """``tuple(mapping[k] for k in keys)``, the lookups done in C by one
    ``operator.itemgetter`` call; a missing key raises ``KeyError``.

    ``itemgetter`` cannot be built without a key and returns a bare item
    for one key, so fewer than two keys are looked up in Python. Any
    sequence of keys, an ``array`` of indices included, is unpacked into
    the ``itemgetter`` call.
    """
    if len(keys) < 2:
        return tuple([mapping[k] for k in keys])
    return itemgetter(*keys)(mapping)


def emit_reports(report: ReplayReport, out_dir: Path | str) -> list[Path]:
    """Write switches.jsonl, summary.csv, jaccard.csv, and config.echo.json."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    switches_path = out / "switches.jsonl"
    # One encoded line per distinct record, joined in batches of at most
    # ``_WRITE_BYTES`` (or of one longer line): one write per batch, and
    # memory bounded by a batch, not by the file.
    lines = [_switch_line(r) for r in report.records]
    order = report.order
    per_write = max(1, _WRITE_BYTES // max(map(len, lines), default=1))
    with open(switches_path, "wb") as fh:
        for start in range(0, len(order), per_write):
            fh.write(b"".join(_lookup(lines, order[start:start + per_write])))

    summary: list[list[object]] = [["metric", "value"], ["mode", report.mode],
                                   ["num_switches", len(report.order)]]
    if report.order:
        summary += [["mean_latency_ms", _fmt_ms(report.mean_latency_ms)],
                    ["median_latency_ms", _fmt_ms(report.median_latency_ms)],
                    ["max_latency_ms", _fmt_ms(report.max_latency_ms)],
                    ["mean_gpu_resident_bytes", _fmt_ms(report.mean_gpu_resident_bytes)]]
    summary += [["total_bytes_disk_to_cpu", report.total_bytes_disk_to_cpu],
                ["total_bytes_cpu_to_gpu", report.total_bytes_cpu_to_gpu],
                ["prestage_hit_rate", f"{report.prestage_hit_rate:.6f}"]]
    summary_path = out / "summary.csv"
    write_text(summary_path, _csv_text(summary))

    jaccard = [["task_id", *report.task_ids]]
    jaccard += ([tid, *(f"{v:.6f}" for v in row)]
                for tid, row in zip(report.task_ids, report.jaccard_matrix))
    jaccard_path = out / "jaccard.csv"
    write_text(jaccard_path, _csv_text(jaccard))

    echo_path = out / "config.echo.json"
    write_text(echo_path, json.dumps(report.config_echo, indent=2, sort_keys=True) + "\n")
    return [switches_path, summary_path, jaccard_path, echo_path]


def write_compare_csv(reports: Mapping[DeployMode, ReplayReport],
                      path: Path | str) -> Path:
    """Side-by-side per-pair mean latency across the four modes."""
    path = Path(path)
    ordered_modes = list(DeployMode)
    # (from, to) -> mode -> [(latency, number of switches)] per distinct record.
    pair_lat: dict[tuple[str, str], dict[DeployMode, list[tuple[float, int]]]] = {}
    for mode in ordered_modes:
        report = reports[mode]
        for i, count in report.counts.items():
            s = report.records[i]
            pair = (s.from_task, s.to_task)
            rows = pair_lat.get(pair)
            if rows is None:
                rows = pair_lat[pair] = {m: [] for m in ordered_modes}
            rows[mode].append((s.latency_ms, count))

    def mean_ms(rows: list[tuple[float, int]]) -> str:
        # The exact sum is the per-switch fmean's fsum, in any order.
        n = sum(count for _, count in rows)
        return _fmt_ms(counted_fsum(rows) / n) if n else ""

    table: list[list[object]] = [["from_task", "to_task", "count",
                                  *(f"{m.value}_ms" for m in ordered_modes)]]
    for pair in sorted(pair_lat):
        rows = pair_lat[pair]
        count = sum(c for _, c in rows[ordered_modes[0]])
        table.append([pair[0], pair[1], count,
                      *(mean_ms(rows[m]) for m in ordered_modes)])
    totals = [
        _fmt_ms(reports[m].mean_latency_ms)
        if reports[m].mean_latency_ms is not None else ""
        for m in ordered_modes
    ]
    table.append(["ALL", "ALL", len(reports[ordered_modes[0]].order), *totals])
    write_text(path, _csv_text(table))
    return path

"""First-order task-transition statistics and priority-tier assignment.

One pass over a logged sequence counts adjacent task pairs and each
task's row total; the counts are then row-normalized into switch
probabilities, and one sort gives every task's top-K likely successors.
The module also maps blocks into three tiers: device-resident for the
running task, host-staging candidates for its likely successors, and
disk for the rest.

A task log is read once and mapped slice by slice: each slice of about
4 KiB ends at a line break, and its stripped, non-empty lines are mapped
through a dict seeded with the task ids, so a bare id is looked up in C
and every entry that names a task is the task's own id string.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError, LogParseError, read_text

__all__ = [
    "TransitionModel",
    "TierAssignment",
    "fit_transition_model",
    "assign_tiers",
    "load_task_log",
]


@dataclass(frozen=True)
class TierAssignment:
    """Priority tiers: ``runtime`` (level 1, device) and ``preload`` (level 2,
    host staging candidates). Every other block is level 3 (disk)."""

    runtime: frozenset[int]
    preload: frozenset[int]


@dataclass(frozen=True)
class TransitionModel:
    """Pair counts, row-normalized probabilities, and top-K successor lists."""

    counts: Mapping[tuple[str, str], int]
    probs: Mapping[tuple[str, str], float]
    successors: Mapping[str, tuple[str, ...]]
    k: int

    def successor_probs(self, task: str) -> dict[str, float]:
        """Probability of each top-K successor of ``task``."""
        return {t: self.probs[(task, t)] for t in self.successors.get(task, ())}

    def to_json(self) -> dict:
        nested_counts: dict[str, dict[str, int]] = {}
        for (a, b), n in sorted(self.counts.items()):
            nested_counts.setdefault(a, {})[b] = n
        nested_probs: dict[str, dict[str, float]] = {}
        for (a, b), p in sorted(self.probs.items()):
            nested_probs.setdefault(a, {})[b] = p
        return {
            "k": self.k,
            "counts": nested_counts,
            "probs": nested_probs,
            "successors": {t: list(s) for t, s in sorted(self.successors.items())},
        }


def fit_transition_model(entries: Sequence[str], k: int = 2,
                         known_tasks: Iterable[str] | None = None) -> TransitionModel:
    """Estimate counts, probabilities, and successor lists from one log.

    A task continuing is not a switch and loads nothing, so (t, t) pairs
    contribute no counts; a task with no outgoing switch gets no row. Each
    task's successors are its k most likely, ties broken by id. Unknown
    task ids raise with the 0-based log position.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    if known_tasks is not None:
        known = frozenset(known_tasks)
        if not known.issuperset(entries):
            pos, task = next((pos, task) for pos, task in enumerate(entries)
                             if task not in known)
            raise LogParseError(f"unknown task id {task!r}", position=pos)
    counts: dict[tuple[str, str], int] = {}
    totals: dict[str, int] = {}
    for pair in zip(entries, entries[1:]):
        if pair[0] != pair[1]:
            counts[pair] = counts.get(pair, 0) + 1
            totals[pair[0]] = totals.get(pair[0], 0) + 1
    probs = {pair: n / totals[pair[0]] for pair, n in counts.items()}
    ranked = sorted(probs, key=lambda pair: (pair[0], -probs[pair], pair[1]))
    successors = {task: tuple([b for _a, b in row][:k])
                  for task, row in groupby(ranked, key=itemgetter(0))}
    return TransitionModel(counts=counts, probs=probs, successors=successors, k=k)


def assign_tiers(current: str, active: Mapping[str, frozenset[int]],
                 model: TransitionModel) -> TierAssignment:
    """Partition blocks into runtime / pre-load / disk tiers.

    Level 1 is the running task's active set; Level 2 adds the blocks the
    top-K likely successors need beyond that; Level 3 is everything else.
    """
    if current not in active:
        raise ConfigError(f"no active set for current task {current!r}")
    level1 = active[current]
    level2: frozenset[int] = frozenset()
    for succ in model.successors.get(current, ()):
        if succ not in active:
            raise ConfigError(f"no active set for successor task {succ!r}")
        level2 |= active[succ]
    return TierAssignment(runtime=level1, preload=level2 - level1)


# Characters per slice of a task log: each slice ends at a line break, so
# only a slice's lines are ever held as separate strings.
_SLICE_CHARS = 4096


class _LogEntries(dict):
    """Maps a stripped, non-empty log line to its entry; seeded with the
    task ids, each mapped to itself.

    A seeded line is looked up in C. Any other line's entry is the field
    after its last comma, stripped, or the whole line without a comma;
    an entry that is a seeded id becomes the seeded string. Nothing is
    stored, so a log of distinct timestamped rows grows no table.
    """

    def __missing__(self, line: str) -> str:
        entry = line.rsplit(",", 1)[-1].strip() if "," in line else line
        return self.get(entry, entry)


def load_task_log(path: Path | str, task_ids: Iterable[str] = ()) -> list[str]:
    """Read a task log: newline-delimited ids, or CSV ``timestamp,task_id`` rows.

    An entry that names one of ``task_ids`` is that very string, so each
    id is one object however often the log names it; any other entry is
    kept as read. The text is read once and split slice by slice, so no
    list of the whole file's lines is built.
    """
    text = read_text(path)
    entries = _LogEntries((t, t) for t in task_ids)
    out: list[str] = []
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _SLICE_CHARS) + 1 or size
        out += map(entries.__getitem__,
                   filter(None, map(str.strip, text[start:end].split("\n"))))
        start = end
    return out

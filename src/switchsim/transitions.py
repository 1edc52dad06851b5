"""First-order task-transition statistics and priority-tier assignment.

Counts adjacent task pairs in logged sequences, row-normalizes them into
switch probabilities, extracts the top-K likely successors per task, and
maps blocks into three tiers: device-resident for the running task,
host-staging candidates for its likely successors, and disk for the rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .block_store import TierAssignment
from .errors import ConfigError, LogParseError, read_text

__all__ = [
    "TransitionModel",
    "ingest_log",
    "transition_probs",
    "top_k_successors",
    "fit_transition_model",
    "assign_tiers",
    "load_task_log",
]


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


def ingest_log(entries: Sequence[str],
               known_tasks: Iterable[str] | None = None) -> dict[tuple[str, str], int]:
    """Count adjacent task pairs, dropping self-transitions.

    A task continuing is not a switch and loads nothing, so (t, t) pairs
    contribute no counts. Unknown task ids raise with the 0-based log
    position.
    """
    known = frozenset(known_tasks) if known_tasks is not None else None
    if known is not None:
        for i, task in enumerate(entries):
            if task not in known:
                raise LogParseError(f"unknown task id {task!r}", position=i)
    counts: dict[tuple[str, str], int] = {}
    for a, b in zip(entries, entries[1:]):
        if a == b:
            continue
        counts[(a, b)] = counts.get((a, b), 0) + 1
    return counts


def transition_probs(counts: Mapping[tuple[str, str], int]
                     ) -> dict[tuple[str, str], float]:
    """Row-normalize counts; tasks with no outgoing counts get no row."""
    row_totals: dict[str, int] = {}
    for (a, _b), n in counts.items():
        row_totals[a] = row_totals.get(a, 0) + n
    return {
        (a, b): n / row_totals[a]
        for (a, b), n in counts.items()
        if row_totals[a] > 0
    }


def top_k_successors(probs: Mapping[tuple[str, str], float], task: str,
                     k: int) -> list[str]:
    """The k most likely successors of ``task``, ties broken lexicographically."""
    if k < 1:
        raise ConfigError("k must be >= 1")
    row = [(b, p) for (a, b), p in probs.items() if a == task]
    row.sort(key=lambda bp: (-bp[1], bp[0]))
    return [b for b, _p in row[:k]]


def fit_transition_model(entries: Sequence[str], k: int = 2,
                         known_tasks: Iterable[str] | None = None) -> TransitionModel:
    """Estimate counts, probabilities, and successor lists from one log."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    counts = ingest_log(entries, known_tasks=known_tasks)
    probs = transition_probs(counts)
    sources = sorted({a for a, _b in counts})
    successors = {t: tuple(top_k_successors(probs, t, k)) for t in sources}
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


def load_task_log(path: Path | str) -> list[str]:
    """Read a task log: newline-delimited ids, or CSV ``timestamp,task_id`` rows."""
    return [line.rsplit(",", 1)[-1].strip() if "," in line else line
            for line in map(str.strip, read_text(path).split("\n")) if line]

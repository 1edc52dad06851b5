"""First-order task-transition statistics and priority-tier assignment.

One pass over a logged sequence counts adjacent task pairs and each
task's row total; the counts are then row-normalized into switch
probabilities, and one sort gives every task's top-K likely successors.
The module also maps blocks into three tiers: device-resident for the
running task, host-staging candidates for its likely successors, and
disk for the rest.

A task log is read once and split slice by slice: each slice of about
4 KiB ends at a line break. ``load_task_log`` keeps every entry as read.
``load_task_indices`` maps each entry to its task's index in the same
pass, through a dict seeded with the task ids, so a bare id is looked up
in C, into an unsigned ``array`` of the narrowest typecode for the
number of tasks (``index_typecode``): one byte an entry for up to 256
tasks.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from itertools import chain, count, groupby
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError, read_text

__all__ = [
    "TransitionModel",
    "TierAssignment",
    "fit_transition_model",
    "assign_tiers",
    "load_task_log",
    "load_task_indices",
    "index_typecode",
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


def fit_transition_model(entries: Sequence[str], k: int = 2) -> TransitionModel:
    """Estimate counts, probabilities, and successor lists from one log.

    A task continuing is not a switch and loads nothing, so (t, t) pairs
    contribute no counts; a task with no outgoing switch gets no row. Each
    task's successors are its k most likely, ties broken by id. Entries
    are not checked against a task list; ``load_scenario`` does that.
    """
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
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


def _slices(text: str) -> Iterator[Iterable[str]]:
    """The text's stripped, non-empty lines, one iterator per slice of
    about ``_SLICE_CHARS`` characters that ends at a line break."""
    start, size = 0, len(text)
    while start < size:
        end = text.find("\n", start + _SLICE_CHARS) + 1 or size
        yield filter(None, map(str.strip, text[start:end].split("\n")))
        start = end


def _entry(line: str) -> str:
    """A stripped, non-empty line's entry: the field after its last comma,
    stripped, or the whole line without a comma."""
    return line.rsplit(",", 1)[-1].strip() if "," in line else line


class _TaskIndices(dict):
    """Maps a stripped, non-empty log line to the index of the task its
    entry names; seeded with each task id mapped to its index.

    A line whose entry names no task maps to 0 and clears ``known``.
    Nothing is stored, so a log of distinct timestamped rows grows no
    table.
    """

    known = True

    def __missing__(self, line: str) -> int:
        index = self.get(_entry(line))
        if index is None:
            self.known = False
            return 0
        return index


def index_typecode(size: int) -> str:
    """The narrowest unsigned ``array`` typecode that holds every index
    below ``size``: ``'B'`` up to 256, ``'H'`` up to 65,536, else ``'I'``."""
    return "B" if size <= 1 << 8 else "H" if size <= 1 << 16 else "I"


def load_task_log(path: Path | str) -> list[str]:
    """Read a task log: newline-delimited ids, or CSV ``timestamp,task_id`` rows.

    Every entry is kept as read. The text is read once and split slice by
    slice, so no list of the whole file's lines is built.
    """
    out: list[str] = []
    for lines in _slices(read_text(path)):
        out += map(_entry, lines)
    return out


def load_task_indices(path: Path | str, task_ids: Sequence[str]
                      ) -> tuple[array, tuple[int, str] | None]:
    """Read a task log as the index in ``task_ids`` of each entry's task.

    The log is read as :func:`load_task_log` reads it, and each slice's
    entries are mapped to indices in the same pass, into one ``array`` of
    ``index_typecode(len(task_ids))``: one byte an entry for up to 256
    tasks, built through ``bytes``. No list of the entries is built.

    Returns the indices and, when an entry names no task, the 0-based
    position and text of the first such entry, else ``None``; such an
    entry holds index 0, so the array has one item per entry either way.
    """
    text = read_text(path)
    index = _TaskIndices(zip(task_ids, count()))
    out = array(index_typecode(len(task_ids)))
    for lines in _slices(text):
        if out.itemsize == 1:
            # ``bytes`` fills from ints in C; ``array('B')`` would parse
            # each one through a format string.
            out.frombytes(bytes(map(index.__getitem__, lines)))
        else:
            out.extend(map(index.__getitem__, lines))
    if index.known:
        return out, None
    entries = map(_entry, chain.from_iterable(_slices(text)))
    return out, next((pos, entry) for pos, entry in enumerate(entries)
                     if entry not in index)

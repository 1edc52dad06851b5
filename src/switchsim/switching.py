"""Task-switch execution under a two-link cost model, in four deploy modes.

A switch moves whatever the incoming task needs over two sequential
links (disk -> host, host -> device). Monolithic-style modes reload a
whole checkpoint and pay a fixed reinitialization cost; split-storage
modes move only the differential set and patch the device incrementally.
After a successful switch the device holds exactly the incoming task's
active set (runtime blocks only); in monolithic mode it holds the whole
model. Dropping a device-resident block is free.

A switch starts from the outgoing task's target: the device holds
exactly what that task runs on. So in the three host-free modes
(monolithic, sparse_no_split, split_only) a switch's cost depends on the
mode and the (from, to) task pair alone, and :meth:`SwitchTable.report`
gives it without any cache state. Only full_method credits the blocks the
host cache already holds; :func:`execute_switch` runs its switches on a
:class:`CacheState` and refuses a device that does not hold the outgoing
task's target. A :class:`SwitchTable` holds what a replay's switches
share: each task's active set, per-block link costs, the split legs and
reloads of the pairs seen so far, and full_method's reports per host
credit.
Each link's milliseconds are the correctly rounded sum (``math.fsum``) of
its blocks' per-block costs, so a latency depends on the block sets
alone, not on the order a set iterates in.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import Mapping, NamedTuple

from .block_store import CacheState, ModelManifest, load_to_gpu
from .errors import ConfigError, SwitchSimError, as_float, check_keys, read_json

__all__ = [
    "DeployMode",
    "CostModel",
    "SwitchReport",
    "SwitchTable",
    "execute_switch",
    "calibrate_uniform_block_bytes",
]


class DeployMode(str, Enum):
    """Which loading strategy a replay exercises."""

    MONOLITHIC = "monolithic"
    SPARSE_NO_SPLIT = "sparse_no_split"
    SPLIT_ONLY = "split_only"
    FULL_METHOD = "full_method"

    @property
    def is_split(self) -> bool:
        return self in (DeployMode.SPLIT_ONLY, DeployMode.FULL_METHOD)


# Aliases for the per-switch mode tests: on CPython 3.11 a member lookup on
# the Enum class costs about ten times a global lookup.
_MONOLITHIC = DeployMode.MONOLITHIC
_FULL_METHOD = DeployMode.FULL_METHOD


@dataclass(frozen=True)
class CostModel:
    """Link bandwidths plus fixed per-block and reinitialization costs.

    Bandwidths are in MB/s (1 MB = 1e6 bytes); the reinitialization term
    applies only to modes that reload a monolithic checkpoint.
    """

    disk_to_cpu_mbps: float
    cpu_to_gpu_mbps: float
    per_block_fixed_ms: float = 0.0
    monolithic_init_ms: float = 0.0

    def __post_init__(self):
        # A bool is an int to Python, so True would run at 1 MB/s.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(f"{f.name} must be a number, got {value!r}")
        if not all(math.isfinite(v) and v > 0
                   for v in (self.disk_to_cpu_mbps, self.cpu_to_gpu_mbps)):
            raise ConfigError("bandwidths must be positive and finite")
        if not all(math.isfinite(v) and v >= 0
                   for v in (self.per_block_fixed_ms, self.monolithic_init_ms)):
            raise ConfigError("fixed costs must be non-negative and finite")

    def disk_ms(self, nbytes: int) -> float:
        """Transfer time for one block of ``nbytes`` over the disk->host link."""
        return nbytes / (self.disk_to_cpu_mbps * 1000.0) + self.per_block_fixed_ms

    def gpu_ms(self, nbytes: int) -> float:
        """Transfer time for one block of ``nbytes`` over the host->device link."""
        return nbytes / (self.cpu_to_gpu_mbps * 1000.0) + self.per_block_fixed_ms

    @classmethod
    def from_json(cls, doc: Mapping) -> "CostModel":
        check_keys(doc, frozenset(f.name for f in fields(cls)), "cost model document")
        try:
            # An absent key takes its field's default, and an absent key
            # without one fails the constructor, which names it.
            return cls(**{f.name: as_float(doc[f.name]) for f in fields(cls)
                          if f.name in doc})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad cost model document: {exc}") from exc

    @classmethod
    def load(cls, path: Path | str) -> "CostModel":
        return cls.from_json(read_json(path))

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


class SwitchReport(NamedTuple):
    """Latency breakdown and residency accounting for one task switch.

    A named tuple, so a replay that interns reports by value hashes and
    compares them in C.
    """

    from_task: str
    to_task: str
    mode: str
    latency_ms: float
    bytes_disk_to_cpu: int
    bytes_cpu_to_gpu: int
    blocks_reused: int
    blocks_fetched: int
    blocks_prestaged: int
    gpu_resident_bytes_after: int


class Transfer(NamedTuple):
    """Blocks crossing one link, with their summed milliseconds and bytes."""

    blocks: frozenset[int]
    ms: float
    nbytes: int


class SwitchLeg(NamedTuple):
    """The device leg of a split-mode switch from one task to another: the
    incoming task's target and its bytes, the blocks the device keeps, and
    the transfer of the blocks it lacks."""

    target: frozenset[int]
    target_bytes: int
    reused: int
    gpu: Transfer


class SwitchTable:
    """Per-replay switch constants and memos of switch legs and reports.

    Built once from a replay's manifest, cost model and per-task active
    sets. A split leg is kept per (from, to) pair, and a monolithic-style
    reload's transfers per target set, which is all they depend on. A
    full_method report is kept per (outgoing task, incoming task,
    prestaged blocks); two tasks may share an active set, so both tasks are
    part of the key.
    """

    def __init__(self, manifest: ModelManifest, cost: CostModel,
                 active: Mapping[str, frozenset[int]]):
        self.manifest = manifest
        self.cost = cost
        self.active = active
        self.disk_ms = tuple(cost.disk_ms(size) for size in manifest.block_sizes)
        self.gpu_ms = tuple(cost.gpu_ms(size) for size in manifest.block_sizes)
        self._legs: dict[tuple[str, str], SwitchLeg] = {}
        self._full_reports: dict[tuple, SwitchReport] = {}
        # Target set -> a whole-checkpoint reload's (gpu, disk) transfers.
        # A frozenset caches its hash, so a lookup hashes each target once.
        self._reloads: dict[frozenset[int], tuple[Transfer, Transfer]] = {}

    def _transfer(self, blocks: frozenset[int], per_block_ms: tuple[float, ...]
                 ) -> Transfer:
        return Transfer(blocks, math.fsum(map(per_block_ms.__getitem__, blocks)),
                        self.manifest.bytes_of(blocks))

    def target(self, mode: DeployMode, task: str) -> frozenset[int]:
        """What the device holds while ``task`` runs: the whole model in
        monolithic mode, the task's active set in every other mode."""
        return self.manifest.all_blocks if mode is _MONOLITHIC else self.active[task]

    def _check_tasks(self, from_task: str, to_task: str) -> None:
        """Raise :class:`ConfigError` unless both tasks have an active set."""
        for task in (from_task, to_task):
            if task not in self.active:
                raise ConfigError(f"no active set for task {task!r}")

    def _leg(self, from_task: str, to_task: str) -> SwitchLeg:
        """The pair's split leg; both tasks must have an active set."""
        leg = self._legs.get((from_task, to_task))
        if leg is None:
            source, target = self.active[from_task], self.active[to_task]
            leg = self._legs[from_task, to_task] = SwitchLeg(
                target, self.manifest.bytes_of(target), len(target & source),
                self._transfer(target - source, self.gpu_ms))
        return leg

    def _split_report(self, mode: DeployMode, from_task: str, to_task: str,
                      leg: SwitchLeg, prestaged: frozenset[int]) -> SwitchReport:
        """A split-mode report: the blocks the device lacks cross the disk
        link unless ``prestaged`` holds them, and the device link always."""
        disk = self._transfer(leg.gpu.blocks - prestaged, self.disk_ms)
        return SwitchReport(
            from_task=from_task, to_task=to_task, mode=mode.value,
            latency_ms=disk.ms + leg.gpu.ms,
            bytes_disk_to_cpu=disk.nbytes, bytes_cpu_to_gpu=leg.gpu.nbytes,
            blocks_reused=leg.reused, blocks_fetched=len(disk.blocks),
            blocks_prestaged=len(prestaged), gpu_resident_bytes_after=leg.target_bytes)

    def report(self, mode: DeployMode, from_task: str, to_task: str) -> SwitchReport:
        """A host-free switch's report; outside monolithic mode, raises
        :class:`ConfigError` when either task has no active set.

        * ``monolithic``: full-model reload, reinitialization plus all
          blocks over both links, no reuse.
        * ``sparse_no_split``: reloads the incoming task's whole sparse
          checkpoint (reinitialization plus its active set over both
          links), no reuse.
        * ``split_only``: moves only the blocks the device is missing,
          over both links, with no reinitialization.
        """
        if mode is not _MONOLITHIC:
            self._check_tasks(from_task, to_task)
        if mode.is_split:
            return self._split_report(mode, from_task, to_task,
                                      self._leg(from_task, to_task), frozenset())
        target = self.target(mode, to_task)
        reload = self._reloads.get(target)
        if reload is None:
            reload = self._reloads[target] = (
                self._transfer(target, self.gpu_ms), self._transfer(target, self.disk_ms))
        gpu, disk = reload
        return SwitchReport(
            from_task=from_task, to_task=to_task, mode=mode.value,
            latency_ms=self.cost.monolithic_init_ms + disk.ms + gpu.ms,
            bytes_disk_to_cpu=disk.nbytes, bytes_cpu_to_gpu=gpu.nbytes,
            blocks_reused=0, blocks_fetched=len(disk.blocks),
            blocks_prestaged=0, gpu_resident_bytes_after=gpu.nbytes)


def execute_switch(state: CacheState, from_task: str, to_task: str,
                   table: SwitchTable) -> tuple[CacheState, SwitchReport]:
    """Run one full_method switch: as split_only, but the blocks already
    host-resident skip the disk leg.

    The device must hold the outgoing task's active set, and both tasks
    must have one; otherwise it raises and leaves the table's memos as
    they were. The host is left as it was.
    """
    leg = table._legs.get((from_task, to_task))
    # A pair's first switch checks both active sets, then the device, and
    # only then builds the leg, so a refused switch adds nothing to a memo.
    if leg is None:
        table._check_tasks(from_task, to_task)
    source = table.active[from_task]
    device = state.gpu_resident
    if device is not source and device != source:
        raise SwitchSimError(f"the device does not hold task {from_task!r}'s target")
    if leg is None:
        leg = table._leg(from_task, to_task)
    new_state = load_to_gpu(state, leg.target, leg.target_bytes)
    prestaged = leg.gpu.blocks.intersection(state.cpu_lru)
    # One flat tuple, the credited ids sorted: a frozenset in the key would
    # be kept alive by the memo and take several times the memory.
    key = (from_task, to_task, *sorted(prestaged))
    report = table._full_reports.get(key)
    if report is None:
        report = table._full_reports[key] = table._split_report(
            _FULL_METHOD, from_task, to_task, leg, prestaged)
    return new_state, report


def calibrate_uniform_block_bytes(target_monolithic_ms: float, num_blocks: int,
                                  cost: CostModel) -> int:
    """Solve the uniform block size that makes a full reload hit the target.

    One-point calibration: the same cost model then predicts every other
    mode without further fitting.
    """
    fixed = cost.monolithic_init_ms + 2 * num_blocks * cost.per_block_fixed_ms
    remaining = target_monolithic_ms - fixed
    if remaining <= 0:
        raise ConfigError(
            f"target {target_monolithic_ms} ms is not above the fixed costs ({fixed} ms)")
    per_byte_ms = (1.0 / (cost.disk_to_cpu_mbps * 1000.0)
                   + 1.0 / (cost.cpu_to_gpu_mbps * 1000.0))
    return round(remaining / (num_blocks * per_byte_ms))

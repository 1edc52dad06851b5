"""Task-switch execution under a two-link cost model, in four deploy modes.

A switch moves whatever the incoming task needs over two sequential
links (disk -> host, host -> device). Monolithic-style modes reload a
whole checkpoint and pay a fixed reinitialization cost; split-storage
modes move only the differential set and patch the device incrementally.
After a successful switch the device holds exactly the incoming task's
active set (runtime blocks only); in monolithic mode it holds the whole
model. Dropping a device-resident block is free.

A switch starts from the outgoing task's target: the device holds
exactly what that task runs on, and :func:`execute_switch` refuses any
other device set. So a switch's legs depend on the mode and the (from,
to) task pair alone. A :class:`SwitchTable` holds what a replay's
switches share: each task's active set, per-block link costs, the legs
of every pair seen so far, and the full method's reports per host
credit. Only the full method's host credit is computed per switch.
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
    """What a switch moves for one (mode, outgoing task, incoming task).

    ``source`` is the device set the switch starts from, the outgoing
    task's target. ``disk`` is the whole checkpoint's disk leg in the
    monolithic-style modes; it is None in the split modes, whose disk leg
    takes the blocks the host does not already hold and is computed per
    report.
    """

    source: frozenset[int]
    target: frozenset[int]
    target_bytes: int
    reused: int
    init_ms: float
    gpu: Transfer
    disk: Transfer | None


class SwitchTable:
    """Per-replay switch constants and memos of switch legs and reports.

    Built once from a replay's manifest, cost model and per-task active
    sets. A switch starts from the outgoing task's target, so its leg
    depends on the mode and the (from, to) task pair only, and each
    distinct pair's leg is built once per mode; that first build also
    checks that both tasks have an active set. A full-method report also
    depends on the prestaged blocks, so it is kept per (outgoing task,
    incoming task, prestaged blocks); two tasks may share an active set,
    so both tasks are part of the key. The other modes' reports are fixed
    by their leg, and a replay computes each of them once per distinct
    (from, to) pair, so they are not kept. A monolithic-style reload
    depends on its target alone, so its transfers are kept per target set:
    one in monolithic mode, one per distinct active set in sparse_no_split.
    """

    def __init__(self, manifest: ModelManifest, cost: CostModel,
                 active: Mapping[str, frozenset[int]]):
        self.manifest = manifest
        self.cost = cost
        self.active = active
        self.disk_ms = tuple(cost.disk_ms(size) for size in manifest.block_sizes)
        self.gpu_ms = tuple(cost.gpu_ms(size) for size in manifest.block_sizes)
        self._legs: dict[DeployMode, dict[tuple[str, str], SwitchLeg]] = {
            mode: {} for mode in DeployMode}
        self._full_reports: dict[tuple, SwitchReport] = {}
        # Target set -> a whole-checkpoint reload's (gpu, disk) transfers.
        # A frozenset caches its hash, so a lookup hashes each target once.
        self._reloads: dict[frozenset[int], tuple[Transfer, Transfer]] = {}

    def _transfer(self, blocks: frozenset[int], per_block_ms: tuple[float, ...]
                 ) -> Transfer:
        return Transfer(blocks, math.fsum(map(per_block_ms.__getitem__, blocks)),
                        self.manifest.bytes_of(blocks))

    def _disk_leg(self, need: frozenset[int], prestaged: frozenset[int]) -> Transfer:
        """The disk leg of ``need`` when ``prestaged`` is already host-resident."""
        return self._transfer(need - prestaged, self.disk_ms)

    def target(self, mode: DeployMode, task: str) -> frozenset[int]:
        """What the device holds while ``task`` runs: the whole model in
        monolithic mode, the task's active set in every other mode."""
        return self.manifest.all_blocks if mode is _MONOLITHIC else self.active[task]

    def _source(self, mode: DeployMode, from_task: str, to_task: str) -> frozenset[int]:
        """The device set a switch from ``from_task`` to ``to_task`` starts
        from; raises :class:`ConfigError` when either task has no active
        set."""
        if mode is not _MONOLITHIC:
            for task in (from_task, to_task):
                if task not in self.active:
                    raise ConfigError(f"no active set for task {task!r}")
        return self.target(mode, from_task)

    def _build_leg(self, mode: DeployMode, from_task: str, to_task: str,
                   source: frozenset[int]) -> SwitchLeg:
        """The leg of a switch from ``from_task``, whose target is
        ``source``, to ``to_task``, kept in the mode's memo."""
        target = self.target(mode, to_task)
        if mode.is_split:
            need = target - source
            leg = SwitchLeg(source, target, self.manifest.bytes_of(target),
                            len(target & source), 0.0, self._transfer(need, self.gpu_ms),
                            None)
        else:
            reload = self._reloads.get(target)
            if reload is None:
                reload = self._reloads[target] = (
                    self._transfer(target, self.gpu_ms), self._transfer(target, self.disk_ms))
            gpu, disk = reload
            leg = SwitchLeg(source, target, gpu.nbytes, 0, self.cost.monolithic_init_ms,
                            gpu, disk)
        self._legs[mode][from_task, to_task] = leg
        return leg


def execute_switch(state: CacheState, from_task: str, to_task: str, mode: DeployMode,
                   table: SwitchTable) -> tuple[CacheState, SwitchReport]:
    """Run one task switch and account its cost.

    The device must hold the outgoing task's target,
    ``table.target(mode, from_task)``; any other device set raises
    :class:`SwitchSimError` and leaves the table's memos unchanged.

    Mode semantics:

    * ``monolithic``: full-model reload, reinitialization plus all blocks
      over both links, no reuse.
    * ``sparse_no_split``: reloads the incoming task's whole sparse
      checkpoint (reinitialization plus its active set over both links),
      no reuse.
    * ``split_only``: moves only blocks the device is missing, both links,
      no reinitialization, no prestaging credit.
    * ``full_method``: as split_only, but blocks already host-resident
      skip the disk leg.
    """
    leg = table._legs[mode].get((from_task, to_task))
    # A pair's first switch checks both active sets, then the device, and
    # only then builds the leg, so a refused switch adds nothing to a memo.
    source = table._source(mode, from_task, to_task) if leg is None else leg.source
    device = state.gpu_resident
    if device is not source and device != source:
        raise SwitchSimError(f"the device does not hold task {from_task!r}'s target")
    if leg is None:
        leg = table._build_leg(mode, from_task, to_task, source)
    new_state = load_to_gpu(state, leg.target, leg.target_bytes)
    if mode is not _FULL_METHOD:
        disk = leg.disk or table._disk_leg(leg.gpu.blocks, frozenset())
        return new_state, _report(from_task, to_task, mode, leg, disk, frozenset())

    prestaged = leg.gpu.blocks.intersection(state.cpu_lru)
    # One flat tuple, the credited ids sorted: a frozenset in the key would
    # be kept alive by the memo and take several times the memory.
    key = (from_task, to_task, *sorted(prestaged))
    report = table._full_reports.get(key)
    if report is None:
        report = table._full_reports[key] = _report(
            from_task, to_task, mode, leg, table._disk_leg(leg.gpu.blocks, prestaged),
            prestaged)
    return new_state, report


def _report(from_task: str, to_task: str, mode: DeployMode, leg: SwitchLeg,
            disk: Transfer, prestaged: frozenset[int]) -> SwitchReport:
    return SwitchReport(
        from_task=from_task,
        to_task=to_task,
        mode=mode.value,
        latency_ms=leg.init_ms + disk.ms + leg.gpu.ms,
        bytes_disk_to_cpu=disk.nbytes,
        bytes_cpu_to_gpu=leg.gpu.nbytes,
        blocks_reused=leg.reused,
        blocks_fetched=len(disk.blocks),
        blocks_prestaged=len(prestaged),
        gpu_resident_bytes_after=leg.target_bytes,
    )


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

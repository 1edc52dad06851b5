"""Block inventory, host cache, and device residency for block-granular weights.

A model backbone is decomposed into per-block shards on disk; at runtime
blocks move disk -> host cache -> device under byte budgets. This module
owns the manifest (block inventory), the residency of both tiers
(:class:`CacheState`), one check per tier (:func:`check_device`,
:func:`check_host`), and the host cache's operations: staging, which
evicts the least recently used unprotected blocks, and eviction. The
budgets are a scenario's constants, not state: what needs one takes it
as an argument.

The host cache is stored once, as its recency order ``cpu_lru``, which
lists each host-resident block exactly once. ``CacheState.cpu_resident``
builds the set from it on each access, for callers off the hot path.
Eviction walks ``cpu_lru`` once, picking victims and building the order
that stays in the same pass. Staging takes only distinct blocks the host
does not hold, the differential set a prefetch plan names, so the host
order changes one way: eviction, then an append.

Eviction reads recency alone. The replay protects every block that
next-task usefulness gives a nonzero weight (the running task's active
set and the pre-load tier both come from its likely successors), so
usefulness could never reorder the victims, and the replay checks that
this holds for each running task.

All operations are functional: they take a :class:`CacheState` and return
a new one, never mutating the input. On a budget error the caller's state
is therefore unchanged by construction.

A full_method replay stages and evicts on most of its steps, so these
operations build as little as they can per call. Each new state is built
by ``_new_tuple`` (``tuple.__new__``) from both fields, which skips the
Python frame of the named tuple's generated ``__new__``; the prefetch
planner and a switch build theirs the same way. Byte sums index
``block_sizes`` in a list comprehension, and staging sums the host order
in its own frame, not through :meth:`ModelManifest.bytes_of`.
:func:`check_host` checks distinct blocks, known ids and the budget in
one frame.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import BudgetExceededError, ManifestError, exact_int, read_json

__all__ = [
    "ModelManifest",
    "CacheState",
    "check_device",
    "check_host",
    "stage_to_cpu",
    "evict",
]

# Builds a named tuple from a tuple of all its fields, in C: the generated
# ``__new__`` adds a Python frame to every state a step builds. It checks
# nothing, so each caller passes every field in order.
_new_tuple = tuple.__new__


@dataclass(frozen=True)
class ModelManifest:
    """Block inventory: per-block byte sizes."""

    model_name: str
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.block_sizes) < 1:
            raise ManifestError("a manifest needs at least one block")
        for size in self.block_sizes:
            # A bool is an int to Python; a block holds a whole number of bytes.
            if isinstance(size, bool) or not isinstance(size, int):
                raise ManifestError(f"block_sizes must be integers, got {size!r}")
        if any(s <= 0 for s in self.block_sizes):
            raise ManifestError("every block size must be positive")

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)

    @cached_property
    def all_blocks(self) -> frozenset[int]:
        # Built on first use and kept in the instance dict, which a frozen
        # dataclass without slots still has.
        return frozenset(range(self.num_blocks))

    def bytes_of(self, blocks: Iterable[int]) -> int:
        """Total size of the given block ids."""
        sizes = self.block_sizes
        return sum([sizes[b] for b in blocks])

    @classmethod
    def from_json(cls, doc: Mapping) -> "ModelManifest":
        """Build from the manifest file schema.

        Expected keys: ``model_name`` and ``block_sizes_bytes`` (array of
        ints). Other keys, such as the older files' ``shard_prefix``, are
        ignored.
        """
        try:
            name = doc["model_name"]
            sizes = tuple(exact_int(s) for s in doc["block_sizes_bytes"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"bad manifest document: {exc}") from exc
        return cls(model_name=name, block_sizes=sizes)

    @classmethod
    def load(cls, path: Path | str) -> "ModelManifest":
        return cls.from_json(read_json(path))


class CacheState(NamedTuple):
    """Device residency and the host cache's recency order.

    The device holds exactly the running task's active set and never
    evicts, so only the host cache keeps a recency order: ``cpu_lru`` lists
    the host-resident blocks from least to most recently touched, and is
    the only record of what the host holds. Keeping it inside the state
    makes eviction a pure function of (state, arguments). A named tuple:
    immutable, compared by value, and cheaper to build than a frozen
    dataclass, which matters because every staging and switch builds one.
    """

    gpu_resident: frozenset[int] = frozenset()
    cpu_lru: tuple[int, ...] = ()

    @property
    def cpu_resident(self) -> frozenset[int]:
        """The host-resident blocks as a set, built on each access; kept
        for ``perfbench/tracer.py``'s eviction counter, its only reader."""
        return frozenset(self.cpu_lru)


def check_device(manifest: ModelManifest, blocks: frozenset[int], budget: int) -> None:
    """Raise unless the device set ``blocks`` is known and fits ``budget``."""
    if not blocks <= manifest.all_blocks:
        raise ManifestError("gpu resident set references unknown blocks")
    used = manifest.bytes_of(blocks)
    if used > budget:
        raise BudgetExceededError("gpu", used - budget)


def check_host(manifest: ModelManifest, lru: tuple[int, ...], budget: int) -> None:
    """Raise unless the host order ``lru`` names known blocks, none twice,
    within ``budget``.

    A replay checks the order each computed step leaves, so the three
    checks share one frame and the sum walks the order itself.
    """
    resident = frozenset(lru)
    if len(resident) != len(lru):
        raise ManifestError("cpu recency order lists a block twice")
    if not resident <= manifest.all_blocks:
        raise ManifestError("cpu resident set references unknown blocks")
    sizes = manifest.block_sizes
    used = sum([sizes[b] for b in lru])
    if used > budget:
        raise BudgetExceededError("cpu", used - budget)


def evict(manifest: ModelManifest, state: CacheState, bytes_needed: int,
          protected: frozenset[int] = frozenset()) -> CacheState:
    """Free at least ``bytes_needed`` in the host cache by dropping resident blocks.

    Victims are the least recently used non-protected blocks: the shortest
    prefix of ``cpu_lru``, protected blocks left out, that frees enough.
    One pass over ``cpu_lru`` picks them and builds the order that stays.
    Raises :class:`BudgetExceededError` with the remaining shortfall when
    even evicting every non-protected block is not enough.
    """
    if bytes_needed <= 0:
        return state
    sizes = manifest.block_sizes
    kept: list[int] = []
    freed = 0
    blocks = iter(state.cpu_lru)
    for b in blocks:
        if b in protected:
            kept.append(b)
            continue
        freed += sizes[b]
        if freed >= bytes_needed:
            break
    else:
        raise BudgetExceededError("cpu", bytes_needed - freed)
    # Past the last victim every block stays, in order.
    kept.extend(blocks)
    return _new_tuple(CacheState, (state.gpu_resident, tuple(kept)))


def stage_to_cpu(manifest: ModelManifest, state: CacheState, blocks: Iterable[int],
                 budget: int, protected: frozenset[int] = frozenset()
                 ) -> tuple[CacheState, int]:
    """Pull blocks the host does not hold from disk into the host cache.

    ``blocks`` must be distinct, known and not host-resident; anything else
    raises :class:`ManifestError`. They become the most recently used, in
    the order given, appended to the order eviction leaves. When ``budget``
    would overflow, one :func:`evict` for the whole overflow first drops
    the least recently used resident blocks outside ``protected``; the
    given blocks are not resident, so eviction cannot reach them. An
    unsatisfiable overflow raises with its whole shortfall and leaves the
    input state untouched.
    """
    order = tuple(blocks)
    wanted = frozenset(order)
    if not wanted <= manifest.all_blocks:
        raise ManifestError(f"unknown block ids: {sorted(wanted - manifest.all_blocks)}")
    lru = state.cpu_lru
    if len(wanted) != len(order) or not wanted.isdisjoint(lru):
        raise ManifestError("staging takes distinct blocks the host does not hold")
    sizes = manifest.block_sizes
    bytes_moved = sum([sizes[b] for b in order])
    overflow = sum([sizes[b] for b in lru]) + bytes_moved - budget
    if overflow > 0:
        state = evict(manifest, state, overflow, protected)
    return _new_tuple(CacheState, (state.gpu_resident, state.cpu_lru + order)), bytes_moved

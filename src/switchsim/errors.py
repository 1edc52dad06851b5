"""Exception hierarchy shared by all switchsim modules, plus the file
readers, number and key checks their file parsers share, the file writer
their reports share, the exact sum their report means share, and the
exact units the additive oracle's ranking keeps its sum in."""
from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable

# 2**-1074 is the smallest subnormal, so every finite float is a whole
# number of these units.
EXACT_SCALE = 1 << 1074


def exact_int(value: object) -> int:
    """``int(value)`` for a JSON number, refusing the floats that ``int``
    would truncate or overflow.

    Anything but an ``int`` or ``float`` (a boolean, a string, ``None``)
    raises :class:`TypeError`; a fractional, infinite or NaN float raises
    :class:`ValueError`. Every parser already turns both into its typed
    error.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not an integer")
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def as_float(value: object) -> float:
    """``float(value)`` for a JSON number; anything but an ``int`` or
    ``float`` (a boolean, a string, ``None``) raises :class:`TypeError`,
    and an integer too large for a float raises :class:`ValueError`."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer is too large for a float") from None


def check_keys(doc: object, allowed: frozenset[str], what: str) -> None:
    """Raise :class:`ConfigError` unless ``doc`` is a JSON object whose keys
    all lie in ``allowed``: a misspelt key would otherwise fall back to a
    default and run a different simulation."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, not {type(doc).__name__}")
    unknown = doc.keys() - allowed
    if unknown:
        raise ConfigError(f"{what} has unknown keys {sorted(unknown)}")


def exact_units(w: float) -> int:
    """``w`` in units of 2**-1074, exactly."""
    num, den = w.as_integer_ratio()
    return num << (1075 - den.bit_length())


def counted_fsum(counted: Iterable[tuple[float, int]]) -> float:
    """The sum of ``count`` copies of each finite, non-negative ``value`` in
    ``counted``'s (value, count) pairs: the float that ``math.fsum`` of the
    expanded multiset gives.

    The sum is kept as an int in units of 2**-1074, and int division
    rounds it correctly (Shewchuk, 1997). So the work is per pair, not per
    copy. A sum beyond the float range raises :class:`OverflowError`, as
    ``fsum`` does.
    """
    return sum(count * exact_units(value) for value, count in counted) / EXACT_SCALE


class SwitchSimError(Exception):
    """Base class for every error raised by this package."""


class ManifestError(SwitchSimError):
    """The block manifest is malformed (no blocks, bad sizes, ...)."""


class BudgetExceededError(SwitchSimError):
    """A tier byte budget cannot be satisfied even after eviction.

    ``shortfall_bytes`` is the number of bytes that could not be freed.
    The state passed to the failing operation is left untouched.
    """

    def __init__(self, tier: str, shortfall_bytes: int):
        self.tier = tier
        self.shortfall_bytes = shortfall_bytes
        super().__init__(f"{tier} budget exceeded by {shortfall_bytes} bytes")


class LogParseError(SwitchSimError):
    """A scenario's task log names no scenario task; raised at load, with
    the entry's 0-based log ``position``."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (log position {position})")


class OracleError(SwitchSimError):
    """A metric oracle could not evaluate the requested active set."""


class ConfigError(SwitchSimError):
    """A scenario, task file, or CLI configuration is invalid."""


class ReplayError(SwitchSimError):
    """A lower-level error surfaced while replaying a trace.

    ``position`` is the 0-based trace index at which the failure occurred.
    """

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (trace position {position})")


def read_text(path: Path | str) -> str:
    """The UTF-8 text of the file at ``path``, without a leading byte-order
    mark, so every input reads the same with or without one; a U+FEFF
    anywhere else stays in the text.

    A missing, unreadable or non-UTF-8 file raises :class:`ConfigError`.
    """
    try:
        with open(path, encoding="utf-8-sig") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def read_json(path: Path | str):
    """The parsed JSON document in the file at ``path``.

    A file :func:`read_text` rejects, one that is not valid JSON, or one
    nested too deep for the parser's recursion raises :class:`ConfigError`.
    """
    text = read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError(f"{path} nests its JSON too deep to parse") from exc


def write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` as its UTF-8 bytes: one binary open and
    one write, with no newline translation on any platform.

    An :class:`OSError` propagates, naming the path.
    """
    with open(path, "wb") as fh:
        fh.write(text.encode())

"""Argument-validation helpers.

The simulator is used as a library by tests, benchmarks and example programs;
clear, early errors are much cheaper to debug than silent mis-simulation.  The
helpers below raise standard exception types (``ValueError`` / ``TypeError``)
with consistent messages so the calling modules stay terse.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence, Type


def require(condition: bool, message: str) -> None:
    """Raise :class:`ValueError` with *message* when *condition* is false."""
    if not condition:
        raise ValueError(message)


def require_type(value: Any, types: Type | tuple[Type, ...], name: str) -> Any:
    """Raise :class:`TypeError` unless *value* is an instance of *types*.

    Returns the value so calls can be used inline::

        self._rank = require_type(rank, int, "rank")
    """
    if not isinstance(value, types):
        if isinstance(types, tuple):
            expected = " or ".join(t.__name__ for t in types)
        else:
            expected = types.__name__
        raise TypeError(
            f"{name} must be {expected}, got {type(value).__name__}: {value!r}"
        )
    return value


def require_non_negative(value: float | int, name: str) -> float | int:
    """Raise :class:`ValueError` unless ``value >= 0``."""
    if (type(value) is float or type(value) is int) and value >= 0:
        return value  # the common case; everything else takes the full checks
    require_type(value, (int, float), name)
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got bool")
    if not value >= 0:  # a NaN compares false both ways
        raise ValueError(f"{name} must be non-negative, got {value!r}")
    return value


def require_positive(value: float | int, name: str) -> float | int:
    """Raise :class:`ValueError` unless ``value > 0``."""
    if (type(value) is float or type(value) is int) and value > 0:
        return value
    require_type(value, (int, float), name)
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got bool")
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return value


def require_in_range(
    value: float | int, low: float | int, high: float | int, name: str
) -> float | int:
    """Raise :class:`ValueError` unless ``low <= value <= high``."""
    require_type(value, (int, float), name)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return value


def require_rank(rank: int, world_size: int, name: str = "rank") -> int:
    """Validate a process rank against the world size.

    Ranks in the global address space are integers in ``[0, world_size)``,
    mirroring MPI/UPC conventions.
    """
    if type(rank) is int and type(world_size) is int and 0 <= rank < world_size:
        return rank
    require_type(rank, int, name)
    if isinstance(rank, bool):
        raise TypeError(f"{name} must be an int, got bool")
    require_type(world_size, int, "world_size")
    if world_size <= 0:
        raise ValueError(f"world_size must be positive, got {world_size}")
    if not (0 <= rank < world_size):
        raise ValueError(
            f"{name} must be in [0, {world_size}), got {rank}"
        )
    return rank


def require_unique(items: Iterable[Any], name: str) -> Sequence[Any]:
    """Raise :class:`ValueError` if *items* contains duplicates."""
    seq = list(items)
    seen = set()
    for item in seq:
        if item in seen:
            raise ValueError(f"{name} contains duplicate entry {item!r}")
        seen.add(item)
    return seq

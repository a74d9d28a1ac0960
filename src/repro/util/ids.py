"""Monotonic identifier allocation.

Every message, event and lock request in the simulation carries a small
integer id so that traces are reproducible and ties in the event queue can be
broken deterministically (the paper's model is asynchronous; determinism in
the *simulator* is what lets a test assert on an exact interleaving).
"""

from __future__ import annotations

import itertools
from typing import Iterator


class IdAllocator:
    """Hand out consecutive integer ids, optionally with a string prefix.

    >>> alloc = IdAllocator("msg")
    >>> alloc.next_int()
    0
    >>> alloc.next_str()
    'msg-1'
    """

    def __init__(self, prefix: str = "id") -> None:
        self._prefix = prefix
        self._counter: Iterator[int] = itertools.count()

    @property
    def prefix(self) -> str:
        """Prefix used by :meth:`next_str`."""
        return self._prefix

    def next_int(self) -> int:
        """Return the next integer id."""
        return next(self._counter)

    def next_str(self) -> str:
        """Return the next id formatted as ``"<prefix>-<n>"``."""
        return f"{self._prefix}-{next(self._counter)}"

    def peek(self) -> int:
        """Return the id that the *next* call to :meth:`next_int` would produce.

        This consumes-and-rebuilds the underlying counter, so it is intended
        for diagnostics only.
        """
        value = next(self._counter)
        self._counter = itertools.chain([value], self._counter)
        return value


_GLOBAL_ALLOCATOR = IdAllocator("g")


def monotonic_id() -> int:
    """Return a process-wide monotonically increasing integer.

    Used for tie-breaking where no per-object allocator is available.
    """
    return _GLOBAL_ALLOCATOR.next_int()

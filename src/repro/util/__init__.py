"""Utility helpers shared across the ``repro`` packages.

This sub-package holds small, dependency-free building blocks: argument
validation, identifier generation, the in-package constructor of frozen
record classes, and a lightweight structured logger used by the simulation
kernel and the runtime.  Nothing in here knows about the
distributed-shared-memory model itself.
"""

from repro.util.validation import (
    require,
    require_type,
    require_non_negative,
    require_positive,
    require_in_range,
    require_rank,
)
from repro.util.ids import IdAllocator, monotonic_id
from repro.util.records import trusted_build
from repro.util.logging import SimLogger, LogRecord

__all__ = [
    "require",
    "require_type",
    "require_non_negative",
    "require_positive",
    "require_in_range",
    "require_rank",
    "IdAllocator",
    "monotonic_id",
    "trusted_build",
    "SimLogger",
    "LogRecord",
]

"""Overhead accounting for the detection mechanism.

The paper discusses three costs analytically; this module measures all of
them on actual runs so benchmark E8/E11 can print them:

* **Clock size** (Section IV-C): vector clocks cannot have fewer than ``n``
  entries [Charron-Bost], so per shared datum the dual-clock scheme stores
  ``2·n`` entries, and each of the paper's processes keeps an ``n×n`` matrix
  clock ``V_Pi`` — :func:`clock_storage_model` gives the closed form
  (``process_matrix_entries`` is that ``n³``), :class:`OverheadComparison`
  reports what a run actually holds.  A run holds ``n`` entries per process,
  the principal row of ``V_Pi``: no verdict reads the other rows, so they are
  modelled here and not held (:mod:`repro.core.clocks`).
* **Message overhead** (Section V-A): the clock fetch/update traffic per
  instrumented remote access, plus the growth of every data message by the
  piggybacked clock bytes.
* **Storage doubling of the dual-clock design** (Section IV-D): "it doubles
  the necessary amount of memory" relative to a single-clock scheme — visible
  as the ratio between dual-clock and single-clock storage in the model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.net.clock_transport import BYTES_PER_ENTRY
from repro.runtime.runtime import RunResult


@dataclass(frozen=True)
class ClockStorageModel:
    """Closed-form storage requirements for one configuration."""

    world_size: int
    shared_data: int
    entries_per_datum_dual: int
    entries_per_datum_single: int
    datum_entries_dual: int
    datum_entries_single: int
    process_matrix_entries: int

    @property
    def total_entries_dual(self) -> int:
        """Datum clocks (dual) plus process matrix clocks."""
        return self.datum_entries_dual + self.process_matrix_entries

    @property
    def total_entries_single(self) -> int:
        """Datum clocks (single) plus process matrix clocks."""
        return self.datum_entries_single + self.process_matrix_entries

    @property
    def total_bytes_dual(self) -> int:
        """Dual-clock storage in bytes."""
        return self.total_entries_dual * BYTES_PER_ENTRY

    @property
    def dual_over_single_ratio(self) -> float:
        """How much more datum storage the dual-clock design needs (paper: 2x)."""
        if self.datum_entries_single == 0:
            return float("nan")
        return self.datum_entries_dual / self.datum_entries_single


def clock_storage_model(world_size: int, shared_data: int) -> ClockStorageModel:
    """Storage required for *shared_data* shared cells over *world_size* ranks."""
    if world_size <= 0 or shared_data < 0:
        raise ValueError("world_size must be positive and shared_data non-negative")
    per_datum_dual = 2 * world_size
    per_datum_single = world_size
    return ClockStorageModel(
        world_size=world_size,
        shared_data=shared_data,
        entries_per_datum_dual=per_datum_dual,
        entries_per_datum_single=per_datum_single,
        datum_entries_dual=per_datum_dual * shared_data,
        datum_entries_single=per_datum_single * shared_data,
        process_matrix_entries=world_size * world_size * world_size,
    )


@dataclass
class OverheadComparison:
    """Measured overhead of detection: instrumented run vs baseline run."""

    world_size: int
    baseline_messages: int
    instrumented_messages: int
    baseline_bytes: int
    instrumented_bytes: int
    detection_messages: int
    detection_bytes: int
    clock_storage_entries: int
    remote_accesses: int
    baseline_sim_time: float
    instrumented_sim_time: float

    @property
    def message_overhead_ratio(self) -> float:
        """Instrumented / baseline total message count."""
        return (
            self.instrumented_messages / self.baseline_messages
            if self.baseline_messages
            else float("nan")
        )

    @property
    def byte_overhead_ratio(self) -> float:
        """Instrumented / baseline total bytes."""
        return (
            self.instrumented_bytes / self.baseline_bytes
            if self.baseline_bytes
            else float("nan")
        )

    @property
    def extra_messages_per_access(self) -> float:
        """Detection-only messages per instrumented remote access."""
        return (
            self.detection_messages / self.remote_accesses
            if self.remote_accesses
            else 0.0
        )

    @property
    def time_overhead_ratio(self) -> float:
        """Instrumented / baseline simulated completion time."""
        return (
            self.instrumented_sim_time / self.baseline_sim_time
            if self.baseline_sim_time
            else float("nan")
        )

    def as_dict(self) -> Dict[str, object]:
        """Flat dictionary for table rendering."""
        return {
            "world_size": self.world_size,
            "baseline_messages": self.baseline_messages,
            "instrumented_messages": self.instrumented_messages,
            "message_overhead_ratio": round(self.message_overhead_ratio, 3),
            "baseline_bytes": self.baseline_bytes,
            "instrumented_bytes": self.instrumented_bytes,
            "byte_overhead_ratio": round(self.byte_overhead_ratio, 3),
            "detection_messages": self.detection_messages,
            "extra_messages_per_access": round(self.extra_messages_per_access, 3),
            "clock_storage_entries": self.clock_storage_entries,
            "time_overhead_ratio": round(self.time_overhead_ratio, 3),
        }


def compare_runs(baseline: RunResult, instrumented: RunResult) -> OverheadComparison:
    """Build an :class:`OverheadComparison` from a detection-off and a detection-on run.

    The two runs must be of the same program and configuration, except that
    the baseline's runtime was built with ``detector=None`` (the caller is
    responsible for that; the world sizes are cross-checked here).
    """
    if baseline.config.world_size != instrumented.config.world_size:
        raise ValueError(
            "baseline and instrumented runs have different world sizes: "
            f"{baseline.config.world_size} vs {instrumented.config.world_size}"
        )
    remote_accesses = instrumented.trace_summary.puts + instrumented.trace_summary.gets
    return OverheadComparison(
        world_size=instrumented.config.world_size,
        baseline_messages=baseline.fabric_stats.total_messages,
        instrumented_messages=instrumented.fabric_stats.total_messages,
        baseline_bytes=baseline.fabric_stats.total_bytes,
        instrumented_bytes=instrumented.fabric_stats.total_bytes,
        detection_messages=instrumented.fabric_stats.detection_messages,
        detection_bytes=instrumented.fabric_stats.detection_bytes,
        clock_storage_entries=instrumented.clock_storage_entries,
        remote_accesses=remote_accesses,
        baseline_sim_time=baseline.elapsed_sim_time,
        instrumented_sim_time=instrumented.elapsed_sim_time,
    )


def detection_overhead_for(result: RunResult) -> Dict[str, object]:
    """Single-run overhead summary (when no uninstrumented twin is available)."""
    remote = result.trace_summary.puts + result.trace_summary.gets
    return {
        "world_size": result.config.world_size,
        "remote_accesses": remote,
        "detection_messages": result.fabric_stats.detection_messages,
        "detection_bytes": result.fabric_stats.detection_bytes,
        "detection_messages_per_access": (
            result.fabric_stats.detection_messages / remote if remote else 0.0
        ),
        "clock_storage_entries": result.clock_storage_entries,
        "clock_storage_bytes": result.clock_storage_entries * BYTES_PER_ENTRY,
    }

"""Deterministic, sim-time-native observability for the simulator.

Three cooperating pieces, all owned by one :class:`Observability` facade that
hangs off the simulator (``sim.obs``):

* :mod:`repro.obs.metrics` — a :class:`~repro.obs.metrics.MetricsRegistry` of
  counters, gauges and fixed-bucket histograms.  It is the single source of
  truth behind the per-subsystem stats views (``FabricStats``,
  ``ClockTransportStats``, NIC tallies) and snapshots to canonical sorted
  JSON, so equal seeds yield byte-identical snapshots.
* :mod:`repro.obs.spans` — a :class:`~repro.obs.spans.SpanTracer` recording
  sim-time spans (WR post→transfer→retire, QP drain bursts, lock
  request→grant, barrier fan-in, detector checks) and exporting Chrome
  trace-event JSON loadable in Perfetto, one track per rank and per NIC
  engine, with flow events linking a WR's post to its retirement.
* :mod:`repro.obs.profiler` — a
  :class:`~repro.obs.profiler.DetectionProfiler` attributing compare/join
  counts (and optional wall time) per check type (read/write/rmw ×
  live/carried), the before/after baseline for hot-path optimisation work.

On top of the span data sit two pure post-processors:
:mod:`repro.obs.critical_path` (critical-path extraction with exact
per-category attribution) and :mod:`repro.obs.whatif` (causal what-if
profiling — rescale a category, recompute the end-to-end time without
rerunning).

The hard rule, enforced by tests: observability never touches clocks,
scheduling, or randomness — detector verdicts and decision logs are
byte-identical with it on or off.
"""

from repro.obs.critical_path import CriticalPath, CriticalPathAnalyzer, PathSegment
from repro.obs.metrics import (
    Counter,
    CounterSlot,
    Gauge,
    Histogram,
    MetricsRegistry,
    define_family,
    family_keys,
)
from repro.obs.observability import Observability
from repro.obs.profiler import DetectionProfiler
from repro.obs.spans import SpanTracer
from repro.obs.whatif import WhatIfEngine

__all__ = [
    "Counter",
    "CounterSlot",
    "CriticalPath",
    "CriticalPathAnalyzer",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Observability",
    "DetectionProfiler",
    "PathSegment",
    "SpanTracer",
    "WhatIfEngine",
    "define_family",
    "family_keys",
]

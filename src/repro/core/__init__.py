"""The paper's primary contribution: logical-clock race detection for DSM.

This package implements Section IV of the paper:

* :mod:`repro.core.clocks` — vector clocks; a process holds the principal
  row of the paper's clock matrix ``V_Pi``, the one row a verdict reads;
* :mod:`repro.core.comparator` — the clock-comparison and merge primitives
  (``compare_clocks``, Algorithm 3; ``max_clock``, Algorithm 4) and the
  happens-before / concurrency relations of Mattern's theorem (Lemma 1);
* :mod:`repro.core.races` — race records, reports and the signalling policy
  (Section IV-D: signal but never abort);
* :mod:`repro.core.detector` — the dual-clock detector that instruments every
  remote ``put`` (Algorithm 1) and ``get`` (Algorithm 2), maintaining a
  general-purpose access clock ``V`` and a write clock ``W`` per shared datum
  and updating them with Algorithm 5.
"""

from repro.core.clocks import VectorClock
from repro.core.comparator import (
    ClockOrdering,
    compare_clocks,
    compare_clocks_strict,
    happens_before,
    concurrent,
    max_clock,
    ordering,
)
from repro.core.races import RaceRecord, RaceReport, SignalPolicy, RaceConditionSignal
from repro.core.detector import DetectorConfig, DualClockRaceDetector

__all__ = [
    "VectorClock",
    "ClockOrdering",
    "compare_clocks",
    "compare_clocks_strict",
    "happens_before",
    "concurrent",
    "max_clock",
    "ordering",
    "RaceRecord",
    "RaceReport",
    "SignalPolicy",
    "RaceConditionSignal",
    "DetectorConfig",
    "DualClockRaceDetector",
]

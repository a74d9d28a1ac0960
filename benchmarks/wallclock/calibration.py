"""The calibration kernel: the harness's unit of host time.

Raw wall-clock on a shared sandbox drifts by 10-25 % between processes while
the *ratio* of a workload repetition to an adjacent run of this kernel stays
within a few percent, so every timing the benchmark gates is divided by it.
One execution is one calibration unit (``cu``), about 0.1 s on the machine
the benchmark was sized on.

The kernel touches no ``repro`` code -- an optimisation of the program must
never move the unit -- but leans on the same interpreter paths the simulator
does: small ``int64`` NumPy arrays built, maxed and frozen to tuples, a
``heapq`` calendar, dict stores under tuple keys, and a generator resumed
once per step.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

_STEPS = 9000
_WIDTH = 16


def _ticker(steps: int):
    for step in range(steps):
        yield step & (_WIDTH - 1)


def kernel() -> int:
    """One fixed, allocation-heavy unit of work; returns a checksum."""
    known = np.zeros(_WIDTH, dtype=np.int64)
    calendar: list = []
    store: dict = {}
    checksum = 0
    for step, rank in enumerate(_ticker(_STEPS)):
        clock = np.zeros(_WIDTH, dtype=np.int64)
        clock[rank] += step
        np.maximum(known, clock, out=known)
        frozen = tuple(int(entry) for entry in known)
        heapq.heappush(calendar, (float((step * 7919) % 1013), step, frozen))
        store[(rank, step % 61)] = frozen
        if step & 3 == 3:
            _when, _seq, popped = heapq.heappop(calendar)
            checksum += popped[rank]
        if bool(np.all(clock <= known)):
            checksum += 1
    return checksum + len(store)


def calibrate(executions: int = 3) -> float:
    """Seconds one kernel execution takes right now (one ``cu``).

    Averaged over a few back-to-back executions: a single 0.1 s execution
    catches the machine's sub-second hiccups in full, while a repetition of a
    second or two averages over them.
    """
    start = time.perf_counter()
    for _ in range(executions):
        kernel()
    return (time.perf_counter() - start) / executions

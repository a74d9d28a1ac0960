"""What post-mortem replay pays per access, held as a call budget.

Replay is the paper's second deployment (§V-B): record, then detect.  It
drives the detector's per-kind resolution and kernel directly, so nothing
it pays for is a result record no verdict reads.  The budget counts every
Python function call (``sys.setprofile`` ``call`` events; C calls are not
counted) while ``TraceReplayer.replay`` runs over the archived trace of
``RandomAccessWorkload(world_size=4, operations_per_rank=60)`` at seed 0:
240 accesses, 19 races.

* Through the public entry points, with a result record per access, a
  frozen ``RaceRecord`` built field by field and a lambda sort key: 3 768
  calls (15.70 per access).
* Through ``_check``, no result record, slotted race records built by
  ``RaceRecord._build``, the stand-in cells filed under ``(rank, offset)``:
  2 328 calls (9.70 per access).
* One check semantics, the profile booked inside the kernel, ``Epoch``
  built by ``tuple.__new__``, enum members read at module scope, a virgin
  cell's clocks adopted from ``np.zeros``: 1 041 calls (4.34 per access).
* The virgin-reference test as ``not any(reference.tolist())``, not
  ``ndarray.any()`` (whose Python-level wrapper in NumPy's ``_methods.py``
  was one call per check that reached it): 991 calls (4.13 per access) —
  the ceiling below.

A deliberate addition to the replay path moves the ceiling; say so.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.detector import AccessCheckResult
from repro.core.races import RaceRecord
from repro.trace import TraceReplayer, trace_from_json, trace_to_json
from repro.workloads import RandomAccessWorkload

CALL_CEILING = 991


@pytest.fixture(scope="module")
def archived_trace():
    recorded = RandomAccessWorkload(world_size=4, operations_per_rank=60).run(0)
    recorder = recorded.runtime.recorder
    archive = trace_to_json(
        4, recorder.accesses(), recorder.operations(), recorder.syncs()
    )
    world, accesses, _operations, syncs = trace_from_json(archive)
    assert (len(accesses), recorded.run.race_count) == (240, 19)
    return world, accesses, syncs


def test_replay_stays_within_its_call_budget(archived_trace):
    world, accesses, syncs = archived_trace
    replayer = TraceReplayer(world)
    replayer.replay(accesses, syncs)  # warm every lazy cache first
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        outcome = replayer.replay(accesses, syncs)
    finally:
        sys.setprofile(None)
    assert outcome.race_count == 19
    assert calls <= CALL_CEILING


def test_replay_builds_race_records_and_no_result_records(archived_trace, monkeypatch):
    world, accesses, syncs = archived_trace
    built = {RaceRecord: 0, AccessCheckResult: 0}

    def counted(cls, name):
        original = getattr(cls, name)

        def wrapper(*args, **keywords):
            built[cls] += 1
            return original(*args, **keywords)

        monkeypatch.setattr(cls, name, staticmethod(wrapper) if name == "_build" else wrapper)

    for cls in built:
        counted(cls, "_build")
        counted(cls, "__init__")
    outcome = TraceReplayer(world).replay(accesses, syncs)
    assert built == {RaceRecord: outcome.race_count, AccessCheckResult: 0}
    assert outcome.race_count == 19

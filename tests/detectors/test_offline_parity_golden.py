"""The offline detectors and the schedule fingerprint, pinned byte for byte.

``golden_offline_parity.json`` holds, per run, the sha256 of every finding the
after-run pass reports — :class:`~repro.detectors.single_clock.SingleClockDetector`
and :class:`~repro.detectors.lockset.LocksetDetector`, the latter both with the
model's NIC locks and without them (without, it flags every shared written
cell, so its findings are not trivially empty) — plus the run's
:func:`~repro.explore.systematic.schedule_fingerprint`.  A finding is digested
as its address, symbol, ranks, kinds, both access ids and detail, in report
order.

A run is one pattern of both racy-pattern corpora at seed 0, under the
uncontrolled schedule (no controller installed) and under ``ScheduleFuzzer``
seeds 1-5.  A rewrite of how these passes index cells or order the trace must
leave every entry unchanged.

Regenerate (only when what a detector *reports* is meant to change) with::

    PYTHONPATH=src python -m tests.detectors.test_offline_parity_golden > tests/detectors/golden_offline_parity.json
"""

import hashlib
import json
import os
import sys

import pytest

from repro.detectors.lockset import LocksetDetector
from repro.detectors.single_clock import SingleClockDetector
from repro.explore.controller import ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.systematic import schedule_fingerprint
from repro.workloads.racy_patterns import pattern_corpus, rmw_pattern_corpus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_offline_parity.json")

PATTERNS = {pattern.name: pattern for pattern in pattern_corpus() + rmw_pattern_corpus()}

SCHEDULES = ("uncontrolled",) + tuple(f"fuzz-{seed}" for seed in range(1, 6))

RUNS = [f"{pattern}/{schedule}" for pattern in PATTERNS for schedule in SCHEDULES]

DETECTORS = {
    "single-clock": SingleClockDetector,
    "lockset": LocksetDetector,
    "lockset-no-nic-locks": lambda: LocksetDetector(model_nic_locks=False),
}


def _finding_row(finding):
    return [
        repr(finding.address),
        finding.symbol,
        list(finding.ranks),
        list(finding.kinds),
        finding.first_access_id,
        finding.second_access_id,
        finding.detail,
    ]


def record(run):
    """What the golden file keeps for *run*: a digest per detector, and the fingerprint."""
    pattern, schedule = run.split("/")
    runtime = PATTERNS[pattern].build(0)
    if schedule != "uncontrolled":
        seed = int(schedule.rpartition("-")[2])
        runtime.sim.install_controller(ScheduleController(ScheduleFuzzer(seed=seed)))
    runtime.run()
    accesses = runtime.recorder.accesses()
    syncs = runtime.recorder.syncs()
    entry = {"fingerprint": schedule_fingerprint(accesses)}
    for name, build in DETECTORS.items():
        result = build().detect(accesses, runtime.config.world_size, syncs=syncs)
        rows = [_finding_row(finding) for finding in result.findings]
        entry[name] = {
            "findings": len(rows),
            "sha256": hashlib.sha256(json.dumps(rows).encode()).hexdigest(),
        }
    return entry


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


def test_the_recording_holds_findings_of_every_detector(golden):
    for name in ("single-clock", "lockset-no-nic-locks"):
        assert sum(entry[name]["findings"] for entry in golden.values()) > 0
    # The model's NIC locks protect every cell: lockset never warns (E13).
    assert sum(entry["lockset"]["findings"] for entry in golden.values()) == 0


@pytest.mark.parametrize("run", RUNS)
def test_offline_pass_equals_the_recording(run, golden):
    assert record(run) == golden[run]


if __name__ == "__main__":
    json.dump({run: record(run) for run in RUNS}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

"""Every decision a controlled run logs, pinned byte for byte.

``golden_decision_logs.json`` holds, per cell, the sha256 of the run's
``DecisionLog.to_jsonable()``, its decision count per kind, its conflict-order
fingerprint and its ``elapsed_sim_time`` (and, for the systematic cells, the
``branch_points`` the strategy met).  Keys, choices, stored types, the
fuzzer's draw order and the systematic searcher's branch-point list must not
move under a refactor of the controller, the strategies or the layers that
ask them.

A cell is program x knob set x strategy: every pattern of both corpora, three
workloads, the two per-kind factories of the neighbouring test file and the
racy sender that overruns its receiver from ``tests/net/test_flow_control.py``;
default knobs, the adaptive control plane (per-burst CQ moderation,
piggybacked delta clocks) and the UD transport (on a fabric whose fuzzed
schedules drop and duplicate datagrams); passthrough, three fuzz seeds, a hot
fuzz, and a systematic root plus one child that forces slots on the root's
first three branch points.  Together they log every kind.  Every cell's log
is also replayed and must reproduce itself.

Regenerate (only when what a schedule *logs* is meant to change) with::

    PYTHONPATH=src python -m tests.explore.test_decision_log_golden > tests/explore/golden_decision_logs.json
"""

import collections
import hashlib
import json
import os
import sys

import pytest

from repro.explore.controller import PassthroughStrategy, ReplayStrategy
from repro.explore.decisions import DECISION_KINDS
from repro.explore.fuzzer import ScheduleFuzzer
from repro.explore.runner import run_schedule
from repro.explore.systematic import SystematicStrategy
from repro.workloads import (
    RPCEchoWorkload,
    SendRecvStencilWorkload,
    VerbsStencilWorkload,
    pattern_corpus,
)
from repro.workloads.racy_patterns import rmw_pattern_corpus
from tests.explore.test_control_plane_decisions import barrier_factory, credit_factory
from tests.net.test_flow_control import racy_saturating_factory

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_decision_logs.json")

PROGRAMS = {
    **{pattern.name: pattern.build for pattern in pattern_corpus() + rmw_pattern_corpus()},
    "send-recv-stencil": SendRecvStencilWorkload(4, iterations=3).build,
    "verbs-stencil": VerbsStencilWorkload(4, iterations=2).build,
    "rpc-echo-racy": RPCEchoWorkload(racy_buffer_reuse=True).build,
    "credit": credit_factory,
    "barrier": barrier_factory,
    "saturating-racy": racy_saturating_factory,
}

_SPARSE_CLOCKS = {"clock_transport": "piggyback", "clock_wire": "delta"}

KNOB_SETS = {
    "default": {},
    "control-plane": {"cq_moderation": True, **_SPARSE_CLOCKS},
    "ud": {"transport": "ud", **_SPARSE_CLOCKS},
}

STRATEGIES = ("passthrough", "fuzz-1", "fuzz-2", "fuzz-3", "fuzz-hot", "systematic")

CELLS = [
    f"{program}/{knobs}/{strategy}"
    for program in PROGRAMS
    for knobs in KNOB_SETS
    for strategy in STRATEGIES
]


def _fuzzer(strategy, knobs):
    lossy = (
        {"drop_probability": 0.15, "duplicate_probability": 0.1} if knobs == "ud" else {}
    )
    if strategy == "fuzz-hot":
        # Seed 4 because the golden cells were recorded with it.
        return ScheduleFuzzer(
            seed=4, reorder_probability=0.8, tie_shuffle_probability=0.6, **lossy
        )
    return ScheduleFuzzer(seed=int(strategy.rpartition("-")[2]), **lossy)


def _run(program, knobs, strategy):
    def configure(runtime):
        for name, value in KNOB_SETS[knobs].items():
            runtime.set_knob(name, value)

    return run_schedule(PROGRAMS[program], 0, strategy, configure=configure)


def _entry(program, knobs, strategy):
    """One run's golden entry; the run is replayed from its own log first."""
    outcome = _run(program, knobs, strategy)
    replayed = _run(program, knobs, ReplayStrategy(outcome.decisions))
    assert replayed.decisions == outcome.decisions
    assert replayed.fingerprint == outcome.fingerprint
    assert replayed.elapsed_sim_time == outcome.elapsed_sim_time
    jsonable = outcome.decisions.to_jsonable()
    entry = {
        "log_sha256": hashlib.sha256(json.dumps(jsonable).encode()).hexdigest(),
        "kinds": dict(collections.Counter(d["kind"] for d in jsonable)),
        "fingerprint": outcome.fingerprint,
        "elapsed_sim_time": outcome.elapsed_sim_time,
    }
    if isinstance(strategy, SystematicStrategy):
        entry["branch_points"] = list(strategy.branch_points)
    return entry


def record(cell):
    """What the golden file keeps for *cell*: one entry per run of the cell."""
    program, knobs, strategy = cell.split("/")
    if strategy == "passthrough":
        return [_entry(program, knobs, PassthroughStrategy())]
    if strategy != "systematic":
        return [_entry(program, knobs, _fuzzer(strategy, knobs))]
    root = _entry(program, knobs, SystematicStrategy({}))
    forced = {key: 1 + slot % 2 for slot, key in enumerate(root["branch_points"][:3])}
    return [root, _entry(program, knobs, SystematicStrategy(forced))]


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_golden_file_covers_every_cell(golden):
    assert sorted(golden) == sorted(CELLS)


def test_the_recording_holds_every_kind(golden):
    totals = collections.Counter()
    for entries in golden.values():
        for entry in entries:
            totals.update(entry["kinds"])
    assert set(totals) == set(DECISION_KINDS)
    assert all(totals[kind] > 0 for kind in DECISION_KINDS)


@pytest.mark.parametrize("cell", CELLS)
def test_decision_log_equals_the_recording(cell, golden):
    assert record(cell) == golden[cell]


if __name__ == "__main__":
    json.dump({cell: record(cell) for cell in CELLS}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

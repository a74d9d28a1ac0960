"""The archived trace and its summary, pinned byte for byte.

``golden_trace_digests.json`` holds, per run, the sha256 of the archive
``trace_to_json`` writes for it and the run's ``trace_summary.as_dict()``, as
recorded before the trace records got their in-package constructors and
``summarize`` became one pass.  How a record is built, stored or counted must
not move either.  The runs are every pattern of both corpora under the default
schedule, the posted stencil and a small random-access run, all at seed 0.

Four of the digests (``master-worker``, ``producer-consumer-unsync``,
``rmw-counter-getput``, ``stencil-no-barriers``) are those of that recording
plus one fix: a local access that waited for the NIC lock used to report
``start_time == end_time``; 11 / 2 / 2 / 5 ``local_read`` / ``local_write``
operation records of those runs now start when the access was asked for, and
nothing else in their archives moved.

The knob-variant rows (``stencil/ud/piggyback/delta`` and its 59 siblings)
pin the NIC's access path instead: four workloads that reach every operation
the NIC offers (two-sided sends into scatter lists, posted and blocking puts
and gets, loopback accesses, a racy buffer reuse) under every combination of
service level, clock transport and clock wire, at seeds 0 and 1 (the
``/seed-1`` rows: other latency draws and other datagram losses; the
``stencil/rc`` cells have no seed-1 row, as that workload draws no latency),
the ``ud`` rows on a fabric that drops and duplicates datagrams.  Each keeps
three digests — the trace archive, ``RunResult.metrics`` and the span trace.
The trace and span digests of the seed-0 rows were recorded while the NIC still spelled the
access sequence out once per operation, under credit flow control; the one
kernel behind them now must not move a byte of either.  Their metric digests
were re-recorded when ``nic.rnr_retries`` left the registry.  The seed-1 rows
were recorded after that, on the same kernel.

Regenerate (only for an intended change of what a run records) with::

    PYTHONPATH=src python tests/trace/test_trace_golden.py > tests/trace/golden_trace_digests.json
"""

import hashlib
import itertools
import json
import os
import sys

import pytest

from repro import RuntimeConfig
from repro.explore.controller import ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.trace.serialization import trace_to_json
from repro.workloads import (
    RandomAccessWorkload,
    RPCEchoWorkload,
    SendRecvStencilWorkload,
    VerbsStencilWorkload,
    pattern_corpus,
)
from repro.workloads.racy_patterns import rmw_pattern_corpus

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_trace_digests.json")


def _posted_stencil(seed):
    config = RuntimeConfig(clock_transport="piggyback", clock_wire="delta")
    return SendRecvStencilWorkload(world_size=4, iterations=3, config=config).build(seed)


RUNS = {
    **{pattern.name: pattern.build for pattern in pattern_corpus() + rmw_pattern_corpus()},
    "send-recv-stencil": _posted_stencil,
    "random-access": RandomAccessWorkload(world_size=4, operations_per_rank=20).build,
}


KNOB_WORKLOADS = {
    "stencil": lambda config: SendRecvStencilWorkload(4, iterations=3, config=config),
    "verbs-stencil": lambda config: VerbsStencilWorkload(4, iterations=2, config=config),
    "random-access": lambda config: RandomAccessWorkload(
        4, operations_per_rank=15, config=config
    ),
    "rpc-echo": lambda config: RPCEchoWorkload(racy_buffer_reuse=True, config=config),
}


def _knob_variant(workload, transport, clock_transport, clock_wire, seed):
    def build(_):  # the cell fixes its own seed
        config = RuntimeConfig(
            transport=transport, clock_transport=clock_transport,
            clock_wire=clock_wire, trace_spans=True,
        )
        runtime = KNOB_WORKLOADS[workload](config).build(seed)
        if transport == "ud":
            # A lossy fabric, so retransmissions, duplicate absorbs and the
            # resync subprotocol are part of what the digests pin.
            runtime.sim.install_controller(ScheduleController(ScheduleFuzzer(
                seed=7 + seed, drop_probability=0.2, duplicate_probability=0.1
            )))
        return runtime

    return build


def _knob_name(workload, transport, clock_transport, clock_wire, seed):
    name = "/".join((workload, transport, clock_transport, clock_wire))
    return f"{name}/seed-{seed}" if seed else name


KNOB_RUNS = {
    _knob_name(*cell): _knob_variant(*cell)
    for cell in itertools.product(
        KNOB_WORKLOADS, ("rc", "ud"), ("roundtrip", "piggyback"), ("full", "delta"),
        (0, 1),
    )
    # The stencil draws no latency: on a lossless fabric seed 1 reruns seed 0.
    if cell[:2] + cell[4:] != ("stencil", "rc", 1)
}


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _run(build):
    runtime = build(0)
    result = runtime.run()
    recorder = runtime.recorder
    # Without the run_info header: the knobs a run was made under are
    # provenance, and what it recorded does not depend on them.
    archive = trace_to_json(
        recorder.world_size, recorder.accesses(), recorder.operations(), recorder.syncs()
    )
    return runtime, result, _sha256(archive)


def record(name):
    """What the golden file keeps for run *name*."""
    if name in KNOB_RUNS:
        runtime, result, trace_sha256 = _run(KNOB_RUNS[name])
        assert runtime.sim.all_finished()
        return {
            "trace_sha256": trace_sha256,
            "metrics_sha256": _sha256(json.dumps(result.metrics, sort_keys=True)),
            "spans_sha256": _sha256(runtime.sim.obs.spans.to_json()),
        }
    _, result, trace_sha256 = _run(RUNS[name])
    return {
        "trace_sha256": trace_sha256,
        # Through JSON, as the file stores it (integer keys become text).
        "trace_summary": json.loads(json.dumps(result.trace_summary.as_dict())),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted([*RUNS, *KNOB_RUNS])


@pytest.mark.parametrize("name", [*RUNS, *KNOB_RUNS])
def test_archive_bytes_and_summary_equal_the_recording(name, golden):
    assert record(name) == golden[name]


if __name__ == "__main__":
    json.dump(
        {name: record(name) for name in [*RUNS, *KNOB_RUNS]},
        sys.stdout, indent=1, sort_keys=True,
    )
    sys.stdout.write("\n")

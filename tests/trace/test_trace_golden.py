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

Regenerate (only for an intended change of what a run records) with::

    PYTHONPATH=src python tests/trace/test_trace_golden.py > tests/trace/golden_trace_digests.json
"""

import hashlib
import json
import os
import sys

import pytest

from repro import RuntimeConfig
from repro.trace.serialization import trace_to_json
from repro.workloads import RandomAccessWorkload, SendRecvStencilWorkload, pattern_corpus
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


def record(name):
    """What the golden file keeps for run *name*."""
    runtime = RUNS[name](0)
    result = runtime.run()
    recorder = runtime.recorder
    # Without the run_info header: the knobs a run was made under are
    # provenance, and what it recorded does not depend on them.
    archive = trace_to_json(
        recorder.world_size, recorder.accesses(), recorder.operations(), recorder.syncs()
    )
    return {
        "trace_sha256": hashlib.sha256(archive.encode()).hexdigest(),
        # Through JSON, as the file stores it (integer keys become text).
        "trace_summary": json.loads(json.dumps(result.trace_summary.as_dict())),
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as handle:
        return json.load(handle)


def test_the_golden_file_covers_every_run(golden):
    assert sorted(golden) == sorted(RUNS)


@pytest.mark.parametrize("name", RUNS)
def test_archive_bytes_and_summary_equal_the_recording(name, golden):
    assert record(name) == golden[name]


if __name__ == "__main__":
    json.dump({name: record(name) for name in RUNS}, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")

"""E14 — scalability of the instrumented runtime with process and access count.

The paper positions detection as a debugging-scale technique ("typically,
about 10 processes", Section V-A).  The benchmark measures, for growing world
sizes and access counts, the wall-clock cost of the simulation with detection
enabled, the message overhead attributable to detection, and the clock
storage — confirming that the costs grow as the analysis predicts (linearly in
the number of remote accesses; clock storage linear in n per shared datum) and
that a 16-process debugging run remains comfortably simulable.  Each row puts
the paper's ``n³`` of process matrices (``ClockStorageModel``) beside the
entries the run holds: one vector of ``n`` per process, plus the datum clocks.
Two rows far beyond debugging scale (128 and 256 ranks) record host seconds,
peak RSS and the race count.
"""

import json
import os
import subprocess
import sys
import time

from conftest import record

import repro
from repro.analysis.overhead import clock_storage_model, detection_overhead_for
from repro.workloads.random_access import RandomAccessWorkload

WORLD_SIZES = (2, 4, 8, 16)
LARGE_WORLD_SIZES = (128, 256)

#: One default ``RandomAccessWorkload`` round, printed as a JSON row.
#: ``ru_maxrss`` is in KiB on Linux.
_LARGE_WORLD_ROW = """
import json, resource, time
from repro.workloads.random_access import RandomAccessWorkload
started = time.perf_counter()
run = RandomAccessWorkload(world_size={n}, operations_per_rank=8).run(seed=0).run
print(json.dumps({{
    "world_size": {n},
    "host_seconds": time.perf_counter() - started,
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "races": run.race_count,
    "clock_storage_entries": run.clock_storage_entries,
}}))
"""


def run_world(world_size, operations_per_rank=8):
    workload = RandomAccessWorkload(
        world_size=world_size,
        operations_per_rank=operations_per_rank,
        hotspot_fraction=0.4,
        write_fraction=0.5,
        array_length=64,
    )
    started = time.perf_counter()
    outcome = workload.run(seed=0)
    elapsed = time.perf_counter() - started
    overhead = detection_overhead_for(outcome.run)
    return {
        "world_size": world_size,
        "wall_seconds": elapsed,
        "remote_accesses": overhead["remote_accesses"],
        "detection_messages": overhead["detection_messages"],
        "detection_messages_per_access": overhead["detection_messages_per_access"],
        "clock_storage_entries": overhead["clock_storage_entries"],
        "model_process_matrix_entries": clock_storage_model(world_size, 0).process_matrix_entries,
        "races": outcome.run.race_count,
        "total_messages": outcome.run.fabric_stats.total_messages,
    }


def run_large_world(world_size):
    """One round in a fresh interpreter, so the peak RSS is that run's own."""
    source = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    path = os.pathsep.join(filter(None, (source, os.environ.get("PYTHONPATH"))))
    completed = subprocess.run(
        [sys.executable, "-c", _LARGE_WORLD_ROW.format(n=world_size)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    row = json.loads(completed.stdout)
    row["model_process_matrix_entries"] = clock_storage_model(world_size, 0).process_matrix_entries
    return row


def test_scaling_with_world_size(benchmark):
    rows = benchmark(lambda: [run_world(n) for n in WORLD_SIZES])

    # Message overhead per access is bounded by the protocol (<= 2 extra
    # messages per remote access) at every scale.
    for row in rows:
        assert row["detection_messages_per_access"] <= 2.0 + 1e-9

    # Clock storage grows with the world size (Section IV-C).
    storage = [row["clock_storage_entries"] for row in rows]
    assert storage == sorted(storage) and storage[-1] > storage[0]

    # A 16-process debugging run stays cheap to simulate (well under a minute).
    assert rows[-1]["wall_seconds"] < 60.0

    record(benchmark, experiment="E14 scaling with n", rows=rows)


def test_scaling_with_access_count(benchmark):
    """Total messages and detection messages grow linearly with accesses."""

    def measure():
        rows = []
        for operations in (4, 8, 16, 32):
            rows.append((operations, run_world(4, operations_per_rank=operations)))
        return rows

    rows = benchmark(measure)
    detection = [row["detection_messages"] for _ops, row in rows]
    accesses = [row["remote_accesses"] for _ops, row in rows]
    assert detection == sorted(detection)
    assert accesses == sorted(accesses)
    # Linearity check within a loose factor: messages per access stays flat.
    ratios = [row["detection_messages_per_access"] for _ops, row in rows]
    assert max(ratios) - min(ratios) < 0.5

    record(
        benchmark,
        experiment="E14 scaling with access count",
        rows=[{"operations_per_rank": ops, **row} for ops, row in rows],
    )


def test_a_large_world_holds_one_vector_per_process(benchmark):
    rows = benchmark.pedantic(
        lambda: [run_large_world(n) for n in LARGE_WORLD_SIZES], rounds=1, iterations=1
    )
    # The seed-0 verdicts; n³ matrices would have been 2.1 M and 16.8 M entries.
    assert [row["races"] for row in rows] == [289, 619]
    for row in rows:
        assert row["clock_storage_entries"] * 10 < row["model_process_matrix_entries"]
    record(benchmark, experiment="E14 large worlds", rows=rows)

"""repro — reproduction of Butelle & Coti, *A Model for Coherent Distributed
Memory For Race Condition Detection* (IPPS 2011).

The package simulates a cluster whose NICs offer one-sided RDMA ``put``/``get``
with OS bypass, a PGAS-style runtime on top of it, and the paper's
vector-clock race-detection algorithm instrumenting every remote memory
access.  See ``DESIGN.md`` for the system inventory and ``EXPERIMENTS.md`` for
the reproduced figures.

Quick start::

    from repro import DSMRuntime, RuntimeConfig

    runtime = DSMRuntime(RuntimeConfig(world_size=3))
    runtime.declare_scalar("a", owner=1, initial=0)

    def writer(api):
        yield from api.put("a", api.rank)

    def idle(api):
        yield from api.compute(0.0)

    runtime.set_program(0, writer)
    runtime.set_program(1, idle)
    runtime.set_program(2, writer)
    result = runtime.run()
    print(result.races.summary())
"""

from repro.core import (
    DetectorConfig,
    DualClockRaceDetector,
    RaceRecord,
    RaceReport,
    SignalPolicy,
    VectorClock,
    compare_clocks,
    concurrent,
    happens_before,
    max_clock,
)
from repro.memory import GlobalAddress, PlacementPolicy
from repro.net import Topology
from repro.runtime import DSMRuntime, ProcessAPI, RunResult, RuntimeConfig
from repro.verbs import (
    CompletionQueue,
    CompletionStatus,
    Opcode,
    QueuePair,
    VerbsContext,
    WorkCompletion,
    WorkRequest,
)

__version__ = "1.0.0"

__all__ = [
    "DetectorConfig",
    "DualClockRaceDetector",
    "RaceRecord",
    "RaceReport",
    "SignalPolicy",
    "VectorClock",
    "compare_clocks",
    "concurrent",
    "happens_before",
    "max_clock",
    "GlobalAddress",
    "PlacementPolicy",
    "Topology",
    "DSMRuntime",
    "ProcessAPI",
    "RunResult",
    "RuntimeConfig",
    "CompletionQueue",
    "CompletionStatus",
    "Opcode",
    "QueuePair",
    "VerbsContext",
    "WorkCompletion",
    "WorkRequest",
    "__version__",
]

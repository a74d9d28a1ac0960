"""E18 — credit admission under saturation, gated.

A sender overrunning a slow receiver: every SEND claims a posted receive
buffer before it transmits, and a sender that finds none stalls at home until
the receiver's next post grants one.  Each payload therefore crosses the
fabric exactly once, whatever the receiver's pace, and the run takes as long
as the receiver's posting rhythm dictates.

Writes ``BENCH_flow_control.json``; CI's perf gate (``tools/perf_gate.py``)
compares it against the committed baseline, so the message count and the
elapsed sim-time can only regress loudly.
"""

import json
import os

from conftest import record

from repro.memory.directory import PlacementPolicy
from repro.net.message import MessageKind
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

#: Where the per-push perf artifact lands (CI uploads and gates it).
BENCH_JSON = os.environ.get("REPRO_BENCH_FLOW_JSON", "BENCH_flow_control.json")

RECEIVER_THINK = 3.0
MESSAGES = 24


def _saturating_run(seed=0):
    """A blasting sender against a receiver that posts one buffer at a time."""
    runtime = DSMRuntime(RuntimeConfig(world_size=2, seed=seed))
    runtime.declare_array(
        "inbox", 8, policy=PlacementPolicy.OWNER, owner=1, initial=0
    )

    def sender(api):
        for value in range(MESSAGES):
            yield from api.isend_throttled(1, value, symbol="inbox")
        yield from api.wait_all()

    def slow_receiver(api):
        received = 0
        while received < MESSAGES:
            api.irecv(0, "inbox", index=received % 8)
            done = yield from api.wait_recv(1)
            received += len(done)
            yield from api.compute(RECEIVER_THINK)

    runtime.set_program(0, sender)
    runtime.set_program(1, slow_receiver)
    return runtime.run()


def test_credit_admission_under_saturation(benchmark):
    result = benchmark(_saturating_run)
    # The saturation is real: the sender stalled on the receiver's credits...
    assert result.metrics["flow_control.credit_stalls{rank=1}"] > 0
    # ...yet every payload crossed the wire exactly once and landed in order.
    sends = result.fabric_stats.message_count_for_kind(MessageKind.SEND_REQUEST)
    assert sends == MESSAGES
    assert result.final_shared_values["inbox"] == list(range(MESSAGES - 8, MESSAGES))
    messages = result.fabric_stats.total_messages
    sim_time = result.elapsed_sim_time
    record(
        benchmark,
        experiment="E18 / credit admission under saturation",
        credit_messages=messages,
        credit_sim_time=sim_time,
    )
    _ARTIFACT["saturation"] = {
        "credit": {"messages": messages, "sim_time": sim_time},
    }
    _flush()


_ARTIFACT = {
    "format": "repro-bench-flow-control",
    "version": 1,
    "saturation_messages": MESSAGES,
}


def _flush() -> None:
    with open(BENCH_JSON, "w") as handle:
        json.dump(_ARTIFACT, handle, indent=2, sort_keys=True)

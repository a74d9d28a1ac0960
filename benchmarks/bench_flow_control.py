"""E18 — the adaptive runtime control plane's perf claim, gated.

The control plane (``flow_control``) trades protocol chatter for explicit
state, and the knob's win is measurable on a fully seeded simulation:

* **credit vs RNR under saturation** — a sender overrunning a slow
  receiver.  RNR-retry mode blindly retransmits on every receiver-not-ready
  (each retry is a full extra data message on the fabric); credit mode
  stalls the sender locally until the receiver grants a buffer.  At equal
  payload bytes, credit must move *strictly fewer messages* (exactly the
  retransmissions disappear), suffer *zero* RNR events, and — under a
  realistically coarse RNR timer — finish *no later*.

Writes ``BENCH_flow_control.json``; CI's perf gate (``tools/perf_gate.py``)
compares it against the committed baseline, so message counts, RNR events
and elapsed sim-times can only regress loudly.
"""

import json
import os

from conftest import record

from repro.memory.directory import PlacementPolicy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

#: Where the per-push perf artifact lands (CI uploads and gates it).
BENCH_JSON = os.environ.get("REPRO_BENCH_FLOW_JSON", "BENCH_flow_control.json")

#: Real InfiniBand RNR timers are coarse (hundreds of microseconds against
#: single-digit wire latencies); the head-to-head is only honest with a
#: backoff well above the wire latency.
COARSE_BACKOFF = 8.0
RECEIVER_THINK = 3.0
MESSAGES = 24


def _saturating_run(flow_control, seed=0):
    """A blasting sender against a receiver that posts one buffer at a time."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=2,
            seed=seed,
            flow_control=flow_control,
            verbs_rnr_backoff=COARSE_BACKOFF,
        )
    )
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
    result = runtime.run()
    return {
        "result": result,
        "messages": result.fabric_stats.total_messages,
        "rnr_events": sum(nic.rnr_retries for nic in runtime.nics),
        "sim_time": result.elapsed_sim_time,
    }


def test_credit_beats_rnr_under_saturation(benchmark):
    runs = benchmark(
        lambda: {mode: _saturating_run(mode) for mode in ("rnr", "credit")}
    )
    rnr, credit = runs["rnr"], runs["credit"]
    # Identical semantics at equal payload bytes...
    assert credit["result"].race_count == rnr["result"].race_count
    assert (
        credit["result"].final_shared_values == rnr["result"].final_shared_values
    )
    # ...the saturation is real and credit mode never retries...
    assert rnr["rnr_events"] > 0
    assert credit["rnr_events"] == 0
    # ...exactly the blind retransmissions disappear from the fabric...
    assert credit["messages"] < rnr["messages"]
    assert rnr["messages"] - credit["messages"] == rnr["rnr_events"]
    # ...and under a coarse RNR timer, stalling loses no sim-time.
    assert credit["sim_time"] <= rnr["sim_time"]
    record(
        benchmark,
        experiment="E18 / credit vs RNR saturation",
        rnr_messages=rnr["messages"],
        credit_messages=credit["messages"],
        rnr_events=rnr["rnr_events"],
        rnr_sim_time=rnr["sim_time"],
        credit_sim_time=credit["sim_time"],
    )
    _ARTIFACT["saturation"] = {
        mode: {
            "messages": runs[mode]["messages"],
            "rnr_events": runs[mode]["rnr_events"],
            "sim_time": runs[mode]["sim_time"],
        }
        for mode in ("rnr", "credit")
    }
    _flush()


_ARTIFACT = {
    "format": "repro-bench-flow-control",
    "version": 1,
    "coarse_rnr_backoff": COARSE_BACKOFF,
    "saturation_messages": MESSAGES,
}


def _flush() -> None:
    with open(BENCH_JSON, "w") as handle:
        json.dump(_ARTIFACT, handle, indent=2, sort_keys=True)

"""E18 — the adaptive runtime control plane's three perf claims, gated.

The control plane (``flow_control``, ``cq_moderation_timer``,
``clock_wire_resync="adaptive"``) trades protocol chatter for explicit
state, and each knob's win is measurable on a fully seeded simulation:

* **credit vs RNR under saturation** — a sender overrunning a slow
  receiver.  RNR-retry mode blindly retransmits on every receiver-not-ready
  (each retry is a full extra data message on the fabric); credit mode
  stalls the sender locally until the receiver grants a buffer.  At equal
  payload bytes, credit must move *strictly fewer messages* (exactly the
  retransmissions disappear), suffer *zero* RNR events, and — under a
  realistically coarse RNR timer — finish *no later*.

* **(cq_count, cq_usec) moderation** — a burst of posted puts.  The timer
  coalesces completions across drain bursts, so CQE events drop below
  one-per-completion at identical verdicts and final values.

* **adaptive resync** — a busy channel in a wide world touches few clock
  components, so the self-tuning cadence stretches its resync period and
  saves clock bytes over the fixed default.

Writes ``BENCH_flow_control.json``; CI's perf gate (``tools/perf_gate.py``)
compares it against the committed baseline, so message counts, RNR events,
CQ events, clock bytes and elapsed sim-times can only regress loudly.
"""

import json
import os

from conftest import record

from repro.memory.directory import PlacementPolicy
from repro.net.clock_transport import ADAPTIVE_RESYNC_START
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


def _timer_run(timer, seed=0):
    """A burst of posted puts the moderation timer can coalesce."""
    runtime = DSMRuntime(
        RuntimeConfig(world_size=2, seed=seed, cq_moderation_timer=timer)
    )
    runtime.declare_array("cells", 8, owner=1, initial=0)

    def poster(api):
        for index in range(8):
            api.iput("cells", index + 1, index=index)
        yield from api.wait_all()

    def idle(api):
        yield from api.compute(1.0)

    runtime.set_program(0, poster)
    runtime.set_program(1, idle)
    result = runtime.run()
    cq = runtime.verbs_contexts[0].cq
    return {"result": result, "cq_events": cq.events, "sim_time": result.elapsed_sim_time}


def _resync_run(resync, world_size=8, seed=0):
    """One busy channel in a wide world: sparse frames patch ~2 of 8
    components, so the adaptive cadence stretches its period."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=world_size,
            seed=seed,
            clock_transport="piggyback",
            clock_wire="delta",
            clock_wire_resync=resync,
        )
    )
    runtime.declare_array("cells", 4, owner=1, initial=0)

    def writer(api):
        for step in range(3 * ADAPTIVE_RESYNC_START):
            yield from api.put("cells", step, index=step % 4)

    def idle(api):
        yield from api.compute(1.0)

    runtime.set_program(0, writer)
    for rank in range(1, world_size):
        runtime.set_program(rank, idle)
    result = runtime.run()
    return {
        "result": result,
        "clock_bytes": result.clock_transport_stats["piggybacked_bytes"],
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


def test_moderation_timer_coalesces_cq_events(benchmark):
    runs = benchmark(
        lambda: {timer: _timer_run(timer) for timer in (None, (4, 50.0))}
    )
    plain, moderated = runs[None], runs[(4, 50.0)]
    assert (
        moderated["result"].final_shared_values
        == plain["result"].final_shared_values
    )
    assert moderated["result"].race_count == plain["result"].race_count
    assert moderated["cq_events"] < plain["cq_events"]
    record(
        benchmark,
        experiment="E18 / CQ moderation timer",
        cq_events_unmoderated=plain["cq_events"],
        cq_events_moderated=moderated["cq_events"],
    )
    _ARTIFACT["cq_moderation_timer"] = {
        "unmoderated": {
            "cq_events": plain["cq_events"],
            "sim_time": plain["sim_time"],
        },
        "moderated": {
            "cq_events": moderated["cq_events"],
            "sim_time": moderated["sim_time"],
        },
    }
    _flush()


def test_adaptive_resync_saves_clock_bytes(benchmark):
    runs = benchmark(
        lambda: {
            resync: _resync_run(resync)
            for resync in (ADAPTIVE_RESYNC_START, "adaptive")
        }
    )
    fixed, adaptive = runs[ADAPTIVE_RESYNC_START], runs["adaptive"]
    assert adaptive["result"].race_count == fixed["result"].race_count
    assert (
        adaptive["result"].final_shared_values
        == fixed["result"].final_shared_values
    )
    assert adaptive["clock_bytes"] < fixed["clock_bytes"]
    assert adaptive["sim_time"] == fixed["sim_time"], (
        "the cadence is pure byte accounting — it cannot move sim-time"
    )
    record(
        benchmark,
        experiment="E18 / adaptive resync",
        fixed_clock_bytes=fixed["clock_bytes"],
        adaptive_clock_bytes=adaptive["clock_bytes"],
    )
    _ARTIFACT["adaptive_resync"] = {
        "fixed": {
            "clock_bytes": fixed["clock_bytes"],
            "sim_time": fixed["sim_time"],
        },
        "adaptive": {
            "clock_bytes": adaptive["clock_bytes"],
            "sim_time": adaptive["sim_time"],
        },
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

"""E19 — the UD service level's cost/soundness trade, gated.

``RuntimeConfig.transport="ud"`` swaps reliable FIFO delivery for
sequence-numbered datagrams the fabric may drop or duplicate, repaired
by receiver-driven clock resync.  Two claims, both measurable on
a fully seeded simulation:

* **quiet-fabric parity** — when nothing is dropped, UD costs exactly
  what RC costs: same message count, same payload bytes, same sim-time,
  same verdict.  The sequencing machinery is free until the fabric
  misbehaves.

* **bounded recovery** — under increasing forced drop rates, every lost
  datagram is repaired by retransmission plus at most one resync round
  trip, so fabric traffic and sim-time grow linearly-boundedly with the
  drop rate while the race verdict stays *identical* at every rate (the
  soundness contract: recovery must never stamp a stale clock and mask
  the seeded race).

Writes ``BENCH_ud_transport.json``; CI's perf gate (``tools/perf_gate.py``)
compares it against the committed baseline, so datagram counts, recovery
traffic and elapsed sim-times can only regress loudly.
"""

import json
import os

from conftest import record

from repro.explore.controller import PassthroughStrategy, ScheduleController
from repro.explore.fuzzer import ScheduleFuzzer
from repro.net.ud_transport import UD_RETRANSMIT_TIMEOUT
from repro.runtime.runtime import DSMRuntime, RuntimeConfig

#: Where the per-push perf artifact lands (CI uploads and gates it).
BENCH_JSON = os.environ.get("REPRO_BENCH_UD_JSON", "BENCH_ud_transport.json")

STORM = 24
DROP_RATES = (0.0, 0.1, 0.3)


def _build(transport, seed=0):
    """A put storm on a sparse clock wire plus one guaranteed race.

    Rank 0 reads ``shared[0]`` before the storm, rank 2 overwrites it long
    after; rank 2 receives no message, so no causal chain can ever order
    the write after the read — the race must be flagged at every drop
    rate, whatever recovery the fabric forces."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=3,
            seed=seed,
            latency="constant",
            clock_transport="piggyback",
            clock_wire="delta",
            transport=transport,
        )
    )
    runtime.declare_array("cells", 8, owner=1, initial=0)
    runtime.declare_array("shared", 1, owner=1, initial=0)

    def prober(api):
        seen = yield from api.get("shared", index=0)
        api.private.write("observed", seen)
        for step in range(STORM):
            yield from api.put("cells", step, index=step % 8)

    def owner(api):
        yield from api.compute(1.0)

    def late_writer(api):
        yield from api.compute(2000.0)
        yield from api.put("shared", 7, index=0)

    runtime.set_program(0, prober)
    runtime.set_program(1, owner)
    runtime.set_program(2, late_writer)
    return runtime


def _run(transport, drop_rate=0.0, seed=0):
    runtime = _build(transport, seed=seed)
    if drop_rate:
        strategy = ScheduleFuzzer(
            seed=7,
            reorder_probability=0.0,
            tie_shuffle_probability=0.0,
            drop_probability=drop_rate,
        )
    else:
        strategy = PassthroughStrategy()
    runtime.sim.install_controller(ScheduleController(strategy))
    result = runtime.run()
    stats = runtime.clock_transport_stats()
    return {
        "result": result,
        "messages": result.fabric_stats.total_messages,
        "bytes": result.fabric_stats.total_bytes,
        "sim_time": result.elapsed_sim_time,
        "datagrams": stats.ud_datagrams,
        "dropped": stats.ud_dropped,
        "retransmits": stats.ud_retransmits,
        "resyncs": stats.ud_resyncs,
        "resync_requests": stats.ud_resync_requests,
    }


def test_quiet_fabric_parity(benchmark):
    runs = benchmark(lambda: {mode: _run(mode) for mode in ("rc", "ud")})
    rc, ud = runs["rc"], runs["ud"]
    # The sequencing machinery is free until the fabric misbehaves:
    assert ud["messages"] == rc["messages"]
    assert ud["bytes"] == rc["bytes"]
    assert ud["sim_time"] == rc["sim_time"]
    assert ud["result"].race_count == rc["result"].race_count
    assert ud["result"].final_shared_values == rc["result"].final_shared_values
    # ...and the datagram path really ran.
    assert ud["datagrams"] > 0
    assert ud["dropped"] == ud["retransmits"] == ud["resyncs"] == 0
    record(
        benchmark,
        experiment="E19 / quiet-fabric parity",
        rc_messages=rc["messages"],
        ud_messages=ud["messages"],
        ud_datagrams=ud["datagrams"],
        sim_time=ud["sim_time"],
    )
    _ARTIFACT["quiet"] = {
        mode: {
            "messages": runs[mode]["messages"],
            "payload_bytes": runs[mode]["bytes"],
            "sim_time": runs[mode]["sim_time"],
        }
        for mode in ("rc", "ud")
    }
    _ARTIFACT["quiet"]["ud"]["datagrams"] = ud["datagrams"]
    _flush()


def test_recovery_cost_is_bounded_and_verdicts_hold(benchmark):
    runs = benchmark(
        lambda: {rate: _run("ud", drop_rate=rate) for rate in DROP_RATES}
    )
    quiet = runs[0.0]
    previous_messages = 0
    for rate in DROP_RATES:
        run = runs[rate]
        # Soundness at every rate: the seeded race is flagged, memory
        # converges to the same values, reads observed the same data.
        assert run["result"].race_count == quiet["result"].race_count
        assert run["result"].race_count >= 1
        assert (
            run["result"].final_shared_values
            == quiet["result"].final_shared_values
        )
        if rate:
            assert run["dropped"] > 0, f"rate {rate} never dropped"
            # Every drop is repaired: retransmissions flow, the datagram
            # count exceeds the quiet run's, and nothing is lost for good
            # (final memory already asserted equal above).
            assert run["retransmits"] >= 1
            assert run["datagrams"] > quiet["datagrams"]
        # ...and recovery traffic grows with the drop rate.
        assert run["messages"] >= previous_messages
        previous_messages = run["messages"]
    heavy = runs[DROP_RATES[-1]]
    assert heavy["resyncs"] >= 1, "heavy drops must exercise the resync path"
    # Each retransmission and each resync request waits at most one
    # retransmission timeout, and only when it is on the critical path.
    recovery = heavy["retransmits"] + heavy["resync_requests"]
    assert (
        quiet["sim_time"]
        <= heavy["sim_time"]
        <= quiet["sim_time"] + recovery * UD_RETRANSMIT_TIMEOUT
    )
    record(
        benchmark,
        experiment="E19 / bounded recovery",
        **{
            f"rate_{rate}_messages": runs[rate]["messages"]
            for rate in DROP_RATES
        },
        heavy_dropped=heavy["dropped"],
        heavy_resyncs=heavy["resyncs"],
    )
    _ARTIFACT["recovery"] = {
        str(rate): {
            "messages": runs[rate]["messages"],
            "payload_bytes": runs[rate]["bytes"],
            "sim_time": runs[rate]["sim_time"],
            "datagrams": runs[rate]["datagrams"],
            "dropped": runs[rate]["dropped"],
            "retransmits": runs[rate]["retransmits"],
            "resyncs": runs[rate]["resyncs"],
            "races": runs[rate]["result"].race_count,
        }
        for rate in DROP_RATES
    }
    _flush()


_ARTIFACT = {
    "format": "repro-bench-ud-transport",
    "version": 1,
    "storm_puts": STORM,
    "drop_rates": list(DROP_RATES),
}


def _flush() -> None:
    with open(BENCH_JSON, "w") as handle:
        json.dump(_ARTIFACT, handle, indent=2, sort_keys=True)

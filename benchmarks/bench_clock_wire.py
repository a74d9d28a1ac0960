"""E17 — clock wire formats: piggybacked clock bytes scale sublinearly.

The piggyback transport (E16) made clock traffic free in *messages* but not
in *bytes*: a full vector clock costs ``world_size × 8`` bytes on every data
message, so matrix-clock detection stops scaling past debugging-size worlds.
The wire-format layer fixes that: ``clock_wire="delta"``/``"truncated"``
send only the components that changed since the channel's last clock (a
full frame on first contact), which for neighbor-local communication is O(neighbors)
per message, not O(world).

This benchmark sweeps world sizes 4 → 32 over a ring of posted puts (each
rank repeatedly writes its right neighbor's inbox — per-channel clocks
change in a constant number of components between sends) and asserts the
scaling law the acceptance criteria name:

* ``full`` clock bytes per message are exactly ``world_size × 8`` — linear;
* ``delta`` and ``truncated`` grow **sublinearly** (the 4→32 growth factor
  is at most half of full's 8×), with delta at most truncated's cost;
* verdicts and message counts are identical across formats (compression is
  accounting, never semantics).

A second experiment pins the completion-coalescing half: CQ moderation
delivers one CQE per drain burst, shrinking completion events and the
batched-clock bytes charged for them, at identical verdicts and numerics.

Writes ``BENCH_clock_wire.json``; CI's perf gate (``tools/perf_gate.py``)
compares it against the committed baseline so the scaling numbers can only
regress loudly.
"""

import json
import os

from conftest import record

from repro.runtime.runtime import DSMRuntime, RuntimeConfig

#: Where the per-push perf artifact lands (CI uploads and gates it).
BENCH_JSON = os.environ.get("REPRO_BENCH_WIRE_JSON", "BENCH_clock_wire.json")

WORLD_SIZES = (4, 8, 16, 32)
WIRE_FORMATS = ("full", "delta", "truncated")
ROUNDS = 10


def _ring_run(world, wire, cq_moderation=False, seed=0):
    """Each rank streams posted puts into its right neighbor's inbox cell."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=world,
            seed=seed,
            clock_transport="piggyback",
            clock_wire=wire,
            cq_moderation=cq_moderation,
        )
    )
    runtime.declare_array("inbox", world, initial=0)

    def program(api):
        right = (api.rank + 1) % api.world_size
        for round_index in range(ROUNDS):
            request = api.iput("inbox", api.rank * 1000 + round_index, index=right)
            yield from api.wait(request)
            yield from api.compute(1.0)

    runtime.set_spmd_program(program)
    return runtime.run()


def _burst_run(cq_moderation, wire="delta", seed=0):
    """One rank posts a burst, computes through it, retires it in one go —
    the drain shape CQ moderation coalesces."""
    runtime = DSMRuntime(
        RuntimeConfig(
            world_size=3,
            seed=seed,
            clock_transport="piggyback",
            clock_wire=wire,
            cq_moderation=cq_moderation,
        )
    )
    runtime.declare_array("cells", 8, owner=1, initial=0)

    def poster(api):
        for index in range(8):
            api.iput("cells", index, index=index)
        yield from api.compute(100.0)
        yield from api.wait_all()

    def idle(api):
        yield from api.compute(0.0)

    runtime.set_program(0, poster)
    runtime.set_program(1, idle)
    runtime.set_program(2, idle)
    return runtime.run()


def _clock_bytes_per_message(result):
    stats = result.clock_transport_stats
    return stats["piggybacked_bytes"] / max(1, stats["piggybacked_messages"])


def test_delta_and_truncated_scale_sublinearly_in_world_size(benchmark):
    sweep = benchmark(
        lambda: {
            wire: {world: _ring_run(world, wire) for world in WORLD_SIZES}
            for wire in WIRE_FORMATS
        }
    )
    per_message = {
        wire: {
            world: _clock_bytes_per_message(sweep[wire][world])
            for world in WORLD_SIZES
        }
        for wire in WIRE_FORMATS
    }
    # Compression is accounting, never semantics: identical verdicts (none —
    # single writer per inbox cell) and identical message counts per world.
    for world in WORLD_SIZES:
        baseline = sweep["full"][world]
        assert baseline.race_count == 0
        for wire in ("delta", "truncated"):
            assert sweep[wire][world].race_count == 0
            assert (
                sweep[wire][world].fabric_stats.total_messages
                == baseline.fabric_stats.total_messages
            )
    # Full is exactly linear: the whole vector on every rider.
    for world in WORLD_SIZES:
        assert per_message["full"][world] == world * 8
    smallest, largest = WORLD_SIZES[0], WORLD_SIZES[-1]
    linear_growth = largest / smallest  # 8x for 4 -> 32
    assert per_message["full"][largest] / per_message["full"][smallest] == linear_growth
    # Delta/truncated grow sublinearly: at most half the linear factor over
    # the same sweep (ring traffic changes O(1) components per message).
    for wire in ("delta", "truncated"):
        growth = per_message[wire][largest] / per_message[wire][smallest]
        assert growth <= linear_growth / 2, (
            f"{wire}: clock bytes per message grew {growth:.2f}x from "
            f"{smallest} to {largest} ranks — not sublinear"
        )
        # And strictly cheaper than full at every world size past the smallest.
        for world in WORLD_SIZES[1:]:
            assert per_message[wire][world] < per_message["full"][world]
    # Delta entries (rank + increment) are at most truncated's (rank + value).
    for world in WORLD_SIZES:
        assert per_message["delta"][world] <= per_message["truncated"][world]
    record(
        benchmark,
        experiment="E17 / clock wire scaling",
        **{
            f"{wire}_bytes_per_msg_w{world}": round(per_message[wire][world], 2)
            for wire in WIRE_FORMATS
            for world in WORLD_SIZES
        },
    )
    _write_artifact(sweep, per_message)


def test_cq_moderation_coalesces_completion_traffic(benchmark):
    results = benchmark(
        lambda: {moderated: _burst_run(moderated) for moderated in (False, True)}
    )
    off, on = results[False], results[True]
    # Verdict- and value-identical...
    assert off.race_count == on.race_count == 0
    assert off.final_shared_values == on.final_shared_values
    stats_off, stats_on = off.clock_transport_stats, on.clock_transport_stats
    # ...with one CQE per drain burst instead of one per completion...
    assert stats_on["completion_events"] < stats_off["completion_events"]
    assert stats_on["completions_coalesced"] > 0
    # ...so the batched retirement clock is charged once per burst.
    assert stats_on["completion_clock_bytes"] < stats_off["completion_clock_bytes"]
    record(
        benchmark,
        experiment="E17 / CQ moderation",
        events_unmoderated=stats_off["completion_events"],
        events_moderated=stats_on["completion_events"],
        completion_clock_bytes_unmoderated=stats_off["completion_clock_bytes"],
        completion_clock_bytes_moderated=stats_on["completion_clock_bytes"],
    )
    _write_moderation(stats_off, stats_on)


_ARTIFACT = {
    "format": "repro-bench-clock-wire",
    "version": 1,
    "world_sizes": list(WORLD_SIZES),
    "wire_formats": list(WIRE_FORMATS),
}


def _write_artifact(sweep, per_message) -> None:
    _ARTIFACT["clock_bytes_per_message"] = {
        wire: {str(world): round(per_message[wire][world], 3) for world in WORLD_SIZES}
        for wire in WIRE_FORMATS
    }
    _ARTIFACT["piggybacked_bytes"] = {
        wire: {
            str(world): sweep[wire][world].clock_transport_stats["piggybacked_bytes"]
            for world in WORLD_SIZES
        }
        for wire in WIRE_FORMATS
    }
    _ARTIFACT["total_messages"] = {
        wire: {
            str(world): sweep[wire][world].fabric_stats.total_messages
            for world in WORLD_SIZES
        }
        for wire in WIRE_FORMATS
    }
    _flush()


def _write_moderation(stats_off, stats_on) -> None:
    _ARTIFACT["cq_moderation"] = {
        "completion_events_unmoderated": stats_off["completion_events"],
        "completion_events_moderated": stats_on["completion_events"],
        "completion_clock_bytes_unmoderated": stats_off["completion_clock_bytes"],
        "completion_clock_bytes_moderated": stats_on["completion_clock_bytes"],
        "completions_coalesced": stats_on["completions_coalesced"],
    }
    _flush()


def _flush() -> None:
    with open(BENCH_JSON, "w") as handle:
        json.dump(_ARTIFACT, handle, indent=2, sort_keys=True)

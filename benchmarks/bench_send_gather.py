"""E15 — gathered SEND vs per-cell puts: same bytes moved, fewer messages.

The scatter/gather claim of the two-sided verbs layer: moving a k-cell
boundary plane as ONE gathered SEND into a posted receive buffer must beat k
individually posted puts on every axis the model accounts for —

* **message count**: one SEND_REQUEST vs k PUT_DATA messages per plane
  (the receive side costs no wire traffic: buffers are posted locally);
* **payload bytes**: identical — ``k * cell_bytes`` either way, so the win
  is pure message-count/overhead, not data compression;
* **detection traffic**: one batched clock round trip per SEND message vs
  one per put (the scattered cells share a target, their clocks travel
  together);
* **simulated completion time**: strictly smaller, with identical numerics
  (the transport is invisible to the Jacobi relaxation).

:class:`~repro.workloads.send_recv_stencil.SendRecvStencilWorkload` runs the
same multi-plane stencil under both transports; the receive buffers are
pre-posted, so no SEND ever stalls on a receive credit (asserted).
"""

import os

from conftest import record

from repro.net.message import HEADER_BYTES
from repro.runtime.runtime import RuntimeConfig
from repro.workloads import SendRecvStencilWorkload

WORLD, CELLS, PLANE, ITERS, COST = 4, 6, 4, 3, 1.0
#: The CI clock-transport smoke job re-runs this whole file with
#: ``REPRO_CLOCK_TRANSPORT=piggyback``: every claim must hold under both
#: transports (on this race-free workload they give the same verdicts and
#: numerics; a transport changes timing, never the check).
CLOCK_TRANSPORT = os.environ.get("REPRO_CLOCK_TRANSPORT", "roundtrip")


def _pair(seed: int, plane=PLANE, world=WORLD):
    send = SendRecvStencilWorkload(
        world_size=world, cells_per_rank=CELLS, plane_width=plane,
        iterations=ITERS, compute_cost=COST, transport="send",
        config=RuntimeConfig(clock_transport=CLOCK_TRANSPORT),
    ).run(seed)
    puts = SendRecvStencilWorkload(
        world_size=world, cells_per_rank=CELLS, plane_width=plane,
        iterations=ITERS, compute_cost=COST, transport="puts",
        config=RuntimeConfig(clock_transport=CLOCK_TRANSPORT),
    ).run(seed)
    return send, puts


def _payload_bytes(run):
    """Data bytes net of headers and piggybacked clocks: what the app moved."""
    stats = run.fabric_stats
    return (
        stats.data_bytes
        - stats.data_messages * HEADER_BYTES
        - run.clock_transport_stats.get("piggybacked_bytes", 0)
    )


def test_gathered_send_same_bytes_fewer_messages(benchmark):
    benchmark(lambda: _pair(0))
    for seed in (0, 1, 2):
        send, puts = _pair(seed)
        # The transport must be invisible to the numerics and to detection.
        for rank in range(WORLD):
            assert (
                send.run.per_rank_private[rank]["tile"]
                == puts.run.per_rank_private[rank]["tile"]
            ), "gathered sends must not change the numerics"
        assert send.run.race_count == 0 and puts.run.race_count == 0
        # Same application bytes on the wire...
        assert _payload_bytes(send.run) == _payload_bytes(puts.run), "both transports must move exactly the same payload bytes"
        # ...carried by strictly fewer messages...
        assert (
            send.run.fabric_stats.data_messages
            < puts.run.fabric_stats.data_messages
        ), "the gathered plane must use fewer messages than per-cell puts"
        # ...with no SEND waiting for a receive buffer.
        assert not any(
            value
            for key, value in send.run.metrics.items()
            if key.startswith("flow_control.credit_stalls")
        ), "pre-posted receives must admit every SEND at once"
        # ...and a strictly faster exchange.
        assert send.run.elapsed_sim_time < puts.run.elapsed_sim_time
    send, puts = _pair(0)
    record(
        benchmark,
        experiment="E15 / gathered send vs per-cell puts",
        plane_width=PLANE,
        data_messages_send=send.run.fabric_stats.data_messages,
        data_messages_puts=puts.run.fabric_stats.data_messages,
        payload_bytes=_payload_bytes(send.run),
        time_send=round(send.run.elapsed_sim_time, 3),
        time_puts=round(puts.run.elapsed_sim_time, 3),
    )


def test_message_saving_grows_with_plane_width(benchmark):
    """k cells per plane -> the puts transport pays ~k messages per exchange
    where the send transport pays 1; the ratio must grow with k."""

    def sweep():
        ratios = {}
        for plane in (2, 4, 8):
            send, puts = _pair(0, plane=plane)
            ratios[plane] = (
                puts.run.fabric_stats.data_messages
                / send.run.fabric_stats.data_messages
            )
        return ratios

    ratios = benchmark(sweep)
    assert ratios[4] > ratios[2] and ratios[8] > ratios[4], (
        "message saving must grow with the plane width"
    )
    record(
        benchmark,
        experiment="E15 / plane-width sweep",
        message_ratios={str(k): round(v, 2) for k, v in ratios.items()},
    )


def test_detection_overhead_shrinks_with_gathered_sends(benchmark):
    """One batched clock per SEND message vs one per put: the detection
    traffic attributable to the exchange must shrink — dedicated round
    trips under the roundtrip transport, piggybacked clock bytes under
    piggyback (where no CLOCK message ever crosses the fabric)."""

    def run():
        return _pair(0)

    send, puts = benchmark(run)
    if CLOCK_TRANSPORT == "piggyback":
        assert send.run.fabric_stats.detection_messages == 0
        assert puts.run.fabric_stats.detection_messages == 0
        assert (
            send.run.clock_transport_stats["piggybacked_bytes"]
            < puts.run.clock_transport_stats["piggybacked_bytes"]
        ), "fewer data messages must mean fewer piggybacked clocks"
    else:
        assert (
            send.run.fabric_stats.detection_messages
            < puts.run.fabric_stats.detection_messages
        ), "batched clock traffic must beat per-cell clock round trips"
    record(
        benchmark,
        experiment="E15 / detection overhead",
        clock_transport=CLOCK_TRANSPORT,
        detection_messages_send=send.run.fabric_stats.detection_messages,
        detection_messages_puts=puts.run.fabric_stats.detection_messages,
    )

"""RPC echo server over SEND/RECV, a shared receive queue and an event channel.

The reactive-server workload the one-sided model cannot express: rank 0 never
polls specific peers and never names their memory.  It posts a pool of
receive slots to an SRQ, attaches its receive *and* send completion queues to
one event channel, and sits in a completion-driven loop — every handled
receive reposts the consumed slot (the canonical SRQ replenish pattern) and
answers with a SEND into whatever reply buffer the client posted.  Clients
issue ``requests_per_client`` RPCs each: post the reply buffer, SEND the
request, wait for both completions, check the echo.

This is the programming model of the hybrid runtimes (MPI-over-verbs style)
the ROADMAP names: two-sided matching for control flow, with the detector
observing every landed payload cell as an ordinary write plus the matching
happens-before edge.

``srq_replenish="bulk"`` switches the server from per-completion reposting
to the low-watermark pattern of real SRQ deployments: consumed slots are
parked until the armed ``IBV_EVENT_SRQ_LIMIT_REACHED`` analogue fires, then
reposted in one burst and the limit re-armed.

``racy_buffer_reuse`` injects the classic two-sided bug: after posting its
reply buffer and firing the request, the client computes for ``reuse_delay``
— roughly a round trip, so the timing straddles the reply's arrival — and
then scribbles a sentinel into the buffer's first cell instead of waiting
for the reply completion.  The server's reply scatter and the client's local
write are causally unordered in *every* schedule (two-sided delivery only
synchronizes the receiver when it retires the completion, which the buggy
client has not done yet), the final cell value genuinely depends on which
write lands last, and the dual-clock detector must flag it with no false
negatives.
"""

from __future__ import annotations

from typing import Optional, Set

from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.util.validation import require_positive
from repro.verbs.work import Opcode
from repro.workloads.base import WorkloadScenario


class RPCEchoWorkload(WorkloadScenario):
    """Completion-driven RPC echo: SRQ server, SEND/RECV clients."""

    name = "rpc-echo-srq"

    def __init__(
        self,
        num_clients: int = 3,
        requests_per_client: int = 2,
        payload_cells: int = 2,
        compute_between: float = 1.0,
        racy_buffer_reuse: bool = False,
        reuse_delay: float = 12.0,
        srq_replenish: str = "per-completion",
        srq_limit: Optional[int] = None,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(config)
        require_positive(num_clients, "num_clients")
        require_positive(requests_per_client, "requests_per_client")
        require_positive(payload_cells, "payload_cells")
        if srq_replenish not in ("per-completion", "bulk"):
            raise ValueError(
                f"srq_replenish must be 'per-completion' or 'bulk', "
                f"got {srq_replenish!r}"
            )
        self.num_clients = num_clients
        self.requests_per_client = requests_per_client
        self.payload_cells = payload_cells
        self.compute_between = compute_between
        self.racy_buffer_reuse = racy_buffer_reuse
        self.reuse_delay = reuse_delay
        #: How the server refills its SRQ: ``"per-completion"`` reposts each
        #: consumed slot from the handler (the PR-2 behaviour); ``"bulk"``
        #: parks consumed slots and reposts them all when the SRQ's
        #: low-watermark limit event fires (the
        #: ``IBV_EVENT_SRQ_LIMIT_REACHED`` replenish pattern).
        self.srq_replenish = srq_replenish
        #: The armed low watermark in bulk mode (default: half the pool,
        #: at least one).
        self.srq_limit = srq_limit if srq_limit is not None else max(1, num_clients // 2)
        self.world_size = num_clients + 1
        self.total_requests = num_clients * requests_per_client
        self.expected_racy = racy_buffer_reuse
        self.expected_racy_symbols: Set[str] = (
            {f"reply{rank}" for rank in range(1, self.world_size)}
            if racy_buffer_reuse
            else set()
        )

    def build(self, seed: int = 0) -> DSMRuntime:
        """Server = rank 0; every other rank is a client with its own reply buffer."""
        runtime = DSMRuntime(
            self._config_for_seed(
                seed,
                world_size=self.world_size,
                latency="uniform",
            )
        )
        # One request slot per client is enough: each consumed slot is
        # reposted from inside the completion handler before the reply goes
        # out, so the pool never drains below num_clients - in_flight.
        slots = self.num_clients
        runtime.declare_array(
            "rpc_slots", slots * self.payload_cells, owner=0, initial=0
        )
        for rank in range(1, self.world_size):
            runtime.declare_array(
                f"reply{rank}", self.payload_cells, owner=rank, initial=0
            )
        runtime.declare_srq(0)
        workload = self

        def server(api):
            for slot in range(slots):
                api.post_srq_recv(
                    "rpc_slots",
                    indices=range(
                        slot * workload.payload_cells,
                        (slot + 1) * workload.payload_cells,
                    ),
                )
            bulk = workload.srq_replenish == "bulk"
            if bulk:
                api.arm_srq_limit(workload.srq_limit)
            channel = api.verbs.create_event_channel()
            channel.attach(api.verbs.recv_cq)
            channel.attach(api.verbs.cq)
            progress = {"served": 0, "echoed": 0, "bulk_replenishes": 0}
            free_slots = []

            def handle(completion):
                if completion.opcode is Opcode.RECV:
                    if bulk:
                        # Park the consumed slot; the SRQ limit event is the
                        # replenish trigger.  A drained pool in the meantime
                        # stalls the clients' SENDs on the SRQ's credit gate
                        # until the bulk repost grants them credits.
                        free_slots.append(completion.addresses)
                        if api.take_srq_limit_event():
                            for addresses in free_slots:
                                api.verbs.post_srq_recv(
                                    addresses, symbol="rpc_slots"
                                )
                            free_slots.clear()
                            progress["bulk_replenishes"] += 1
                            api.arm_srq_limit(workload.srq_limit)
                    else:
                        # Replenish the consumed slot first: it is the credit
                        # a client's next request may already be waiting on.
                        api.verbs.post_srq_recv(
                            completion.addresses, symbol="rpc_slots"
                        )
                    api.isend(
                        completion.peer,
                        [value * 2 for value in completion.value],
                        symbol=f"reply{completion.peer}",
                    )
                    progress["served"] += 1
                else:  # the echo SEND retired on the send CQ
                    progress["echoed"] += 1

            handled = yield from channel.serve(
                handle,
                stop=lambda: progress["echoed"] >= workload.total_requests,
            )
            api.private.write("served", progress["served"])
            api.private.write("echoed", progress["echoed"])
            api.private.write("events_handled", handled)
            api.private.write("bulk_replenishes", progress["bulk_replenishes"])

        def client(api):
            replies = []
            for i in range(workload.requests_per_client):
                api.irecv(
                    0, f"reply{api.rank}", indices=range(workload.payload_cells)
                )
                request_payload = [
                    api.rank * 100 + i * 10 + cell
                    for cell in range(workload.payload_cells)
                ]
                send_request = api.isend(0, request_payload, symbol="rpc_slots")
                if workload.racy_buffer_reuse:
                    # The bug: reuse the posted reply buffer before the reply
                    # completion retires.  The delay makes the scribble land
                    # before the reply in some schedules and after it in
                    # others — the outcome genuinely diverges, and the
                    # detector must flag the pair either way.
                    yield from api.compute(workload.reuse_delay)
                    yield from api.put(f"reply{api.rank}", -1, index=0)
                yield from api.wait(send_request)
                (reply,) = yield from api.wait_recv(1)
                replies.append(list(reply.value))
                yield from api.compute(workload.compute_between)
            api.private.write("replies", replies)
            api.private.write(
                "all_echoed",
                all(
                    reply == [(api.rank * 100 + i * 10 + cell) * 2
                              for cell in range(workload.payload_cells)]
                    for i, reply in enumerate(replies)
                ),
            )

        runtime.set_program(0, server)
        for rank in range(1, self.world_size):
            runtime.set_program(rank, client)
        return runtime

"""Producer/consumer hand-off through a shared buffer and a ready flag.

The producer writes a payload into a shared buffer owned by the consumer and
then raises a shared flag; the consumer reads the flag and, when it sees it
raised, reads the buffer.  Without any synchronization primitive the flag and
buffer accesses are causally unordered: the consumer can read the flag before
the producer's write lands (observing "not ready"), or — worse, on a fabric
that does not order the two puts — see the flag raised while the buffer still
holds stale data.  This is the canonical *true* race and the detector must
flag it.

``synchronized=True`` replaces the flag protocol with a barrier between the
producer's writes and the consumer's reads, restoring a happens-before edge;
the detector must then stay silent and the consumer always observes the full
payload.
"""

from __future__ import annotations

from typing import Optional

from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.workloads.base import WorkloadScenario
from repro.util.validation import require_positive


class ProducerConsumerWorkload(WorkloadScenario):
    """Flag/buffer hand-off between one producer and one consumer."""

    name = "producer-consumer"

    def __init__(
        self,
        payload_cells: int = 4,
        consumer_delay: float = 3.0,
        synchronized: bool = False,
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(config)
        require_positive(payload_cells, "payload_cells")
        self.payload_cells = payload_cells
        self.consumer_delay = consumer_delay
        self.synchronized = synchronized
        self.expected_racy = not synchronized
        self.expected_racy_symbols = (
            {"flag", "buffer"} if self.expected_racy else set()
        )
        self.world_size = 2

    @staticmethod
    def payload(index: int) -> str:
        """Deterministic payload contents."""
        return f"item-{index}"

    def build(self, seed: int = 0) -> DSMRuntime:
        """Rank 0 produces, rank 1 consumes; both shared objects live on rank 1."""
        runtime = DSMRuntime(
            self._config_for_seed(seed, world_size=2, latency="uniform")
        )
        runtime.declare_array("buffer", self.payload_cells, owner=1, initial=None)
        runtime.declare_scalar("flag", owner=1, initial=0)
        workload = self

        def producer(api):
            for index in range(workload.payload_cells):
                yield from api.put("buffer", workload.payload(index), index=index)
            if workload.synchronized:
                # A barrier is the explicit synchronization that orders the
                # consumer's reads after every write.
                yield from api.barrier()
            else:
                yield from api.put("flag", 1)

        def consumer(api):
            # The consumer's think time is drawn from the seeded stream so that
            # different seeds place its reads at different points of the
            # producer's write sequence — this is what lets the seed-varying
            # oracle observe the divergent outcomes of the race.
            rng = api.random_stream("workload.producer_consumer.consumer")
            yield from api.compute(workload.consumer_delay * (0.5 + float(rng.uniform())))
            if workload.synchronized:
                yield from api.barrier()
            else:
                ready = yield from api.get("flag")
                api.private.write("saw_flag", ready)
            received = []
            for index in range(workload.payload_cells):
                value = yield from api.get("buffer", index=index)
                received.append(value)
            api.private.write("received", received)

        runtime.set_program(0, producer)
        runtime.set_program(1, consumer)
        return runtime

"""Completion event channels: select over several CQs, react on arrival.

Real-verbs analogue: ``ibv_comp_channel`` / ``ibv_create_comp_channel`` /
``ibv_get_cq_event``.

:meth:`CompletionQueue.wait` blocks one process on one queue, which is enough
for SPMD phases but not for a server that owns several completion queues
(e.g. a receive CQ fed by an SRQ plus a send CQ for the replies) and must
react to whichever fires first.  An :class:`EventChannel` is the missing
multiplexer: completion queues *attach* to a channel, a consumer *arms* a CQ
to request one notification (``ibv_req_notify_cq``), and :meth:`wait` returns
whichever armed CQ produced a completion — the ``select()`` of the verbs
world.  :meth:`serve` wraps the canonical event loop (wait, drain, handle,
re-arm) so reactive server programs reduce to a completion handler callback.

Posting work never blocks in this model, so handlers are free to post sends
and receives directly — the RPC echo server answers requests entirely from
inside its handler.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.obs.observability import Observability
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.verbs.completion_queue import CompletionQueue
from repro.verbs.work import WorkCompletion


class EventChannel:
    """Multiplexes completion notifications from several completion queues."""

    def __init__(self, sim: Simulator, name: Optional[str] = None) -> None:
        self._sim = sim
        self.name = name or "comp-channel"
        self._attached: List[CompletionQueue] = []
        #: CQs that fired while nobody was waiting, in notification order.
        self._pending: List[CompletionQueue] = []
        self._waiters: List[Event] = []
        self.events_delivered = 0

    # -- wiring -------------------------------------------------------------------

    def attach(self, cq: CompletionQueue) -> CompletionQueue:
        """Bind *cq* to this channel; it still needs :meth:`~CompletionQueue.arm`."""
        cq.set_channel(self)
        if cq not in self._attached:
            self._attached.append(cq)
        return cq

    @property
    def attached(self) -> List[CompletionQueue]:
        """The completion queues bound to this channel, in attach order."""
        return list(self._attached)

    def arm_all(self) -> None:
        """Request one notification from every attached CQ."""
        for cq in self._attached:
            cq.arm()

    # -- producer side (called by CompletionQueue) -----------------------------------

    def _notify(self, cq: CompletionQueue) -> None:
        """One armed CQ has completions; wake one waiter or queue the event."""
        self.events_delivered += 1
        if self._waiters:
            self._waiters.pop(0).succeed(cq)
        else:
            self._pending.append(cq)

    # -- consumer side ------------------------------------------------------------------

    def poll(self) -> Optional[CompletionQueue]:
        """Return the next notified CQ without blocking, or ``None``."""
        if self._pending:
            return self._pending.pop(0)
        return None

    def wait(self):
        """Generator: block until some armed CQ fires; returns that CQ.

        The ``ibv_get_cq_event`` idiom: the caller then drains the CQ with
        ``poll()`` and re-arms it before waiting again.  Events queued while
        nobody was waiting are delivered first, in notification order.
        """
        if self._pending:
            return self._pending.pop(0)
        gate = self._sim.event(name=f"{self.name}:wait")
        self._waiters.append(gate)
        wait_started = self._sim._now
        yield gate
        Observability.of(self._sim).spans.complete(
            self._wait_track(), "evch_wait", wait_started, self._sim._now,
            channel=self.name,
        )
        return gate.value

    def _wait_track(self) -> str:
        """The rank track blocked waits render on (the channel's own name if
        it is not rank-suffixed)."""
        tail = self.name.rsplit("P", 1)[-1] if "P" in self.name else ""
        return f"rank-P{tail}" if tail.isdigit() else self.name

    def serve(
        self,
        handler: Callable[[WorkCompletion], None],
        stop: Callable[[], bool],
    ):
        """Generator: the canonical completion-driven event loop.

        Arms every attached CQ, then repeats *wait → drain → handle → re-arm*
        until ``stop()`` returns true (checked before each wait and after
        each drained batch, so a handler that satisfies the stop condition
        terminates the loop without waiting for another event).  Returns the
        number of completions handled.
        """
        self.arm_all()
        handled = 0
        while not stop():
            cq = yield from self.wait()
            for completion in cq.poll():
                handler(completion)
                handled += 1
            cq.arm()
        return handled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EventChannel {self.name} cqs={len(self._attached)} "
            f"pending={len(self._pending)}>"
        )

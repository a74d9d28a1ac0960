"""The unreliable-datagram (UD) service level.

RC — everything this simulation modelled before — is the reliable connected
transport: per-pair FIFO delivery, no loss.  The lockstep ``clock_wire``
codecs lean on exactly that promise (a sparse frame is a patch against *the
previous frame on the channel*).  This module models **unreliable
datagrams**: messages the fabric may lose or deliver twice.

The moving parts:

* :meth:`Fabric.send_datagram` — a datagram's fate is a ``drop`` decision
  (deliver, drop or duplicate).  A delivered datagram crosses the pair's one
  :class:`~repro.net.channel.Channel` like any other message: the same
  ``latency`` decision, FIFO clamp and same-time tie rule.

* :class:`UdEndpoint` — per-NIC datagram state.  The transmit side assigns
  each clock-carrying datagram a per-destination sequence number and files
  the exact clock it carried (the resync history); the receive side tracks,
  per source, the highest sequence its wire view has absorbed and decides
  each arriving frame's verdict: ``"exact"`` (stampable as-is), ``"gap"``
  (a sparse frame that is not the view's successor) or ``"duplicate"``
  (already absorbed; idempotent).

* :exc:`UdDeliveryExceeded` — a datagram (or its resync subprotocol) burnt
  the whole retransmission budget; surfaces as a failed work completion in
  the verbs layer.

Soundness contract: the detector always stamps the *in-process* carried
clock, and the UD machinery decides whether the receiver's wire view could
have reconstructed it — absorbing it directly when it could, running the
charged receiver-driven resync round trip (which fetches the exact
historical full frame for that sequence, never the sender's *current*
clock) when it could not.  A stale clock is therefore never stamped and no
false happens-before edge is ever introduced, whatever the fabric drops.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

#: The service levels a runtime/NIC can be configured with.
TRANSPORT_MODES = ("rc", "ud")

#: Simulated time a UD sender waits for a datagram it cannot see delivered
#: before retransmitting (also the receiver's re-request deadline for lost
#: resync traffic).
UD_RETRANSMIT_TIMEOUT = 8.0


def validate_transport(mode: str) -> str:
    """Return *mode* if it names a transport, else raise ``ValueError``."""
    if mode not in TRANSPORT_MODES:
        raise ValueError(
            f"transport must be one of {TRANSPORT_MODES}, got {mode!r}"
        )
    return mode


class UdDeliveryExceeded(RuntimeError):
    """A UD datagram exhausted its retransmission budget.

    The verbs layer reports it as a failed work completion
    (``CompletionStatus.UD_DELIVERY_EXCEEDED``) instead of letting it
    propagate out of the queue pair.
    """


class UdEndpoint:
    """Per-NIC UD datagram state: tx sequences + history, rx view.

    Transmit side (keyed by destination rank): a monotonically increasing
    1-based sequence number per destination, and the **resync history** —
    the exact frozen clock each sequence number carried.  A resync reply
    serves the *historical* clock for the requested sequence, never the
    sender's current one: answering with a newer clock would add
    happens-before edges the receiver never observed and silently mask
    races.

    Receive side (keyed by source rank): ``view_seq``, the sequence the
    receiver's reconstructed wire view corresponds to, plus the set of
    absorbed sequences (for idempotent duplicate handling).  A sparse frame
    is appliable exactly when it is the view's direct successor; a full
    frame is always appliable.
    """

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self._next_seq: Dict[int, int] = {}
        self._history: Dict[int, Dict[int, Optional[tuple]]] = {}
        self._view_seq: Dict[int, int] = {}
        self._absorbed: Dict[int, Set[int]] = {}

    # -- transmit side -------------------------------------------------------------

    def assign_seq(self, destination: int, clock_entries: Optional[tuple]) -> int:
        """Sequence the next datagram to *destination*; file its clock."""
        seq = self._next_seq.get(destination, 0) + 1
        self._next_seq[destination] = seq
        self._history.setdefault(destination, {})[seq] = (
            None if clock_entries is None else tuple(clock_entries)
        )
        return seq

    def historical_clock(self, destination: int, seq: int) -> Optional[tuple]:
        """The exact clock datagram *seq* to *destination* carried."""
        return self._history.get(destination, {}).get(seq)

    # -- receive side --------------------------------------------------------------

    def view_seq(self, source: int) -> int:
        """The sequence this receiver's wire view of *source* sits at."""
        return self._view_seq.get(source, 0)

    def absorb(self, source: int, seq: int, frame: Optional[str]) -> str:
        """Admit one arriving datagram's clock frame into the wire view.

        Returns the verdict: ``"exact"`` (absorbed — a full frame, a
        frame-less datagram, or the in-order next sparse frame),
        ``"duplicate"`` (this sequence was already absorbed; idempotent
        no-op) or ``"gap"`` (a sparse frame that is not the view's
        successor).  The caller must run the resync subprotocol for
        ``"gap"`` and then call :meth:`mark_resynced`.
        """
        seen = self._absorbed.setdefault(source, set())
        if seq in seen:
            return "duplicate"
        view = self._view_seq.get(source, 0)
        if frame == "sparse" and seq != view + 1:
            return "gap"
        seen.add(seq)
        self._view_seq[source] = max(view, seq)
        return "exact"

    def mark_resynced(self, source: int, seq: int) -> None:
        """Record that a resync round trip recovered sequence *seq*.

        The view only ever advances: recovering a sequence below it must not
        rewind the in-order view later sparse frames patch against.
        """
        self._absorbed.setdefault(source, set()).add(seq)
        self._view_seq[source] = max(self._view_seq.get(source, 0), seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sent = sum(self._next_seq.values())
        return f"<UdEndpoint P{self.rank} sent={sent}>"

"""Latency models for the simulated interconnect.

The detection algorithm is insensitive to absolute latencies, but the *shape*
of an execution (which access reaches a datum first) is determined by message
timing, so the latency model is what generates the different legal
interleavings the ground-truth oracle explores.  Three models are provided:

* :class:`ConstantLatency` — fixed per-hop latency; gives
  fully deterministic executions (used by the figure-scenario benchmarks so
  the clock values printed match run after run);
* :class:`UniformLatency` — per-message jitter drawn from a seeded stream;
  different seeds yield different interleavings (used by the oracle and the
  workload benchmarks);
* :class:`LogGPLatency` — a LogGP-flavoured model (``L + o_s + o_r + k·G``)
  matching how RDMA fabrics are usually characterized in the HPC literature.
"""

from __future__ import annotations

import abc
from typing import Optional

from repro.net.message import Message
from repro.sim.rng import RandomStreams
from repro.util.validation import require_non_negative


class LatencyModel(abc.ABC):
    """Maps a message (and hop count) to a flight time."""

    @abc.abstractmethod
    def latency(self, message: Message, hops: int = 1) -> float:
        """Return the flight time for *message* across *hops* links.

        *hops* is trusted: :class:`~repro.net.channel.Channel` validates it
        once, at construction, and asks with that same value per message.
        """

    def describe(self) -> str:
        """One-line description used in benchmark output."""
        return self.__class__.__name__


class ConstantLatency(LatencyModel):
    """Fixed latency per hop, whatever the message's size."""

    def __init__(self, base: float = 1.0) -> None:
        require_non_negative(base, "base")
        self.base = base

    def latency(self, message: Message, hops: int = 1) -> float:
        return self.base * max(1, hops)

    def describe(self) -> str:
        return f"constant(base={self.base})"


class UniformLatency(LatencyModel):
    """Latency drawn uniformly from ``[low, high]`` per message, per hop.

    The draw comes from the ``net.latency`` stream of the simulator's
    :class:`~repro.sim.rng.RandomStreams`, so the same seed reproduces the
    same interleaving and different seeds perturb it.
    """

    def __init__(
        self,
        streams: RandomStreams,
        low: float = 0.5,
        high: float = 1.5,
    ) -> None:
        if high < low:
            raise ValueError(f"latency bounds reversed: [{low}, {high}]")
        require_non_negative(low, "low")
        self._streams = streams
        #: The stream's live block: a one-hop draw pops its double here.
        self._block = streams.uniform_block("net.latency")
        self.low = low
        self.high = high

    def latency(self, message: Message, hops: int = 1) -> float:
        # One draw per hop, summed from 0.0; a single hop is its draw
        # (``0.0 + x == x``), so only a multi-hop pair loops.  A one-hop draw
        # is ``RandomStreams.uniform``'s own arithmetic on the next block
        # double, in this frame; an empty block asks ``uniform`` to refill.
        if hops <= 1:
            block = self._block
            if block:
                low = self.low
                return float(low + (self.high - low) * block.pop())
            return self._streams.uniform("net.latency", self.low, self.high)
        total = 0.0
        for _ in range(hops):
            total += self._streams.uniform("net.latency", self.low, self.high)
        return total

    def describe(self) -> str:
        return f"uniform([{self.low}, {self.high}])"


class LogGPLatency(LatencyModel):
    """A LogGP-style model: ``L·hops + o_send + o_recv + bytes·G``.

    Parameters use the conventional meanings: ``L`` wire latency per hop,
    ``o`` CPU/NIC overhead at each end, ``G`` gap per byte (inverse
    bandwidth).  Defaults are loosely calibrated to an InfiniBand-class
    fabric expressed in microseconds.
    """

    def __init__(
        self,
        L: float = 1.0,
        o_send: float = 0.3,
        o_recv: float = 0.3,
        G: float = 0.001,
        jitter: Optional[RandomStreams] = None,
        jitter_fraction: float = 0.0,
    ) -> None:
        require_non_negative(L, "L")
        require_non_negative(o_send, "o_send")
        require_non_negative(o_recv, "o_recv")
        require_non_negative(G, "G")
        require_non_negative(jitter_fraction, "jitter_fraction")
        self.L = L
        self.o_send = o_send
        self.o_recv = o_recv
        self.G = G
        self._jitter = jitter
        self._jitter_fraction = jitter_fraction

    def latency(self, message: Message, hops: int = 1) -> float:
        base = (
            self.L * max(1, hops)
            + self.o_send
            + self.o_recv
            + self.G * message.total_bytes
        )
        if self._jitter is not None and self._jitter_fraction > 0:
            jitter = self._jitter.uniform(
                "net.loggp.jitter", 0.0, self._jitter_fraction * base
            )
            return base + jitter
        return base

    def describe(self) -> str:
        return (
            f"LogGP(L={self.L}, o_s={self.o_send}, o_r={self.o_recv}, G={self.G}, "
            f"jitter={self._jitter_fraction})"
        )

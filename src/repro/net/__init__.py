"""Network and NIC substrate.

The paper's model targets clusters interconnected by high-speed, low-latency
networks whose NICs offer one-sided operations, RDMA and OS bypass
(InfiniBand, Myrinet; Section I and III-B).  This package simulates that
hardware layer:

* :mod:`repro.net.message` — typed messages with payload sizes;
* :mod:`repro.net.latency` — latency models (constant, uniform, LogGP-like);
* :mod:`repro.net.topology` — physical topologies (adjacency lists and a
  breadth-first hop count), used to scale latency with hop count;
* :mod:`repro.net.channel` — FIFO point-to-point channels;
* :mod:`repro.net.fabric` — the interconnect: routes messages between ranks
  and accounts for every message and byte (the overhead benchmarks read these
  counters);
* :mod:`repro.net.nic` — the RDMA NIC: one-sided ``put`` (one message) and
  ``get`` (two messages), NIC-managed locks on public memory areas, and the
  hooks through which the race detector instruments every remote access.
"""

from repro.net.message import Message, MessageKind
from repro.net.latency import (
    LatencyModel,
    ConstantLatency,
    UniformLatency,
    LogGPLatency,
)
from repro.net.topology import Topology
from repro.net.channel import Channel
from repro.net.fabric import Fabric, FabricStats
from repro.net.nic import NIC, RemoteOperationResult

__all__ = [
    "Message",
    "MessageKind",
    "LatencyModel",
    "ConstantLatency",
    "UniformLatency",
    "LogGPLatency",
    "Topology",
    "Channel",
    "Fabric",
    "FabricStats",
    "NIC",
    "RemoteOperationResult",
]

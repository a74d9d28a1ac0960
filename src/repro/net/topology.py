"""Interconnect topologies.

The fabric scales message latency by the number of hops between the source
and destination rank.  Topologies are thin wrappers around undirected
:mod:`networkx` graphs whose nodes are ranks; shortest-path hop counts are
precomputed and cached because the fabric queries them for every message.

Supercomputer-style topologies relevant to the paper's motivation (Section I
mentions many-core nodes, NoC meshes and Top500 machines) are provided:
complete graph (crossbar / single switch), ring, star, 2-D mesh and torus,
and a hypercube.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import networkx as nx

from repro.util.validation import require_positive, require_rank


class Topology:
    """A physical interconnect over ``world_size`` ranks."""

    def __init__(self, graph: nx.Graph, name: str = "custom") -> None:
        world_size = graph.number_of_nodes()
        if world_size == 0:
            raise ValueError("topology graph must have at least one node")
        expected = set(range(world_size))
        if set(graph.nodes) != expected:
            raise ValueError(
                "topology nodes must be consecutive ranks 0..n-1, "
                f"got {sorted(graph.nodes)}"
            )
        if world_size > 1 and not nx.is_connected(graph):
            raise ValueError("topology must be connected")
        self._graph = graph
        #: The graph is never mutated after this point (``graph`` hands out
        #: copies), so the rank count is fixed here instead of asked per send.
        self._world_size = world_size
        self._name = name
        self._hops: Dict[Tuple[int, int], int] = {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def complete(cls, world_size: int) -> "Topology":
        """Every pair of ranks is one hop apart (a single crossbar switch)."""
        require_positive(world_size, "world_size")
        return cls(nx.complete_graph(world_size), name=f"complete({world_size})")

    @classmethod
    def ring(cls, world_size: int) -> "Topology":
        """Ranks arranged in a cycle."""
        require_positive(world_size, "world_size")
        if world_size == 1:
            return cls(nx.complete_graph(1), name="ring(1)")
        if world_size == 2:
            return cls(nx.path_graph(2), name="ring(2)")
        return cls(nx.cycle_graph(world_size), name=f"ring({world_size})")

    @classmethod
    def star(cls, world_size: int, center: int = 0) -> "Topology":
        """All ranks attached to a central rank (e.g. a master node)."""
        require_positive(world_size, "world_size")
        require_rank(center, world_size, "center")
        graph = nx.Graph()
        graph.add_nodes_from(range(world_size))
        for rank in range(world_size):
            if rank != center:
                graph.add_edge(center, rank)
        return cls(graph, name=f"star({world_size}, center={center})")

    @classmethod
    def mesh2d(cls, rows: int, cols: int, torus: bool = False) -> "Topology":
        """A ``rows × cols`` 2-D mesh (or torus) — the NoC layout of Section I."""
        require_positive(rows, "rows")
        require_positive(cols, "cols")
        grid = nx.grid_2d_graph(rows, cols, periodic=torus)
        mapping = {(r, c): r * cols + c for r, c in grid.nodes}
        graph = nx.relabel_nodes(grid, mapping)
        kind = "torus" if torus else "mesh"
        return cls(graph, name=f"{kind}2d({rows}x{cols})")

    @classmethod
    def hypercube(cls, dimension: int) -> "Topology":
        """A ``2^dimension``-node hypercube."""
        require_positive(dimension, "dimension")
        graph = nx.hypercube_graph(dimension)
        mapping = {node: int("".join(map(str, node)), 2) for node in graph.nodes}
        graph = nx.relabel_nodes(graph, mapping)
        return cls(graph, name=f"hypercube({dimension})")

    # -- queries ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """Human-readable topology name."""
        return self._name

    @property
    def world_size(self) -> int:
        """Number of ranks."""
        return self._world_size

    @property
    def graph(self) -> nx.Graph:
        """The underlying graph (a copy, to keep the topology immutable)."""
        return self._graph.copy()

    def hops(self, source: int, destination: int) -> int:
        """Shortest-path hop count between two ranks (0 for self-messages)."""
        require_rank(source, self.world_size, "source")
        require_rank(destination, self.world_size, "destination")
        if source == destination:
            return 0
        key = (source, destination)
        if key not in self._hops:
            length = nx.shortest_path_length(self._graph, source, destination)
            self._hops[key] = int(length)
            self._hops[(destination, source)] = int(length)
        return self._hops[key]

    def diameter(self) -> int:
        """Maximum hop count over all pairs."""
        if self.world_size == 1:
            return 0
        return int(nx.diameter(self._graph))

    def average_hops(self) -> float:
        """Mean hop count over all ordered pairs of distinct ranks."""
        if self.world_size == 1:
            return 0.0
        return float(nx.average_shortest_path_length(self._graph))

    def neighbors(self, rank: int) -> List[int]:
        """Directly connected ranks."""
        require_rank(rank, self.world_size, "rank")
        return sorted(self._graph.neighbors(rank))

    def degree(self, rank: int) -> int:
        """Number of direct links of *rank*."""
        require_rank(rank, self.world_size, "rank")
        return int(self._graph.degree[rank])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Topology {self._name} n={self.world_size}>"

"""Interconnect topologies.

The fabric scales message latency by the number of hops between the source
and destination rank.  A topology is an undirected adjacency structure whose
nodes are ranks; shortest-path hop counts come from a breadth-first search
per source rank, computed on first use and cached because the fabric queries
them for every message.

Supercomputer-style topologies relevant to the paper's motivation (Section I
mentions many-core nodes, NoC meshes and Top500 machines) are provided:
complete graph (crossbar / single switch), ring, star, 2-D mesh and torus,
and a hypercube.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Tuple

from repro.util.validation import require_positive, require_rank


def _linked(world_size: int, links: Iterable[Tuple[int, int]]) -> Dict[int, List[int]]:
    """Adjacency of ``world_size`` ranks joined by the undirected *links*."""
    adjacency: Dict[int, List[int]] = {rank: [] for rank in range(world_size)}
    for first, second in links:
        adjacency[first].append(second)
    return adjacency


class Topology:
    """A physical interconnect over ``world_size`` ranks.

    *adjacency* maps every rank to the ranks it has a direct link to; links
    are undirected, so naming one from either end is enough, naming it twice
    changes nothing, and a rank linked to itself is ignored.
    """

    def __init__(self, adjacency: Mapping[int, Iterable[int]], name: str = "custom") -> None:
        neighbours: Dict[int, set] = {rank: set() for rank in adjacency}
        for rank, peers in adjacency.items():
            for peer in peers:
                if peer != rank:
                    neighbours[rank].add(peer)
                    neighbours.setdefault(peer, set()).add(rank)
        world_size = len(neighbours)
        if world_size == 0:
            raise ValueError("topology graph must have at least one node")
        if set(neighbours) != set(range(world_size)):
            raise ValueError(
                "topology nodes must be consecutive ranks 0..n-1, "
                f"got {sorted(neighbours)}"
            )
        #: Never mutated after this point (``graph`` hands out copies).
        self._adjacency: List[List[int]] = [
            sorted(neighbours[rank]) for rank in range(world_size)
        ]
        self._world_size = world_size
        self._name = name
        #: source rank -> hop count to every rank (one BFS, on first use).
        self._hops: Dict[int, List[int]] = {}
        if -1 in self._hops_from(0):
            raise ValueError("topology must be connected")

    # -- constructors --------------------------------------------------------

    @classmethod
    def complete(cls, world_size: int) -> "Topology":
        """Every pair of ranks is one hop apart (a single crossbar switch)."""
        require_positive(world_size, "world_size")
        links = ((a, b) for a in range(world_size) for b in range(a + 1, world_size))
        return cls(_linked(world_size, links), name=f"complete({world_size})")

    @classmethod
    def ring(cls, world_size: int) -> "Topology":
        """Ranks arranged in a cycle."""
        require_positive(world_size, "world_size")
        links = ((rank, (rank + 1) % world_size) for rank in range(world_size))
        return cls(_linked(world_size, links), name=f"ring({world_size})")

    @classmethod
    def star(cls, world_size: int, center: int = 0) -> "Topology":
        """All ranks attached to a central rank (e.g. a master node)."""
        require_positive(world_size, "world_size")
        require_rank(center, world_size, "center")
        links = ((center, rank) for rank in range(world_size))
        return cls(_linked(world_size, links), name=f"star({world_size}, center={center})")

    @classmethod
    def mesh2d(cls, rows: int, cols: int, torus: bool = False) -> "Topology":
        """A ``rows × cols`` 2-D mesh (or torus) — the NoC layout of Section I."""
        require_positive(rows, "rows")
        require_positive(cols, "cols")
        links = []
        for r in range(rows):
            for c in range(cols):
                # A torus wraps a dimension only where that adds a link: a
                # dimension of 2 is already joined, one of 1 has nothing to join.
                if r + 1 < rows or (torus and rows > 2):
                    links.append((r * cols + c, (r + 1) % rows * cols + c))
                if c + 1 < cols or (torus and cols > 2):
                    links.append((r * cols + c, r * cols + (c + 1) % cols))
        kind = "torus" if torus else "mesh"
        return cls(_linked(rows * cols, links), name=f"{kind}2d({rows}x{cols})")

    @classmethod
    def hypercube(cls, dimension: int) -> "Topology":
        """A ``2^dimension``-node hypercube."""
        require_positive(dimension, "dimension")
        world_size = 1 << dimension
        links = (
            (rank, rank ^ (1 << bit)) for rank in range(world_size) for bit in range(dimension)
        )
        return cls(_linked(world_size, links), name=f"hypercube({dimension})")

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
    def graph(self) -> Dict[int, List[int]]:
        """The adjacency, rank -> sorted neighbours (a copy, to keep the topology immutable)."""
        return {rank: list(peers) for rank, peers in enumerate(self._adjacency)}

    def _hops_from(self, source: int) -> List[int]:
        """Hop count from *source* to every rank (``-1``: unreachable)."""
        distances = self._hops.get(source)
        if distances is None:
            distances = [-1] * self._world_size
            distances[source] = 0
            frontier = [source]
            while frontier:
                reached = []
                for rank in frontier:
                    for peer in self._adjacency[rank]:
                        if distances[peer] < 0:
                            distances[peer] = distances[rank] + 1
                            reached.append(peer)
                frontier = reached
            self._hops[source] = distances
        return distances

    def hops(self, source: int, destination: int) -> int:
        """Shortest-path hop count between two ranks (0 for self-messages).

        The fabric's one check of a pair: range and type, both ranks.
        """
        world_size = self._world_size
        require_rank(source, world_size, "source")
        require_rank(destination, world_size, "destination")
        return self._hops_from(source)[destination]

    def diameter(self) -> int:
        """Maximum hop count over all pairs."""
        return max(max(self._hops_from(rank)) for rank in range(self._world_size))

    def average_hops(self) -> float:
        """Mean hop count over all ordered pairs of distinct ranks."""
        if self.world_size == 1:
            return 0.0
        total = sum(sum(self._hops_from(rank)) for rank in range(self._world_size))
        return total / (self._world_size * (self._world_size - 1))

    def neighbors(self, rank: int) -> List[int]:
        """Directly connected ranks."""
        require_rank(rank, self.world_size, "rank")
        return list(self._adjacency[rank])

    def degree(self, rank: int) -> int:
        """Number of direct links of *rank*."""
        require_rank(rank, self.world_size, "rank")
        return len(self._adjacency[rank])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Topology {self._name} n={self.world_size}>"

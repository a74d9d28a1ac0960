"""The named topologies against tables recorded from the networkx build.

``golden_topology_tables.json`` was written by the last commit that built its
graphs with :mod:`networkx` (``json.dump`` of :func:`tables` over
:data:`SHAPES` there) and cannot be regenerated from this tree — that is the
point.  The in-tree adjacency + BFS must reproduce every name,
hop matrix, diameter, mean hop count, neighbour list and degree, including
the degenerate shapes where a generic generator and a hand-written one are
most likely to disagree (rings of 1 and 2, 2×2 and 1×k tori).
"""

import json
import os
import subprocess
import sys

import pytest

from repro.net import Topology

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden_topology_tables.json")

SHAPES = {
    "complete-1": lambda: Topology.complete(1),
    "complete-2": lambda: Topology.complete(2),
    "complete-5": lambda: Topology.complete(5),
    "ring-1": lambda: Topology.ring(1),
    "ring-2": lambda: Topology.ring(2),
    "ring-3": lambda: Topology.ring(3),
    "ring-7": lambda: Topology.ring(7),
    "star-1": lambda: Topology.star(1),
    "star-6": lambda: Topology.star(6),
    "star-5-center-3": lambda: Topology.star(5, center=3),
    "mesh-2x2": lambda: Topology.mesh2d(2, 2),
    "mesh-1x4": lambda: Topology.mesh2d(1, 4),
    "mesh-4x1": lambda: Topology.mesh2d(4, 1),
    "mesh-3x4": lambda: Topology.mesh2d(3, 4),
    "torus-1x1": lambda: Topology.mesh2d(1, 1, torus=True),
    "torus-1x2": lambda: Topology.mesh2d(1, 2, torus=True),
    "torus-1x5": lambda: Topology.mesh2d(1, 5, torus=True),
    "torus-2x2": lambda: Topology.mesh2d(2, 2, torus=True),
    "torus-2x3": lambda: Topology.mesh2d(2, 3, torus=True),
    "torus-3x3": lambda: Topology.mesh2d(3, 3, torus=True),
    "torus-4x5": lambda: Topology.mesh2d(4, 5, torus=True),
    "hypercube-2": lambda: Topology.hypercube(2),
    "hypercube-3": lambda: Topology.hypercube(3),
    "hypercube-4": lambda: Topology.hypercube(4),
}


def tables(topology: Topology) -> dict:
    ranks = range(topology.world_size)
    return {
        "name": topology.name,
        "world_size": topology.world_size,
        "hops": [[topology.hops(a, b) for b in ranks] for a in ranks],
        "diameter": topology.diameter(),
        "average_hops": topology.average_hops(),
        "neighbors": [topology.neighbors(rank) for rank in ranks],
        "degree": [topology.degree(rank) for rank in ranks],
    }


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


def test_the_golden_file_covers_every_shape(golden):
    assert sorted(golden) == sorted(SHAPES)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tables_match_the_networkx_recording(golden, shape):
    built = tables(SHAPES[shape]())
    assert built == golden[shape]
    # JSON round trip: plain ints and floats, no graph-library scalars.
    assert json.loads(json.dumps(built)) == built
    assert type(built["diameter"]) is int and type(built["average_hops"]) is float


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_tables_match_networkx_where_it_is_installed(shape):
    nx = pytest.importorskip("networkx")
    topology = SHAPES[shape]()
    graph = nx.Graph()
    graph.add_nodes_from(range(topology.world_size))
    graph.add_edges_from(
        (rank, peer) for rank, peers in topology.graph.items() for peer in peers
    )
    lengths = dict(nx.all_pairs_shortest_path_length(graph))
    ranks = range(topology.world_size)
    assert [[topology.hops(a, b) for b in ranks] for a in ranks] == [
        [lengths[a][b] for b in ranks] for a in ranks
    ]
    if topology.world_size > 1:
        assert topology.diameter() == nx.diameter(graph)
        assert topology.average_hops() == nx.average_shortest_path_length(graph)


def test_the_one_dimensional_hypercube_is_a_link():
    """``networkx`` labels that graph's nodes with ints, not bit tuples, and the
    relabelling raised ``TypeError``; two ranks one hop apart is the answer."""
    link = Topology.hypercube(1)
    assert tables(link) == {**tables(Topology.complete(2)), "name": "hypercube(1)"}


class TestCustomTopologies:
    def test_an_adjacency_mapping_builds_a_topology(self):
        line = Topology({0: [1], 1: [0, 2], 2: [1]}, name="line(3)")
        assert line.name == "line(3)" and line.world_size == 3
        assert line.hops(0, 2) == 2 and line.diameter() == 2
        assert line.neighbors(1) == [0, 2] and line.degree(0) == 1

    def test_links_named_from_one_end_only_are_symmetric(self):
        line = Topology({0: [1], 1: [2], 2: []})
        assert line.neighbors(2) == [1] and line.hops(2, 0) == 2

    def test_graph_hands_out_a_copy(self):
        ring = Topology.ring(4)
        copy = ring.graph
        assert copy == {0: [1, 3], 1: [0, 2], 2: [1, 3], 3: [0, 2]}
        copy[0].append(2)
        del copy[3]
        assert ring.neighbors(0) == [1, 3] and ring.world_size == 4

    def test_error_texts(self):
        with pytest.raises(ValueError, match="topology graph must have at least one node"):
            Topology({})
        with pytest.raises(
            ValueError,
            match=r"topology nodes must be consecutive ranks 0\.\.n-1, got \[0, 2\]",
        ):
            Topology({0: [2], 2: [0]})
        with pytest.raises(ValueError, match="topology must be connected"):
            Topology({0: [1], 1: [0], 2: [3], 3: [2]})


class TestNoGraphLibraryIsLoaded:
    """``networkx`` was an undeclared dependency; nothing may bring it back."""

    @staticmethod
    def _modules_after(statement: str) -> str:
        source = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
        env = dict(os.environ, PYTHONPATH=os.path.abspath(source))
        done = subprocess.run(
            [sys.executable, "-c", statement + "; import sys; print('networkx' in sys.modules)"],
            env=env, capture_output=True, text=True, check=True, timeout=120,
        )
        return done.stdout.strip()

    def test_import_repro_does_not_load_networkx(self):
        assert self._modules_after("import repro") == "False"

    def test_a_default_run_does_not_load_networkx(self):
        statement = (
            "from repro.workloads import RandomAccessWorkload; "
            "RandomAccessWorkload(world_size=3, operations_per_rank=4).run(0)"
        )
        assert self._modules_after(statement) == "False"


"""Multi-plane stencil: whole boundary planes moved as one gathered SEND.

The scatter/gather payoff the ROADMAP asked for.  Each rank owns a tile of
``plane_width`` independent rows, ``cells_per_rank`` columns each; every
iteration it exchanges its boundary *plane* (one cell per row —
``plane_width`` cells) with each neighbour, relaxes the interior while the
exchange is in flight, then folds the ghost planes in.  The same numerics run
under two transports:

* ``transport="puts"`` — one posted put per plane cell, the only option the
  one-sided layer offers: ``plane_width`` messages (and, when detection
  traffic is charged, ``plane_width`` clock round trips) per neighbour per
  iteration;
* ``transport="send"`` — the receiver posts its ghost plane as one receive
  buffer (scatter list), the sender moves the whole plane as one gathered
  SEND: one message carrying ``plane_width * cell_bytes`` payload bytes, and
  one batched clock round trip.

Same bytes moved, fewer messages — ``benchmarks/bench_send_gather.py`` holds
the two transports side by side and asserts exactly that, plus identical
final tiles.  Barriers close each iteration in both modes, so neither is
expected to race (the send mode's matching alone orders receiver reads after
the landing scatter, but not the *next* iteration's scatter after this
iteration's ghost reads).
"""

from __future__ import annotations

from typing import List, Optional

from repro.memory.directory import PlacementPolicy
from repro.runtime.runtime import DSMRuntime, RuntimeConfig
from repro.util.validation import require_positive
from repro.workloads.base import WorkloadScenario


class SendRecvStencilWorkload(WorkloadScenario):
    """Jacobi plane stencil with gathered-SEND (or per-cell put) halo exchange."""

    name = "stencil-planes"

    def __init__(
        self,
        world_size: int = 4,
        cells_per_rank: int = 6,
        plane_width: int = 4,
        iterations: int = 3,
        compute_cost: float = 1.0,
        interior_fraction: float = 0.8,
        transport: str = "send",
        config: Optional[RuntimeConfig] = None,
    ) -> None:
        super().__init__(config)
        require_positive(world_size, "world_size")
        require_positive(cells_per_rank, "cells_per_rank")
        require_positive(plane_width, "plane_width")
        require_positive(iterations, "iterations")
        if transport not in ("send", "puts"):
            raise ValueError(f"transport must be 'send' or 'puts', got {transport!r}")
        if not (0.0 <= interior_fraction <= 1.0):
            raise ValueError(
                f"interior_fraction must be in [0, 1], got {interior_fraction}"
            )
        self.world_size = world_size
        self.cells_per_rank = cells_per_rank
        self.plane_width = plane_width
        self.iterations = iterations
        self.compute_cost = compute_cost
        self.interior_fraction = interior_fraction
        self.transport = transport
        self.name = f"stencil-planes-{transport}"
        self.expected_racy = False

    def build(self, seed: int = 0) -> DSMRuntime:
        """Each rank's halo: ``2 * plane_width`` cells — left then right ghost plane."""
        runtime = DSMRuntime(
            self._config_for_seed(
                seed,
                world_size=self.world_size,
                # Constant latency keeps the two transports byte-comparable:
                # every receive is posted at the barrier instant, strictly
                # before any same-iteration send claims it, so no SEND
                # stalls on a receive credit.
                latency="constant",
                public_memory_cells=max(64, 4 * self.plane_width + 8),
            )
        )
        k = self.plane_width
        for rank in range(self.world_size):
            runtime.declare_array(
                f"halo{rank}", 2 * k, policy=PlacementPolicy.OWNER,
                owner=rank, initial=0.0,
            )
        workload = self

        def program(api):
            rank = api.rank
            n = workload.cells_per_rank
            left = rank - 1 if rank > 0 else None
            right = rank + 1 if rank + 1 < workload.world_size else None
            # plane_width independent rows of cells_per_rank columns.
            tile: List[List[float]] = [
                [float(rank * n + column + row * 0.5) for column in range(n)]
                for row in range(k)
            ]
            interior_cost = workload.compute_cost * workload.interior_fraction
            boundary_cost = workload.compute_cost - interior_cost

            def post_ghost_recvs():
                # The ghost planes are the scatter lists the neighbours'
                # gathered sends land in.
                if left is not None:
                    api.irecv(left, f"halo{rank}", indices=range(k))
                if right is not None:
                    api.irecv(right, f"halo{rank}", indices=range(k, 2 * k))

            if workload.transport == "send":
                # Pre-post the first iteration's receives: a buffer is always
                # in place before the matching send claims it, so the
                # exchange never stalls on a receive credit.
                post_ghost_recvs()
            for iteration in range(workload.iterations):
                posted = []
                if workload.transport == "send":
                    # One gathered SEND per neighbour: the whole boundary
                    # plane in one message.
                    if left is not None:
                        posted.append(
                            api.isend(
                                left, [tile[row][0] for row in range(k)],
                                symbol=f"halo{left}",
                            )
                        )
                    if right is not None:
                        posted.append(
                            api.isend(
                                right, [tile[row][-1] for row in range(k)],
                                symbol=f"halo{right}",
                            )
                        )
                else:
                    # One posted put per plane cell: k messages per neighbour.
                    for row in range(k):
                        if left is not None:
                            posted.append(
                                api.iput(f"halo{left}", tile[row][0], index=k + row)
                            )
                        if right is not None:
                            posted.append(
                                api.iput(f"halo{right}", tile[row][-1], index=row)
                            )
                yield from api.compute(interior_cost)
                if posted:
                    yield from api.wait(*posted)
                if workload.transport == "send":
                    expected = (left is not None) + (right is not None)
                    if expected:
                        yield from api.wait_recv(expected)
                yield from api.barrier()
                ghosts_left = []
                ghosts_right = []
                for row in range(k):
                    ghost = yield from api.get(f"halo{rank}", index=row)
                    ghosts_left.append(float(ghost or 0.0))
                    ghost = yield from api.get(f"halo{rank}", index=k + row)
                    ghosts_right.append(float(ghost or 0.0))
                yield from api.compute(boundary_cost)
                for row in range(k):
                    padded = [ghosts_left[row]] + tile[row] + [ghosts_right[row]]
                    tile[row] = [
                        (padded[i - 1] + padded[i] + padded[i + 1]) / 3.0
                        for i in range(1, n + 1)
                    ]
                if workload.transport == "send" and iteration + 1 < workload.iterations:
                    # Pre-post the next iteration's receives before the
                    # closing barrier: the post-time snapshot also orders the
                    # next scatter after this iteration's ghost reads.
                    post_ghost_recvs()
                yield from api.barrier()
            api.private.write("tile", tile)

        runtime.set_spmd_program(program)
        return runtime

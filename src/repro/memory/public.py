"""Per-rank public memory segments.

The public memory of a rank is the part of its physical memory that remote
NICs may read and write without involving the local CPU or OS (paper, Section
III).  We model it as an array of :class:`MemoryCell` objects.  Each cell
stores a value plus the per-datum metadata the race-detection algorithm needs:
the general-purpose access clock ``V`` and the write clock ``W`` (paper,
Section IV-A), along with simple access counters used by the overhead
benchmarks (experiment E11).

The array is stored sparsely: a cell object exists from the first time its
address is touched (``cell`` / ``read`` / ``write`` / ``peek``) and is the
same object from then on.  An untouched cell is indistinguishable from a
fresh ``MemoryCell()`` — no value, no clocks, zero counters — so building a
segment costs nothing per cell and the accounting methods visit only the
cells a run actually used.

The clocks are stored *with the data they protect*, on the rank that owns the
data — exactly as the paper prescribes ("a clock must be used for each shared
piece of data", Section V-A) — and are read/updated remotely by the NIC during
instrumented ``put``/``get`` operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.core.clocks import VectorClock
from repro.memory.address import GlobalAddress
from repro.memory.region import MemoryRegion
from repro.util.validation import require_positive, require_type


@dataclass
class MemoryCell:
    """One addressable unit of public memory and its detection metadata."""

    value: Any = None
    access_clock: Optional[VectorClock] = None
    write_clock: Optional[VectorClock] = None
    read_count: int = 0
    write_count: int = 0
    last_writer: Optional[int] = None
    #: What the race detector remembers about this datum besides the two
    #: clocks (last accessors, epoch annotations); the detector's to define.
    detector_state: Any = field(default=None, repr=False, compare=False)

    def clock_storage_entries(self) -> int:
        """Number of vector-clock entries stored with this cell.

        Used by the §IV-C / §V-A overhead accounting: with the dual-clock
        scheme each shared cell stores up to ``2 n`` clock entries.
        """
        total = 0
        if self.access_clock is not None:
            total += self.access_clock.size
        if self.write_clock is not None:
            total += self.write_clock.size
        return total


class PublicMemory:
    """The remotely accessible memory segment of one rank."""

    def __init__(self, rank: int, size: int) -> None:
        require_type(rank, int, "rank")
        if rank < 0:
            raise ValueError(f"rank must be non-negative, got {rank}")
        require_type(size, int, "size")
        require_positive(size, "size")
        self._rank = rank
        self._size = size
        #: offset -> cell, for the offsets touched so far.
        self._cells: Dict[int, MemoryCell] = {}
        self._regions: Dict[str, MemoryRegion] = {}
        self._next_free = 0

    # -- identity -------------------------------------------------------------

    @property
    def rank(self) -> int:
        """Owning rank."""
        return self._rank

    @property
    def size(self) -> int:
        """Total number of cells in the segment."""
        return self._size

    @property
    def allocated(self) -> int:
        """Number of cells currently covered by registered regions."""
        return self._next_free

    # -- region management ------------------------------------------------------

    def register_region(self, name: str, length: int) -> MemoryRegion:
        """Allocate *length* cells and register them as a named region.

        Allocation is a simple bump pointer: regions are never freed during a
        run, matching the static placement a PGAS compiler performs.
        """
        require_type(name, str, "name")
        if name in self._regions:
            raise ValueError(f"region {name!r} already registered on rank {self._rank}")
        require_positive(length, "length")
        if self._next_free + length > self._size:
            raise MemoryError(
                f"public memory of rank {self._rank} exhausted: need {length} cells, "
                f"{self._size - self._next_free} free"
            )
        region = MemoryRegion(
            name=name,
            owner=self._rank,
            base=self._next_free,
            length=length,
        )
        self._regions[name] = region
        self._next_free += length
        return region

    def region(self, name: str) -> MemoryRegion:
        """Return the region registered under *name* (``KeyError`` if absent)."""
        return self._regions[name]

    def regions(self) -> Iterator[MemoryRegion]:
        """Iterate over registered regions in registration order."""
        return iter(self._regions.values())

    def region_containing(self, address: GlobalAddress) -> Optional[MemoryRegion]:
        """Return the region that contains *address*, or ``None``."""
        for region in self._regions.values():
            if region.contains(address):
                return region
        return None

    # -- cell access --------------------------------------------------------------

    def _check_address(self, address: GlobalAddress) -> int:
        require_type(address, GlobalAddress, "address")
        if address.rank != self._rank:
            raise ValueError(
                f"address {address} does not belong to rank {self._rank}'s public memory"
            )
        if not (0 <= address.offset < self._size):
            raise IndexError(
                f"offset {address.offset} out of bounds for public memory of size {self._size}"
            )
        return address.offset

    def cell(self, address: GlobalAddress) -> MemoryCell:
        """Return the cell object at *address* (metadata included)."""
        # An exact in-range address of this rank is checked inline; anything
        # else goes through ``_check_address`` for its error.
        if (
            type(address) is GlobalAddress
            and address.rank == self._rank
            and 0 <= address.offset < self._size
        ):
            offset = address.offset
        else:
            offset = self._check_address(address)
        cell = self._cells.get(offset)
        if cell is None:
            cell = self._cells[offset] = MemoryCell()
        return cell

    def read(self, address: GlobalAddress) -> Any:
        """Read the value stored at *address* and bump the read counter."""
        cell = self.cell(address)
        cell.read_count += 1
        return cell.value

    def write(self, address: GlobalAddress, value: Any, writer: Optional[int] = None) -> None:
        """Write *value* at *address* and bump the write counter."""
        cell = self.cell(address)
        cell.value = value
        cell.write_count += 1
        cell.last_writer = writer

    def peek(self, address: GlobalAddress) -> Any:
        """Read without touching access counters (for assertions in tests)."""
        return self.cell(address).value

    # -- accounting ---------------------------------------------------------------

    def total_reads(self) -> int:
        """Sum of read counters over all cells."""
        return sum(c.read_count for c in self._cells.values())

    def total_writes(self) -> int:
        """Sum of write counters over all cells."""
        return sum(c.write_count for c in self._cells.values())

    def clock_storage_entries(self) -> int:
        """Total number of vector-clock entries held by this segment.

        This is the quantity the paper's Section V-A overhead discussion is
        about: clock storage grows with the number of shared data and with
        the number of processes.
        """
        return sum(c.clock_storage_entries() for c in self._cells.values())

    def snapshot_values(self) -> List[Any]:
        """Return the raw values of every cell (for whole-memory assertions)."""
        values: List[Any] = [None] * self._size
        for offset, cell in self._cells.items():
            values[offset] = cell.value
        return values

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PublicMemory rank={self._rank} size={self._size} "
            f"regions={len(self._regions)}>"
        )

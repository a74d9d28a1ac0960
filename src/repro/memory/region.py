"""Registered memory regions.

RDMA NICs only allow remote access to memory that has been explicitly
*registered* (pinned) with them; the paper's public memory area corresponds
to the union of registered regions on a rank.  A :class:`MemoryRegion` records
the symbolic name, the owning rank, the base offset and the length of one such
registration, and is the granularity at which the NIC lock table can also
operate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.address import AddressRange, GlobalAddress
from repro.util.validation import require_positive, require_type


@dataclass(frozen=True)
class MemoryRegion:
    """A named, registered window of one rank's public memory.

    Attributes
    ----------
    name:
        Symbolic name assigned by the symbol directory ("the compiler").
    owner:
        Rank whose public memory physically holds the region.
    base:
        First offset of the region in the owner's public memory.
    length:
        Number of cells in the region.
    """

    name: str
    owner: int
    base: int
    length: int

    def __post_init__(self) -> None:
        require_type(self.name, str, "name")
        if not self.name:
            raise ValueError("region name must be non-empty")
        require_type(self.owner, int, "owner")
        if self.owner < 0:
            raise ValueError(f"owner rank must be non-negative, got {self.owner}")
        require_type(self.base, int, "base")
        if self.base < 0:
            raise ValueError(f"base offset must be non-negative, got {self.base}")
        require_type(self.length, int, "length")
        require_positive(self.length, "length")

    @property
    def range(self) -> AddressRange:
        """The address range covered by this region."""
        return AddressRange(GlobalAddress(self.owner, self.base), self.length)

    def address_of(self, index: int) -> GlobalAddress:
        """Global address of element *index* of the region.

        Raises :class:`IndexError` when *index* falls outside the region, so
        out-of-bounds shared-array accesses in user programs fail loudly.
        """
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"index must be an int, got {index!r}")
        if not (0 <= index < self.length):
            raise IndexError(
                f"index {index} out of bounds for region {self.name!r} of length {self.length}"
            )
        return GlobalAddress(self.owner, self.base + index)

    def index_of(self, address: GlobalAddress) -> int:
        """Inverse of :meth:`address_of`; raises ``ValueError`` if outside."""
        if not self.range.contains(address):
            raise ValueError(f"{address} is not inside region {self.name!r}")
        return address.offset - self.base

    def contains(self, address: GlobalAddress) -> bool:
        """True when *address* belongs to this region."""
        return self.range.contains(address)

    def __len__(self) -> int:
        return self.length

    def __str__(self) -> str:
        return f"{self.name}@P{self.owner}[{self.base}:{self.base + self.length}]"

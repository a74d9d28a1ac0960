"""Symbol directory: the "compiler" of the paper's model.

In UPC, Titanium or Co-Array Fortran, the compiler decides where each shared
variable physically lives and translates symbolic accesses into
``(processor, address)`` pairs (paper, Sections I and III-A).  The
:class:`SymbolDirectory` performs that job at program-construction time: user
programs declare shared scalars and arrays, a placement policy assigns them to
ranks, and at run time the runtime resolves ``("x", index)`` into a
:class:`~repro.memory.address.GlobalAddress`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.memory.address import GlobalAddress
from repro.memory.public import PublicMemory
from repro.memory.region import MemoryRegion
from repro.util.validation import require_positive, require_rank, require_type


class PlacementPolicy(enum.Enum):
    """How shared objects are distributed over ranks.

    * ``ROUND_ROBIN`` — successive declarations go to successive ranks
      (cyclic distribution, the UPC default for blocking factor 1).
    * ``BLOCK`` — array elements are split into contiguous blocks, one block
      per rank (block distribution).
    * ``OWNER`` — the declaration names the owning rank explicitly.
    """

    ROUND_ROBIN = "round_robin"
    BLOCK = "block"
    OWNER = "owner"


@dataclass(frozen=True)
class SharedSymbol:
    """Metadata for one declared shared object (scalar or array)."""

    name: str
    length: int
    regions: tuple
    policy: PlacementPolicy

    @property
    def is_scalar(self) -> bool:
        """True when the symbol was declared with length 1."""
        return self.length == 1


class SymbolDirectory:
    """Declares shared symbols and resolves them to global addresses."""

    def __init__(self, memories: Sequence[PublicMemory]) -> None:
        if not memories:
            raise ValueError("SymbolDirectory requires at least one public memory")
        ranks = [m.rank for m in memories]
        if ranks != list(range(len(memories))):
            raise ValueError(
                f"public memories must be supplied in rank order 0..n-1, got ranks {ranks}"
            )
        self._memories: List[PublicMemory] = list(memories)
        self._symbols: Dict[str, SharedSymbol] = {}
        #: ``(name, index)`` -> its address, filled by :meth:`resolve`.  A
        #: declaration is for good, so an entry never goes stale.
        self._resolved: Dict[Tuple[str, int], GlobalAddress] = {}
        self._round_robin_next = 0

    @property
    def world_size(self) -> int:
        """Number of ranks in the global address space."""
        return len(self._memories)

    # -- declaration ----------------------------------------------------------

    def declare_scalar(
        self,
        name: str,
        owner: Optional[int] = None,
        initial: object = None,
    ) -> SharedSymbol:
        """Declare a shared scalar, optionally pinned to *owner*.

        When *owner* is omitted the scalar is placed round-robin, mimicking a
        compiler's default layout.  The initial value, if given, is written
        directly into the owner's memory (this models initialized shared
        variables and does not count as a remote access).
        """
        if owner is None:
            owner = self._round_robin_next % self.world_size
            self._round_robin_next += 1
            policy = PlacementPolicy.ROUND_ROBIN
        else:
            require_rank(owner, self.world_size, "owner")
            policy = PlacementPolicy.OWNER
        region = self._memories[owner].register_region(name, 1)
        symbol = SharedSymbol(name=name, length=1, regions=(region,), policy=policy)
        self._register(symbol)
        if initial is not None:
            self._memories[owner].write(region.address_of(0), initial, writer=None)
        return symbol

    def declare_array(
        self,
        name: str,
        length: int,
        policy: PlacementPolicy = PlacementPolicy.BLOCK,
        owner: Optional[int] = None,
        initial: object = None,
    ) -> SharedSymbol:
        """Declare a shared array of *length* cells distributed per *policy*.

        ``BLOCK`` splits the array into ``world_size`` nearly equal contiguous
        chunks; ``ROUND_ROBIN`` deals elements out cyclically; ``OWNER`` puts
        the whole array on one rank.  Passing an explicit *owner* selects the
        ``OWNER`` placement regardless of *policy* — naming an owner and
        distributing the data elsewhere would always be a mistake.
        """
        require_type(name, str, "name")
        require_positive(length, "length")
        if owner is not None:
            policy = PlacementPolicy.OWNER
        regions: List[MemoryRegion] = []
        if policy is PlacementPolicy.OWNER:
            if owner is None:
                raise ValueError("OWNER placement requires an explicit owner rank")
            require_rank(owner, self.world_size, "owner")
            regions.append(self._memories[owner].register_region(name, length))
        elif policy is PlacementPolicy.BLOCK:
            base = 0
            for rank in range(self.world_size):
                chunk = self._block_size(length, rank)
                if chunk == 0:
                    continue
                regions.append(
                    self._memories[rank].register_region(f"{name}#blk{rank}", chunk)
                )
                base += chunk
        elif policy is PlacementPolicy.ROUND_ROBIN:
            # One region per rank holding that rank's cyclic share.
            for rank in range(self.world_size):
                chunk = len(range(rank, length, self.world_size))
                if chunk == 0:
                    continue
                regions.append(
                    self._memories[rank].register_region(f"{name}#cyc{rank}", chunk)
                )
        else:  # pragma: no cover - exhaustive over enum
            raise ValueError(f"unknown placement policy {policy!r}")
        symbol = SharedSymbol(name=name, length=length, regions=tuple(regions), policy=policy)
        self._register(symbol)
        if initial is not None:
            for index in range(length):
                address = self.resolve(name, index)
                self._memories[address.rank].write(address, initial, writer=None)
        return symbol

    def _register(self, symbol: SharedSymbol) -> None:
        if symbol.name in self._symbols:
            raise ValueError(f"shared symbol {symbol.name!r} already declared")
        self._symbols[symbol.name] = symbol

    def _block_size(self, length: int, rank: int) -> int:
        base, remainder = divmod(length, self.world_size)
        return base + (1 if rank < remainder else 0)

    # -- resolution -------------------------------------------------------------

    def symbol(self, name: str) -> SharedSymbol:
        """Return the declaration record for *name* (``KeyError`` if unknown)."""
        return self._symbols[name]

    def symbols(self) -> List[SharedSymbol]:
        """All declared symbols in declaration order."""
        return list(self._symbols.values())

    def resolve(self, name: str, index: int = 0) -> GlobalAddress:
        """Translate ``name[index]`` into its global address.

        This is the compile-time address resolution of the paper; the runtime
        calls it before issuing the corresponding NIC operation.  A cell is
        located once: every later call returns the same address object
        without validating *index* again.  An *index* that is not an exact
        ``int`` is located every time — ``True``, ``1.0`` and NumPy integers
        hash like a valid index and must still get their ``TypeError``.
        """
        if type(index) is not int:
            return self._locate(name, index)
        address = self._resolved.get((name, index))
        if address is None:
            address = self._resolved[name, index] = self._locate(name, index)
        return address

    def _locate(self, name: str, index: int) -> GlobalAddress:
        """Validate ``name[index]`` and build its address from the symbol's regions."""
        symbol = self.symbol(name)
        if not isinstance(index, int) or isinstance(index, bool):
            raise TypeError(f"index must be an int, got {index!r}")
        if not (0 <= index < symbol.length):
            raise IndexError(
                f"index {index} out of bounds for shared symbol {name!r} of length {symbol.length}"
            )
        if symbol.policy is PlacementPolicy.OWNER or symbol.length == 1 or len(symbol.regions) == 1:
            return symbol.regions[0].address_of(index)
        if symbol.policy is PlacementPolicy.BLOCK:
            remaining = index
            for region in symbol.regions:
                if remaining < region.length:
                    return region.address_of(remaining)
                remaining -= region.length
            raise IndexError(f"index {index} not covered by regions of {name!r}")
        # ROUND_ROBIN: element i lives on rank i % world_size at position i // world_size.
        rank = index % self.world_size
        position = index // self.world_size
        for region in symbol.regions:
            if region.owner == rank:
                return region.address_of(position)
        raise IndexError(f"index {index} not covered by regions of {name!r}")

    def owner_of(self, name: str, index: int = 0) -> int:
        """Rank that physically holds ``name[index]``."""
        return self.resolve(name, index).rank

    def locality_map(self, name: str) -> Dict[int, int]:
        """Return ``{rank: element_count}`` describing where *name* lives."""
        symbol = self.symbol(name)
        counts: Dict[int, int] = {}
        for region in symbol.regions:
            counts[region.owner] = counts.get(region.owner, 0) + region.length
        return counts

"""One rank's public memory as a state machine.

The model is the segment the module documents: a dense array of cells, every
one of them present from the start, plus a bump allocator for regions.  The
implementation is free to store the array any way it likes as long as no
rule can tell: every touch of an address hands out the *same*
:class:`MemoryCell` object, a touched cell keeps what was written through
any earlier handle, and the four accounting methods agree with the model
after every rule.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core.clocks import VectorClock
from repro.memory.address import GlobalAddress
from repro.memory.public import MemoryCell, PublicMemory

RANK = 2
SIZE = 12
WORLD = 3

offsets = st.integers(0, SIZE - 1)
values = st.one_of(st.none(), st.integers(-3, 3), st.sampled_from(["a", "b"]))
#: Few names, so a duplicate registration is a common draw.
region_names = st.sampled_from(["x", "y", "z", "halo", "flag"])
#: Lengths on both sides of what is left, and the two illegal ones.
region_lengths = st.integers(-1, SIZE + 2)


class ModelCell:
    """What the model keeps per cell: the fields of a ``MemoryCell``."""

    def __init__(self):
        self.value = None
        self.read_count = 0
        self.write_count = 0
        self.last_writer = None
        self.clock_entries = 0


class PublicMemoryMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.memory = PublicMemory(RANK, SIZE)
        # -- the model: dense, every cell built up front --
        self.cells = [ModelCell() for _ in range(SIZE)]
        self.regions = {}       # name -> (base, length), in registration order
        self.next_free = 0
        # -- what the implementation handed out --
        self.handles = {}       # offset -> the first MemoryCell seen there

    # -- helpers ---------------------------------------------------------------------

    def handle(self, offset):
        """``memory.cell(offset)``, checked to be the one object it ever was."""
        cell = self.memory.cell(GlobalAddress(RANK, offset))
        assert isinstance(cell, MemoryCell)
        assert cell is self.handles.setdefault(offset, cell)
        for other, earlier in self.handles.items():
            assert (earlier is cell) == (other == offset)
        return cell

    def check_cell(self, offset):
        cell, model = self.handle(offset), self.cells[offset]
        assert (cell.value, cell.read_count, cell.write_count, cell.last_writer) == (
            model.value, model.read_count, model.write_count, model.last_writer,
        )
        assert cell.clock_storage_entries() == model.clock_entries

    # -- regions ---------------------------------------------------------------------

    @rule(name=region_names, length=region_lengths)
    def register_region(self, name, length):
        if name in self.regions:
            with pytest.raises(ValueError, match="already registered"):
                self.memory.register_region(name, length)
        elif length <= 0:
            with pytest.raises(ValueError, match="positive"):
                self.memory.register_region(name, length)
        elif self.next_free + length > SIZE:
            with pytest.raises(MemoryError, match=f"{SIZE - self.next_free} free"):
                self.memory.register_region(name, length)
        else:
            region = self.memory.register_region(name, length)
            assert (region.owner, region.base, region.length) == (
                RANK, self.next_free, length,
            )
            self.regions[name] = (self.next_free, length)
            self.next_free += length
        assert self.memory.allocated == self.next_free
        assert [r.name for r in self.memory.regions()] == list(self.regions)

    @rule(offset=offsets)
    def region_containing(self, offset):
        found = self.memory.region_containing(GlobalAddress(RANK, offset))
        expected = [
            name
            for name, (base, length) in self.regions.items()
            if base <= offset < base + length
        ]
        assert ([found.name] if found is not None else []) == expected

    # -- cell access -----------------------------------------------------------------

    @rule(offset=offsets, value=values, writer=st.one_of(st.none(), st.integers(0, WORLD - 1)))
    def write(self, offset, value, writer):
        self.memory.write(GlobalAddress(RANK, offset), value, writer=writer)
        model = self.cells[offset]
        model.value, model.last_writer = value, writer
        model.write_count += 1
        self.check_cell(offset)

    @rule(offset=offsets)
    def read(self, offset):
        assert self.memory.read(GlobalAddress(RANK, offset)) == self.cells[offset].value
        self.cells[offset].read_count += 1
        self.check_cell(offset)

    @rule(offset=offsets)
    def peek(self, offset):
        assert self.memory.peek(GlobalAddress(RANK, offset)) == self.cells[offset].value
        self.check_cell(offset)

    @rule(offset=offsets)
    def cell(self, offset):
        self.check_cell(offset)

    @rule(offset=offsets, value=values)
    def write_through_an_earlier_handle(self, offset, value):
        """What the NIC's detector does: mutate the object ``cell()`` returned."""
        cell = self.handles.get(offset) or self.handle(offset)
        cell.value = value
        self.cells[offset].value = value
        assert self.memory.peek(GlobalAddress(RANK, offset)) == value

    @rule(offset=offsets, access=st.booleans(), write=st.booleans())
    def store_clocks(self, offset, access, write):
        cell = self.handles.get(offset) or self.handle(offset)
        cell.access_clock = VectorClock.zeros(WORLD) if access else None
        cell.write_clock = VectorClock.zeros(WORLD) if write else None
        self.cells[offset].clock_entries = WORLD * (access + write)
        self.check_cell(offset)

    # -- rejected addresses ----------------------------------------------------------

    @rule(rank=st.sampled_from([0, 1, 3]), offset=offsets, how=st.sampled_from("rwpc"))
    def foreign_rank(self, rank, offset, how):
        with pytest.raises(ValueError, match="does not belong"):
            self.touch(how, GlobalAddress(rank, offset))

    @rule(beyond=st.integers(0, 3), how=st.sampled_from("rwpc"))
    def out_of_range(self, beyond, how):
        with pytest.raises(IndexError, match="out of bounds"):
            self.touch(how, GlobalAddress(RANK, SIZE + beyond))

    @rule(how=st.sampled_from("rwpc"))
    def not_an_address(self, how):
        with pytest.raises(TypeError):
            self.touch(how, (RANK, 0))

    def touch(self, how, address):
        if how == "r":
            self.memory.read(address)
        elif how == "w":
            self.memory.write(address, "never stored")
        elif how == "p":
            self.memory.peek(address)
        else:
            self.memory.cell(address)

    # -- invariants ------------------------------------------------------------------

    @invariant()
    def accounting_matches_the_dense_model(self):
        assert self.memory.total_reads() == sum(c.read_count for c in self.cells)
        assert self.memory.total_writes() == sum(c.write_count for c in self.cells)
        assert self.memory.clock_storage_entries() == sum(
            c.clock_entries for c in self.cells
        )
        assert self.memory.snapshot_values() == [c.value for c in self.cells]

    @invariant()
    def identity_and_shape_hold(self):
        assert (self.memory.rank, self.memory.size) == (RANK, SIZE)
        for offset in self.handles:
            self.handle(offset)


TestPublicMemoryStateMachine = PublicMemoryMachine.TestCase
TestPublicMemoryStateMachine.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)

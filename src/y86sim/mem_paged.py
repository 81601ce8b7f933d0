"""Demand-paged concrete memory: a 256-entry block table over a flat array.

The 2^32 byte space is split into 256 blocks of 16MB.  A block's backing
storage is appended to the flat array the first time the block is
written; the table maps block number to the block's base offset in the
array, with a sentinel for not-yet-allocated blocks.  Reads of absent
blocks return 0 and never allocate.
"""

from __future__ import annotations

from .errors import AddressOutOfRange, AllocationFailure, ValueOutOfRange
from .isa import MEM_SIZE

__all__ = ["TABLE_SIZE", "PAGE_SIZE", "MEM_SIZE", "SENTINEL", "PagedMemory"]

TABLE_SIZE = 256
PAGE_SIZE = 1 << 24
# 1 can never be a block base (bases are multiples of PAGE_SIZE).
SENTINEL = 1

_OFFSET_MASK = PAGE_SIZE - 1
_ZERO_PAGE = bytes(PAGE_SIZE)


class PagedMemory:
    """Mutable byte memory; `write` updates in place and returns self.

    `update_count` increments once per primitive field mutation (table
    entry, array growth, cursor, byte store) so a dual-state harness can
    observe how many updates one operation performed.
    """

    __slots__ = ("table", "array", "next_addr", "update_count")

    def __init__(self):
        self.array = bytearray()
        self.table = [SENTINEL] * TABLE_SIZE
        self.next_addr = 0
        self.update_count = 0

    def read(self, addr: int) -> int:
        if not 0 <= addr < MEM_SIZE:
            raise AddressOutOfRange(f"address {addr:#x} not a 32-bit address")
        base = self.table[addr >> 24]
        if base == SENTINEL:
            return 0
        return self.array[base | (addr & _OFFSET_MASK)]

    def write(self, addr: int, value: int) -> "PagedMemory":
        if not 0 <= addr < MEM_SIZE:
            raise AddressOutOfRange(f"address {addr:#x} not a 32-bit address")
        if not 0 <= value <= 0xFF:
            raise ValueOutOfRange(f"value {value} not a byte")
        top = addr >> 24
        if self.table[top] == SENTINEL:
            self.add_page(top)
        self.array[self.table[top] | (addr & _OFFSET_MASK)] = value
        self.update_count += 1
        return self

    def add_page(self, top: int) -> "PagedMemory":
        """Allocate block `top` as one zero page appended at the cursor,
        which is always the end of the array."""
        if not 0 <= top < TABLE_SIZE:
            raise AddressOutOfRange(f"block number {top} not in 0..255")
        if self.table[top] != SENTINEL:
            raise ValueError(f"block {top} already allocated")
        base = self.next_addr
        try:
            self.array += _ZERO_PAGE
        except MemoryError as exc:
            raise AllocationFailure(
                f"cannot grow array to {base + PAGE_SIZE} bytes") from exc
        self.update_count += 1
        self.table[top] = base
        self.update_count += 1
        self.next_addr = base + PAGE_SIZE
        self.update_count += 1
        return self

    def wellformed(self) -> bool:
        """The memory invariant: table, array and cursor are consistent,
        and the array ends at the cursor."""
        bases = [e for e in self.table if e != SENTINEL]
        return (
            all(e & _OFFSET_MASK == 0 for e in bases)
            and all(e < self.next_addr for e in bases)
            and len(set(bases)) == len(bases)
            and self.next_addr % PAGE_SIZE == 0
            and self.next_addr == len(self.array)
            and self.next_addr // PAGE_SIZE == len(bases)
        )

    def pages_allocated(self) -> int:
        return self.next_addr // PAGE_SIZE

    def copy(self) -> "PagedMemory":
        new = object.__new__(PagedMemory)
        new.table = list(self.table)
        new.array = bytearray(self.array)
        new.next_addr = self.next_addr
        new.update_count = self.update_count
        return new

    def __repr__(self) -> str:
        return (f"PagedMemory({self.pages_allocated()} pages, "
                f"{len(self.array)} bytes backing)")

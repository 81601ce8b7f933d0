"""Demand-paged concrete memory: a 256-entry block table over a flat array.

The 2^32 byte space is split into 256 blocks of 16MB.  A block's backing
storage is appended to the flat array the first time the block is
written; the table maps block number to the block's base offset in the
array, with a sentinel for not-yet-allocated blocks.  Reads of absent
blocks return 0 and never allocate.  `read_span` reads a run of
consecutive bytes as one slice of the flat array when the run lies in one
block, and `read_many` reads a list of addresses in one pass over the
table and array.

The flat array is a private anonymous mapping, grown in place by one
block per allocation (`mmap.resize`, which is `mremap` on Linux).  The
kernel supplies its pages lazily: a byte never written reads 0 and takes
no resident memory, so a new block costs no 16MB zero-fill.  Growth needs
a resizable anonymous mapping: on a system without `mremap`, growing past
the first block raises `AllocationFailure`, as does any mapping the OS
refuses.

`nonzero_chunks` yields the OS pages (`CHUNK` bytes each) of the
allocated blocks that hold a nonzero byte.  It reads only the pages that
the kernel has mapped or swapped, as `/proc/self/pagemap` records them
(bits 63 and 62 of a page's entry); every other page of the mapping reads
0.  Where the pagemap cannot be read it compares each `_STRIDE`-byte
stride of the mapping with zero and reads every page of the strides that
differ: the pages are the same, only found slower.  `copy` writes only
those pages.
"""

from __future__ import annotations

import ctypes
import mmap
import os
from array import array

from .errors import AddressOutOfRange, AllocationFailure, access_error
from .isa import MASK32, MEM_SIZE, is_nat

__all__ = ["TABLE_SIZE", "PAGE_SIZE", "MEM_SIZE", "SENTINEL", "CHUNK",
           "PagedMemory"]

TABLE_SIZE = 256
PAGE_SIZE = 1 << 24
# 1 can never be a block base (bases are multiples of PAGE_SIZE).
SENTINEL = 1

_OFFSET_MASK = PAGE_SIZE - 1

# A chunk is one OS page.  Without the pagemap, the mapping is compared with
# zero a stride at a time: a block is a whole number of strides, and a
# stride of pages.
CHUNK = mmap.PAGESIZE
_ZERO_CHUNK = bytes(CHUNK)
_STRIDE = max(1 << 16, CHUNK)
_ZERO_STRIDE = bytes(_STRIDE)
_ALL_PAGES = b"\1" * (_STRIDE // CHUNK)
_NO_PAGES = bytes(_STRIDE // CHUNK)
# Maps the top byte of a pagemap entry to 1 when its bit 63 (present) or 62
# (swapped) is set.
_MAPPED = bytes(1 if b & 0xC0 else 0 for b in range(256))


def _mapping(size: int) -> mmap.mmap:
    return mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE)


def _mapped_pages(data: mmap.mmap) -> bytes:
    """One byte per OS page of `data`, 1 where the kernel has mapped or
    swapped the page, from one read of its pagemap entries; raises OSError
    when they cannot be read."""
    # The buffer export lives only for this expression, so a later
    # `mmap.resize` still works.
    start = ctypes.addressof(ctypes.c_char.from_buffer(data))
    size = 8 * (len(data) // mmap.PAGESIZE)
    fd = os.open("/proc/self/pagemap", os.O_RDONLY)
    try:
        raw = os.pread(fd, size, 8 * (start // mmap.PAGESIZE))
    finally:
        os.close(fd)
    if len(raw) != size:
        raise OSError("short read of /proc/self/pagemap")
    return raw[7::8].translate(_MAPPED)


def _nonzero_strides(data: mmap.mmap) -> bytes:
    """One byte per OS page of `data`, 1 in each `_STRIDE`-byte stride that
    holds a nonzero byte: what `_mapped_pages` gives, for where the
    pagemap cannot be read."""
    return b"".join(
        _NO_PAGES if data[start:start + _STRIDE] == _ZERO_STRIDE else _ALL_PAGES
        for start in range(0, len(data), _STRIDE))


class PagedMemory:
    """Mutable byte memory; `write` updates in place and returns self.

    `update_count` increments once per primitive field mutation (table
    entry, array growth, cursor, byte store) so a dual-state harness can
    observe how many updates one operation performed.
    """

    __slots__ = ("table", "array", "next_addr", "update_count")

    def __init__(self):
        self.array = b""  # no blocks, no mapping
        self.table = [SENTINEL] * TABLE_SIZE
        self.next_addr = 0
        self.update_count = 0

    def read(self, addr: int) -> int:
        try:
            if addr >> 32:
                raise access_error(addr)
        except TypeError:  # not an int
            raise access_error(addr) from None
        base = self.table[addr >> 24]
        if base == SENTINEL:
            return 0
        return self.array[base | (addr & _OFFSET_MASK)]

    def read_span(self, addr: int, n: int) -> bytes:
        """The `n` bytes at `addr` onwards, wrapping past 0xFFFFFFFF; raises
        what `read` raises for `addr`.  A span inside one block is one slice
        of the array, or `n` zeros in an unallocated block; one that crosses
        a block or 2^32 is one `read_many` of its masked addresses."""
        try:
            if addr >> 32:
                raise access_error(addr)
        except TypeError:  # not an int
            raise access_error(addr) from None
        base = self.table[addr >> 24]
        offset = addr & _OFFSET_MASK
        if offset > PAGE_SIZE - n:
            return self.read_many([a & MASK32 for a in range(addr, addr + n)])
        if base == SENTINEL:
            return bytes(n)
        start = base | offset
        return self.array[start:start + n]

    def read_many(self, addrs) -> bytes:
        """`bytes(map(self.read, addrs))` for any iterable `addrs`, in one pass
        over the live table and array; raises what `read` raises."""
        if iter(addrs) is addrs:  # a one-shot iterator: read it once
            addrs = list(addrs)
        try:
            array("I", addrs)  # every address a 32-bit int, checked in C
        except (TypeError, OverflowError):
            return bytes(map(self.read, addrs))
        table, data = self.table, self.array
        return bytes([0 if (base := table[a >> 24]) == SENTINEL
                      else data[base | (a & _OFFSET_MASK)] for a in addrs])

    def write(self, addr: int, value: int) -> "PagedMemory":
        try:
            if addr >> 32 or value >> 8:
                raise access_error(addr, value)
        except TypeError:  # one of them is not an int
            raise access_error(addr, value) from None
        top = addr >> 24
        if self.table[top] == SENTINEL:
            self.add_page(top)
        self.array[self.table[top] | (addr & _OFFSET_MASK)] = value
        self.update_count += 1
        return self

    def add_page(self, top: int) -> "PagedMemory":
        """Allocate block `top` as one zero page appended at the cursor,
        which is always the end of the array: the first block maps the
        array, each later one grows the mapping in place."""
        if not is_nat(top, TABLE_SIZE):
            raise AddressOutOfRange(f"block number {top} not in 0..255")
        if self.table[top] != SENTINEL:
            raise ValueError(f"block {top} already allocated")
        base = self.next_addr
        try:
            if base:
                self.array.resize(base + PAGE_SIZE)
            else:
                self.array = _mapping(PAGE_SIZE)
        except (OSError, MemoryError, SystemError) as exc:
            raise AllocationFailure(
                f"cannot grow array to {base + PAGE_SIZE} bytes") from exc
        self.update_count += 1
        self.table[top] = base
        self.update_count += 1
        self.next_addr = base + PAGE_SIZE
        self.update_count += 1
        return self

    def wellformed(self) -> bool:
        """The memory invariant: the cursor is the array's length and one
        page per allocated table entry, and every page offset below the
        cursor is in the table.  There are as many offsets as allocated
        entries, so the allocated entries are exactly those offsets and no
        two share a base.  Both tests run in C: one count of the table, and
        one containment scan of it per offset."""
        table, cursor = self.table, self.next_addr
        return (cursor == len(self.array)
                == PAGE_SIZE * (len(table) - table.count(SENTINEL))
                and all(map(table.__contains__,
                            range(0, cursor, PAGE_SIZE))))

    def pages_allocated(self) -> int:
        return self.next_addr // PAGE_SIZE

    def _chunks_to_read(self):
        """(address, array offset) of each page of an allocated block that
        can hold a nonzero byte, lowest address first: every page the
        kernel has mapped or swapped, or every page of a stride that holds
        a nonzero byte when the pagemap cannot be read."""
        data = self.array
        try:
            mapped = _mapped_pages(data) if data else b""
        except OSError:
            mapped = _nonzero_strides(data)
        for top, base in enumerate(self.table):
            if base == SENTINEL:
                continue
            end = (base + PAGE_SIZE) // CHUNK
            page = mapped.find(1, base // CHUNK, end)
            while page >= 0:
                start = page * CHUNK
                yield (top << 24) | (start - base), start
                page = mapped.find(1, page + 1, end)

    def nonzero_chunks(self):
        """(address, bytes) of each OS page of an allocated block that holds
        a nonzero byte, lowest address first; only the pages
        `_chunks_to_read` names are read."""
        data = self.array
        for addr, start in self._chunks_to_read():
            chunk = data[start:start + CHUNK]
            if chunk != _ZERO_CHUNK:
                yield addr, chunk

    def copy(self) -> "PagedMemory":
        """An independent memory with equal contents; only the OS pages that
        hold a nonzero byte are written, so no other page of the copy is
        resident."""
        new = object.__new__(PagedMemory)
        new.table = list(self.table)
        if self.array:
            new.array = _mapping(len(self.array))
            table = self.table
            for addr, chunk in self.nonzero_chunks():
                start = table[addr >> 24] | (addr & _OFFSET_MASK)
                new.array[start:start + CHUNK] = chunk
        else:
            new.array = b""
        new.next_addr = self.next_addr
        new.update_count = self.update_count
        return new

    def __repr__(self) -> str:
        return (f"PagedMemory({self.pages_allocated()} pages, "
                f"{len(self.array)} bytes backing)")

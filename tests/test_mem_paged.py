"""Paged memory: allocation traces, the memory invariant, and oracles."""

import errno
import mmap
import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from y86sim.errors import AddressOutOfRange, AllocationFailure, ValueOutOfRange
from y86sim.isa import Status
from y86sim.machine import Machine, run_in_lockstep
from y86sim.mem_paged import (
    CHUNK,
    MEM_SIZE,
    PAGE_SIZE,
    SENTINEL,
    TABLE_SIZE,
    PagedMemory,
    _STRIDE,
)
from y86sim.mem_sparse import SparseMemory

from conftest import allocated_blocks

# Keep generated addresses within a few blocks so tests stay small.
TEST_BLOCKS = (0, 1, 3, 255)


def block_addr(block, offset):
    return (block << 24) | offset


def test_new_is_wellformed():
    mem = PagedMemory()
    assert mem.wellformed()
    assert mem.table == [SENTINEL] * TABLE_SIZE
    assert len(mem.array) == 0
    assert mem.next_addr == 0
    assert mem.pages_allocated() == 0


def test_fresh_reads_zero():
    mem = PagedMemory()
    for addr in (0, 5, 0x01000005, MEM_SIZE - 1):
        assert mem.read(addr) == 0
    # Reads never allocate.
    assert mem.pages_allocated() == 0
    assert len(mem.array) == 0


def test_write_trace_from_fresh():
    # Hand trace: first write allocates block 1 at array base 0.
    mem = PagedMemory()
    mem.write(0x01000005, 7)
    assert mem.table[1] == 0
    assert mem.next_addr == PAGE_SIZE
    assert len(mem.array) == PAGE_SIZE
    assert mem.array[5] == 7
    assert mem.read(0x01000005) == 7
    assert mem.read(0x01000006) == 0

    # Same block: no new page, top offset of the block.
    mem.write(0x01FFFFFF, 9)
    assert mem.pages_allocated() == 1
    assert mem.array[0xFFFFFF] == 9

    # Different block: second page at the growth cursor.
    mem.write(0x00000000, 1)
    assert mem.table[0] == PAGE_SIZE
    assert mem.next_addr == 2 * PAGE_SIZE
    assert mem.read(0) == 1
    assert mem.wellformed()


def test_add_page_fresh():
    mem = PagedMemory()
    mem.add_page(3)
    assert mem.table[3] == 0
    assert mem.next_addr == PAGE_SIZE
    assert len(mem.array) == PAGE_SIZE
    assert mem.wellformed()


def test_add_page_distinct_bases():
    mem = PagedMemory()
    mem.add_page(7)
    mem.add_page(200)
    assert mem.table[7] != mem.table[200]
    with pytest.raises(ValueError):
        mem.add_page(7)


@pytest.mark.parametrize("top", [True, 1.5])
def test_add_page_refuses_a_block_number_the_range_rule_rejects(top):
    # Without the rule, True allocated block 1 and 1.5 indexed the table.
    mem = PagedMemory()
    mem.write(5, 9)
    table, array = list(mem.table), mem.array
    with pytest.raises(AddressOutOfRange,
                       match=f"^block number {top} not in 0..255$"):
        mem.add_page(top)
    assert list(mem.table) == table and mem.array is array
    assert (mem.next_addr, len(array), mem.update_count) == (PAGE_SIZE,
                                                             PAGE_SIZE, 4)
    assert mem.read(5) == 9 and mem.wellformed()


def test_wellformed_violations_by_construction():
    mem = PagedMemory()
    mem.write(0, 3)
    assert mem.wellformed()
    mem.table[0] = 5  # not block-aligned
    assert not mem.wellformed()

    mem = PagedMemory()
    mem.write(0, 3)
    mem.next_addr = len(mem.array) + PAGE_SIZE  # cursor past the backing
    assert not mem.wellformed()

    mem = PagedMemory()
    mem.write(0, 3)
    mem.write(block_addr(1, 0), 4)
    mem.table[1] = mem.table[0]  # duplicate base
    assert not mem.wellformed()

    mem = PagedMemory()
    mem.write(0, 7)
    mem.write(block_addr(1, 0), 9)
    mem.table[0] = -PAGE_SIZE  # negative base, aliasing block 1's page
    assert mem.read(0) == 9
    assert not mem.wellformed()


def test_wellformed_rejects_backing_past_the_cursor():
    mem = PagedMemory()
    mem.write(0, 3)
    mem.array.resize(2 * PAGE_SIZE)  # a page no block owns
    assert not mem.wellformed()


def set_equation(mem):
    """The invariant as `wellformed()` once computed it: the allocated
    entries, as a set, are the page offsets below the cursor."""
    table = mem.table
    return (mem.next_addr == len(mem.array)
            == PAGE_SIZE * (len(table) - table.count(SENTINEL))
            and set(table) - {SENTINEL}
            == set(range(0, mem.next_addr, PAGE_SIZE)))


# What an edit may put in a table entry: the sentinel and True, which equals
# it; bases, some at or past any cursor drawn below, so duplicates too; and
# floats equal to a base.
table_entries = st.sampled_from(
    [SENTINEL, True, 0.0, float(PAGE_SIZE)]
    + [k * PAGE_SIZE for k in range(6)])


@settings(max_examples=300, deadline=None)
@given(tops=st.lists(st.integers(0, 7), unique=True, max_size=4),
       edits=st.lists(st.tuples(st.integers(0, 7), table_entries),
                      max_size=3),
       cursor_shift=st.sampled_from([0, 0, -1, 1]),
       length_shift=st.sampled_from([0, 0, -1, 1]))
def test_paged_wellformed_equals_the_set_equation(tops, edits, cursor_shift,
                                                  length_shift):
    # A wellformed table over blocks 0..7, then edits: an entry freed or
    # allocated puts the sentinel count off by one, and a shift makes the
    # cursor disagree with the length of the array.
    mem = PagedMemory()
    for base, top in enumerate(tops):
        mem.table[top] = base * PAGE_SIZE
    for top, entry in edits:
        mem.table[top] = entry
    mem.next_addr = max(0, len(tops) + cursor_shift) * PAGE_SIZE
    # wellformed() reads only the array's length.
    mem.array = range(max(0, len(tops) + length_shift) * PAGE_SIZE)
    assert mem.wellformed() == set_equation(mem)


def test_paged_wellformed_reads_true_as_the_sentinel_and_0_0_as_base_0():
    mem = PagedMemory()
    mem.table[3], mem.table[9] = 0.0, True
    mem.next_addr, mem.array = PAGE_SIZE, range(PAGE_SIZE)
    assert mem.wellformed() and set_equation(mem)
    mem.table[9] = 0
    assert not mem.wellformed() and not set_equation(mem)


def test_blocks_lists_allocated_blocks_lowest_first():
    mem = PagedMemory()
    assert allocated_blocks(mem) == []
    for block in (200, 7, 0):
        mem.add_page(block)
    assert allocated_blocks(mem) == [0, 7 << 24, 200 << 24]


def test_pages_allocated_examples():
    mem = PagedMemory()
    mem.write(123, 45)
    assert mem.pages_allocated() == 1
    for block in (2, 9, 255):
        mem.write(block_addr(block, 123), 1)
    assert mem.pages_allocated() == 4


def test_range_errors():
    mem = PagedMemory()
    with pytest.raises(AddressOutOfRange):
        mem.read(MEM_SIZE)
    with pytest.raises(AddressOutOfRange):
        mem.write(MEM_SIZE, 0)
    with pytest.raises(ValueOutOfRange):
        mem.write(0, 300)
    with pytest.raises(AddressOutOfRange):
        mem.add_page(TABLE_SIZE)


test_addrs = st.builds(
    block_addr,
    st.sampled_from(TEST_BLOCKS),
    st.integers(0, PAGE_SIZE - 1),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(test_addrs, st.integers(0, 255)), max_size=12))
def test_write_preserves_invariant(ops):
    mem = PagedMemory()
    for addr, value in ops:
        mem.write(addr, value)
        assert mem.wellformed()


def test_read_over_write_with_hypotheses():
    # Byte-valued writes on a wellformed memory: reading j after writing i
    # sees the write exactly when i == j.  Same-block and cross-block pairs.
    rng = random.Random(0x9A6E)
    mem = PagedMemory()
    for _ in range(20_000):
        block = rng.choice(TEST_BLOCKS)
        i = block_addr(block, rng.randrange(PAGE_SIZE))
        if rng.random() < 0.5:
            j = block_addr(block, rng.randrange(PAGE_SIZE))
        else:
            j = block_addr(rng.choice(TEST_BLOCKS), rng.randrange(PAGE_SIZE))
        v = rng.randrange(256)
        before = mem.read(j)
        mem.write(i, v)
        assert mem.read(j) == (v if i == j else before)
    assert mem.wellformed()


def test_oracle_equivalence_against_sparse():
    # Interleaved reads/writes agree with the sparse-map memory at every
    # step, for addresses drawn from up to 8 distinct blocks.
    rng = random.Random(0x0AC1E)
    blocks = (0, 1, 2, 3, 64, 128, 254, 255)
    paged = PagedMemory()
    sparse = SparseMemory()
    for _ in range(10_000):
        addr = block_addr(rng.choice(blocks), rng.randrange(PAGE_SIZE))
        if rng.random() < 0.5:
            value = rng.randrange(256)
            paged.write(addr, value)
            sparse = sparse.write(addr, value)
        else:
            assert paged.read(addr) == sparse.read(addr)
    for addr in sparse.touched():
        assert paged.read(addr) == sparse.read(addr)
    assert paged.wellformed()


def test_space_bound():
    rng = random.Random(7)
    mem = PagedMemory()
    written_blocks = set()
    for _ in range(500):
        block = rng.choice(TEST_BLOCKS)
        mem.write(block_addr(block, rng.randrange(PAGE_SIZE)), rng.randrange(256))
        written_blocks.add(block)
        assert mem.pages_allocated() == len(written_blocks)


def test_copy_is_independent():
    mem = PagedMemory()
    mem.write(10, 1)
    dup = mem.copy()
    dup.write(10, 2)
    assert mem.read(10) == 1
    assert dup.read(10) == 2


def test_copy_of_an_empty_memory_is_empty():
    dup = PagedMemory().copy()
    assert len(dup.array) == 0 and dup.wellformed()
    dup.write(5, 1)
    assert dup.read(5) == 1 and dup.wellformed()


def test_copy_taken_midway_stays_independent_while_both_grow():
    mem = PagedMemory()
    for top in (4, 1, 9):
        mem.write(block_addr(top, 77), top)
    dup = mem.copy()
    assert dup.array is not mem.array
    for top in (30, 2):
        mem.write(block_addr(top, 5), 0xA0 | top)
    mem.write(block_addr(4, 77), 0xEE)
    for top in (60, 3, 200):
        dup.write(block_addr(top, PAGE_SIZE - 1), 0xB0 | top & 0xF)
    dup.write(block_addr(9, 77), 0xDD)

    assert allocated_blocks(mem) == [block_addr(t, 0)
                                     for t in (1, 2, 4, 9, 30)]
    assert allocated_blocks(dup) == [block_addr(t, 0)
                                     for t in (1, 3, 4, 9, 60, 200)]
    assert [mem.read(block_addr(t, 77)) for t in (1, 4, 9)] == [1, 0xEE, 9]
    assert [dup.read(block_addr(t, 77)) for t in (1, 4, 9)] == [1, 4, 0xDD]
    assert [mem.read(block_addr(t, 5)) for t in (30, 2)] == [0xBE, 0xA2]
    assert [dup.read(block_addr(t, 5)) for t in (30, 2)] == [0, 0]
    assert [dup.read(block_addr(t, PAGE_SIZE - 1)) for t in (60, 3, 200)] \
        == [0xBC, 0xB3, 0xB8]
    assert [mem.read(block_addr(t, PAGE_SIZE - 1)) for t in (60, 3, 200)] \
        == [0, 0, 0]
    assert mem.wellformed() and dup.wellformed()


def test_every_written_byte_reads_back_after_each_growth():
    blocks = list(range(0, TABLE_SIZE, 13))
    assert len(blocks) == 20
    random.Random(15).shuffle(blocks)
    mem = PagedMemory()
    written = {}
    for i, top in enumerate(blocks):
        written[block_addr(top, 0)] = i + 1
        written[block_addr(top, PAGE_SIZE - 1)] = 0xFF - i
        mem.write(block_addr(top, 0), i + 1)
        mem.write(block_addr(top, PAGE_SIZE - 1), 0xFF - i)
        assert {addr: mem.read(addr) for addr in written} == written
        assert mem.read(block_addr(top, PAGE_SIZE // 2)) == 0
        assert mem.wellformed()
    assert mem.pages_allocated() == 20


def _refused():
    return OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))


def _state(mem):
    return (list(mem.table), mem.next_addr, mem.update_count,
            len(mem.array), mem.wellformed())


def test_a_refused_first_mapping_is_an_allocation_failure(monkeypatch):
    def refuse(*args, **kwargs):
        raise _refused()

    monkeypatch.setattr(mmap, "mmap", refuse)
    mem = PagedMemory()
    before = _state(mem)
    with pytest.raises(AllocationFailure,
                       match=f"^cannot grow array to {PAGE_SIZE} bytes$"):
        mem.add_page(3)
    assert _state(mem) == before
    with pytest.raises(AllocationFailure):
        mem.write(block_addr(3, 0), 1)
    assert _state(mem) == before


def test_a_refused_growth_is_an_allocation_failure(monkeypatch):
    class RefusingResize(mmap.mmap):
        refuse = False

        def resize(self, size):
            if RefusingResize.refuse:
                raise _refused()
            return super().resize(size)

    monkeypatch.setattr(mmap, "mmap", RefusingResize)
    mem = PagedMemory()
    mem.write(block_addr(5, 1), 0x51)
    mem.write(block_addr(9, 2), 0x92)
    RefusingResize.refuse = True
    before = _state(mem)
    with pytest.raises(AllocationFailure,
                       match=f"^cannot grow array to {3 * PAGE_SIZE} bytes$"):
        mem.add_page(200)
    assert _state(mem) == before
    with pytest.raises(AllocationFailure):
        mem.write(block_addr(200, 0), 1)
    assert _state(mem) == before
    assert (mem.read(block_addr(5, 1)), mem.read(block_addr(9, 2))) \
        == (0x51, 0x92)

    RefusingResize.refuse = False
    mem.write(block_addr(200, 3), 0x23)
    assert mem.read(block_addr(200, 3)) == 0x23 and mem.wellformed()


# ---------------------------------------------------------------------------
# nonzero chunks, and the copy over them

def full_scan(mem):
    """(address, chunk) of every nonzero chunk, found by reading them all."""
    found = []
    for block in allocated_blocks(mem):
        base = mem.table[block >> 24]
        for offset in range(0, PAGE_SIZE, CHUNK):
            chunk = mem.array[base + offset:base + offset + CHUNK]
            if chunk.count(0) != CHUNK:
                found.append((block | offset, chunk))
    return found


def refuse_pagemap(*args):
    raise OSError(errno.EACCES, "pagemap refused")


def short_pagemap(*args):
    return b""


# Bytes of 0 are kept: a page written back to zero is mapped but reads 0.
chunk_writes = st.lists(st.tuples(test_addrs, st.sampled_from([0, 1, 0xFF])),
                        max_size=10)


@settings(max_examples=40, deadline=None)
@given(ops=chunk_writes, pagemap=st.sampled_from(["read", "refused", "short"]))
def test_nonzero_chunks_count_equals_a_full_scan(ops, pagemap):
    mem = PagedMemory()
    for addr, value in ops:
        mem.write(addr, value)
    fake = {"refused": refuse_pagemap, "short": short_pagemap}.get(pagemap)
    with pytest.MonkeyPatch.context() as patch:
        if fake:
            patch.setattr(os, "pread", fake)
        chunks = list(mem.nonzero_chunks())
    scanned = full_scan(mem)
    assert chunks == scanned
    assert sum(CHUNK - c.count(0) for _, c in chunks) \
        == sum(CHUNK - c.count(0) for _, c in scanned) \
        == sum(1 for value in dict(ops).values() if value)


def test_without_the_pagemap_every_chunk_is_read(monkeypatch):
    # Every page of each stride that holds a nonzero byte: here one stride.
    mem = PagedMemory()
    mem.write(block_addr(3, 5), 1)
    monkeypatch.setattr(os, "pread", refuse_pagemap)
    assert len(list(mem._chunks_to_read())) == _STRIDE // CHUNK
    assert list(mem.nonzero_chunks()) == full_scan(mem)


@pytest.mark.parametrize("bit, read", [(63, True), (62, True), (61, False),
                                       (55, False), (0, False)],
                         ids=["present", "swapped", "file", "soft-dirty",
                              "pfn"])
def test_only_a_present_or_swapped_page_is_read(monkeypatch, bit, read):
    # A made-up pagemap marks only the page holding the byte, with one bit.
    offset = 5 * CHUNK + 3 * mmap.PAGESIZE + 9
    mem = PagedMemory()
    mem.write(block_addr(2, offset), 0x77)

    def pagemap(fd, size, at):
        entries = [0] * (size // 8)
        entries[offset // mmap.PAGESIZE] = 1 << bit
        return b"".join(e.to_bytes(8, "little") for e in entries)

    monkeypatch.setattr(os, "pread", pagemap)
    chunks = list(mem.nonzero_chunks())
    assert len(chunks) == (1 if read else 0)
    if read:
        assert chunks == full_scan(mem)


def huge_pages_always():
    """Whether the kernel may back one written byte with a huge page, which
    maps more than one chunk."""
    root = Path("/sys/kernel/mm/transparent_hugepage")
    texts = [p.read_text() for p in [root / "enabled",
                                     *root.glob("hugepages-*/enabled")]
             if p.exists()]
    return any("[always]" in text for text in texts)


linux_pagemap = pytest.mark.skipif(
    sys.platform != "linux" or huge_pages_always(),
    reason="needs /proc/self/pagemap and no transparent huge pages")


@linux_pagemap
def test_the_pagemap_path_reads_one_chunk_of_a_fresh_block():
    mem = PagedMemory()
    mem.write(block_addr(7, 0x123456), 0x42)
    page = 0x123456 - 0x123456 % CHUNK  # 0x123000 with 4 KB pages
    assert list(mem._chunks_to_read()) == [(block_addr(7, page), page)]
    assert list(mem.nonzero_chunks()) == full_scan(mem)


@linux_pagemap
def test_a_popcount_lockstep_sweep_reads_only_its_code_and_stack_pages(
        monkeypatch, popcount_assembled):
    image, symbols = popcount_assembled
    concrete, abstract = (Machine(mem(), eip=symbols["call-popcount"],
                                  esp=symbols["stack"], image=image)
                          for mem in (PagedMemory, SparseMemory))
    concrete.regs[2] = abstract.regs[2] = 0x9E3779B9
    swept = []
    chunks_to_read = PagedMemory._chunks_to_read

    def recorded(mem):
        swept.append(list(chunks_to_read(mem)))
        return iter(swept[-1])

    monkeypatch.setattr(PagedMemory, "_chunks_to_read", recorded)
    run_in_lockstep(concrete, abstract, 300)
    assert concrete.status is Status.HLT
    # The code lies in the first page; the call's return address is the
    # stack's one word.  The sweep reads no other page, so it maps none.
    assert max(addr for addr, _ in image) < CHUNK
    pages = sorted({0, (symbols["stack"] - 4) // CHUNK * CHUNK})
    assert swept[0] == [(p, p) for p in pages]


@linux_pagemap
def test_a_reused_paged_base_still_maps_only_its_code_and_stack_pages(
        popcount_assembled):
    # Two lockstep runs on one paged memory: neither final sweep maps a
    # page, so the second reads the same two pages as the first.
    image, symbols = popcount_assembled
    entry, stack = symbols["call-popcount"], symbols["stack"]
    concrete, abstract = (Machine(mem(), eip=entry, esp=stack, image=image)
                          for mem in (PagedMemory, SparseMemory))
    for _ in range(2):
        concrete.regs[2] = abstract.regs[2] = 0x9E3779B9
        run_in_lockstep(concrete, abstract, 300)
        assert concrete.status is Status.HLT
        concrete.reload(concrete.mem, eip=entry, esp=stack)
        abstract.reload(abstract.mem, eip=entry, esp=stack)
    pages = sorted({0, (stack - 4) // CHUNK * CHUNK})
    assert list(concrete.mem._chunks_to_read()) == [(p, p) for p in pages]


def one_byte_per_block():
    mem = PagedMemory()
    for top, offset in ((4, 77), (1, PAGE_SIZE - 1), (9, 0)):
        mem.write(block_addr(top, offset), 0x40 | top)
    return mem


def test_copy_writes_one_chunk_per_block():
    mem = one_byte_per_block()
    assert len(list(mem.nonzero_chunks())) == 3
    dup = mem.copy()
    assert list(dup.nonzero_chunks()) == list(mem.nonzero_chunks())
    assert dup.table == mem.table and dup.wellformed()


@linux_pagemap
def test_copy_maps_only_the_chunks_it_writes():
    dup = one_byte_per_block().copy()
    assert [addr for addr, _ in dup._chunks_to_read()] == [
        block_addr(1, PAGE_SIZE - CHUNK), block_addr(4, 0), block_addr(9, 0)]


@settings(max_examples=40, deadline=None)
@given(ops=chunk_writes, addrs=st.lists(test_addrs, max_size=30),
       pagemap=st.booleans())
def test_copy_reads_as_its_source(ops, addrs, pagemap):
    mem = PagedMemory()
    for addr, value in ops:
        mem.write(addr, value)
    with pytest.MonkeyPatch.context() as patch:
        if not pagemap:
            patch.setattr(os, "pread", refuse_pagemap)
        dup = mem.copy()
    addrs = [*addrs, *(a for a, _ in ops)]
    assert dup.read_many(addrs) == mem.read_many(addrs)
    assert full_scan(dup) == full_scan(mem)
    assert dup.wellformed() and dup.update_count == mem.update_count

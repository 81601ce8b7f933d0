"""Bulk memory reads: `read_span` and `read_many` against per-address
reads, `mismatch` against a per-address walk, both `wellformed()` checks
against their per-entry statements, and the addresses lockstep compares."""

import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from y86sim import asm, machine
from y86sim.errors import AddressOutOfRange, ValueOutOfRange
from y86sim.isa import MASK32, Kind
from y86sim.machine import (
    ESP,
    Machine,
    mismatch,
    run_in_lockstep,
)
from y86sim.mem_paged import MEM_SIZE, PAGE_SIZE, SENTINEL, PagedMemory
from y86sim.mem_sparse import SparseMemory

from conftest import SPARSE_ENTRY_TABLE, allocated_blocks, canonical

BLOCKS = (0, 1, 7, 255)
BACKENDS = (PagedMemory, SparseMemory)

in_blocks = st.builds(lambda block, offset: (block << 24) | offset,
                      st.sampled_from(BLOCKS), st.integers(0, PAGE_SIZE - 1))
# The first and last addresses of blocks, and of the address space.
EDGES = (0, 1, PAGE_SIZE - 1, PAGE_SIZE, PAGE_SIZE + 1, 0x7FFFFFFF,
         MEM_SIZE - 1)
any_addr = st.one_of(in_blocks, st.sampled_from(EDGES),
                     st.integers(0, MEM_SIZE - 1))
writes = st.lists(st.tuples(in_blocks, st.integers(0, 255)), max_size=12)


def filled(backend, ops):
    mem = backend()
    for addr, value in ops:
        mem = mem.write(addr, value)
    return mem


def outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)


def test_array_of_unsigned_ints_is_the_32_bit_range_check():
    # `read_many` and the sparse `wellformed()` rely on this.
    assert array("I").itemsize == 4
    assert list(array("I", [0, MEM_SIZE - 1])) == [0, MEM_SIZE - 1]
    for bad in (-1, MEM_SIZE):
        with pytest.raises(OverflowError):
            array("I", [bad])


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=60, deadline=None)
@given(ops=writes, addrs=st.lists(any_addr, max_size=40))
def test_read_many_equals_per_address_reads(backend, ops, addrs):
    mem = filled(backend, ops)
    addrs = [*addrs, *(a for a, _ in ops), *EDGES]
    assert mem.read_many(addrs) == bytes(map(mem.read, addrs))
    assert mem.read_many([]) == b""


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [-1, MEM_SIZE, 2**40, -1.5, 2**40 + 0.5, 1.5,
                                 2.0])
def test_read_many_raises_what_read_raises(backend, bad):
    mem = filled(backend, [(5, 9), ((1 << 24) | 3, 4)])
    addrs = [5, bad, 0]
    assert outcome(mem.read_many, addrs) \
        == outcome(lambda: bytes(map(mem.read, addrs)))
    assert outcome(mem.read_many, [bad])[0] == outcome(mem.read, bad)[0]
    assert outcome(mem.read_many, iter(addrs)) == outcome(mem.read_many, addrs)


@pytest.mark.parametrize("backend", BACKENDS)
def test_read_many_reads_every_address_of_a_one_shot_iterator(backend):
    mem = filled(backend, [(5, 9), (6, 4), ((1 << 24) | 3, 7)])
    addrs = [5, 6, 0, (1 << 24) | 3]
    for once in (iter(addrs), (a for a in addrs), map(int, addrs)):
        assert mem.read_many(once) == bytes([9, 4, 0, 7])
    assert mem.read_many(iter([])) == b""


def test_a_non_int_address_is_named_in_the_range_error():
    for bad, shown in ((-1.5, "-1.5"), (2**40 + 0.5, "1099511627776.5"),
                       (1.5, "1.5"), (2.0, "2.0")):
        for backend in BACKENDS:
            for call in (backend().read, lambda a: backend().read_span(a, 4),
                         lambda a: backend().read_many([0, a]),
                         lambda a: backend().write(a, 1),
                         lambda a: Machine(backend()).read_byte(a),
                         lambda a: Machine(backend()).write_byte(a, 1)):
                with pytest.raises(AddressOutOfRange) as info:
                    call(bad)
                assert str(info.value) \
                    == f"address {shown} not a 32-bit address"
        with pytest.raises(AddressOutOfRange):
            SparseMemory({bad: 3})
    with pytest.raises(AddressOutOfRange) as info:
        SparseMemory().read(-1)
    assert str(info.value) == "address -0x1 not a 32-bit address"
    # A non-int value is refused, not stored for wellformed() to reject.
    for store in (PagedMemory().write, SparseMemory().write,
                  lambda a, v: SparseMemory({a: v})):
        with pytest.raises(ValueOutOfRange, match="value 2.5 not a byte"):
            store(7, 2.5)


# ---------------------------------------------------------------------------
# read_span against per-byte reads

# The first address of a block, moved by a few bytes either way: spans from
# here cross a block boundary, and from just below 0 they cross 2^32.
near_edges = st.builds(lambda block, delta: ((block << 24) + delta) % MEM_SIZE,
                       st.sampled_from(BLOCKS + (2, 8)), st.integers(-6, 6))
edge_writes = st.lists(st.tuples(st.one_of(in_blocks, near_edges),
                                 st.integers(0, 255)), max_size=12)


def per_byte(mem, addr, n):
    return bytes(mem.read((addr + k) % MEM_SIZE) for k in range(n))


def stored(mem):
    """What a read must leave as it was: the block table, or the map."""
    if isinstance(mem, PagedMemory):
        return list(mem.table), mem.next_addr, len(mem.array)
    return mem.items()


@pytest.mark.parametrize("backend", BACKENDS)
@settings(max_examples=100, deadline=None)
@given(ops=edge_writes, addr=st.one_of(in_blocks, near_edges),
       n=st.integers(0, 6))
def test_read_span_equals_per_byte_masked_reads(backend, ops, addr, n):
    mem = filled(backend, ops)
    before = stored(mem)
    assert mem.read_span(addr, n) == per_byte(mem, addr, n)
    assert stored(mem) == before


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("start, written", [
    (0x05000010, 0x05000012),
    (0x09000010, None),
    (0x01FFFFFD, 0x01FFFFFF),
    (0x01FFFFFD, 0x02000001),
    (0xFFFFFFFD, 0xFFFFFFFE),
    (0xFFFFFFFD, 0x00000001),
], ids=["inside-a-block", "unallocated", "into-a-free-block",
        "out-of-a-free-block", "across-the-top-from-255", "across-the-top-to-0"])
def test_read_span_inside_and_across_blocks(backend, start, written):
    mem = backend() if written is None else backend().write(written, 0xAB)
    before = stored(mem)
    for n in range(7):
        assert mem.read_span(start, n) == per_byte(mem, start, n)
    assert stored(mem) == before
    # Only one side of a crossing span is allocated, and nothing is added.
    if isinstance(mem, PagedMemory):
        assert mem.pages_allocated() == (written is not None)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("bad", [-1, MEM_SIZE, 2**40, -1.5, 2**40 + 0.5,
                                 1.5, 2.0])
def test_read_span_raises_what_read_raises(backend, bad):
    mem = filled(backend, [(5, 9), ((1 << 24) | 3, 4)])
    for n in range(7):
        assert outcome(mem.read_span, bad, n) == outcome(mem.read, bad)


# ---------------------------------------------------------------------------
# wellformed() against its per-entry statements

def sorted_bases_equation(mem):
    bases = [e for e in mem.table if e != SENTINEL]
    return (mem.next_addr == len(mem.array) == PAGE_SIZE * len(bases)
            and sorted(bases) == list(range(0, mem.next_addr, PAGE_SIZE)))


corruption = st.one_of(
    st.tuples(st.just("unaligned"), st.integers(0, 255), st.integers(1, 99)),
    st.tuples(st.just("duplicate"), st.integers(0, 255), st.integers(0, 255)),
    st.tuples(st.just("negative"), st.integers(0, 255), st.integers(1, 4)),
    st.tuples(st.just("free"), st.integers(0, 255), st.just(0)),
    st.tuples(st.just("cursor"), st.just(0),
              st.sampled_from([-PAGE_SIZE, -1, 1, PAGE_SIZE])),
)


@settings(max_examples=150, deadline=None)
@given(tops=st.lists(st.integers(0, 255), unique=True, max_size=4),
       corruptions=st.lists(corruption, max_size=3))
def test_paged_wellformed_equals_the_sorted_bases_equation(tops, corruptions):
    mem = PagedMemory()
    for top in tops:
        mem.add_page(top)
    for kind, top, k in corruptions:
        table = mem.table
        if kind == "unaligned":
            table[top] = (table[top] if table[top] != SENTINEL else 0) + k
        elif kind == "duplicate":
            table[top] = table[k]
        elif kind == "negative":
            table[top] = -k * PAGE_SIZE
        elif kind == "free":
            table[top] = SENTINEL
        else:
            mem.next_addr += k
    assert mem.wellformed() == sorted_bases_equation(mem)


def test_sparse_wellformed_equals_the_per_entry_statement():
    # The constructor begins every history: it drops an entry of 0 and
    # refuses any other entry the per-entry statement rejects, so the map
    # it builds meets that statement, and `wellformed()` says so unread.
    for data in SPARSE_ENTRY_TABLE:
        nonzero = {k: v for k, v in data.items() if v != 0}
        try:
            mem = SparseMemory(data)
        except (AddressOutOfRange, ValueOutOfRange):
            assert not canonical(nonzero), data
        else:
            assert canonical(mem._reroot()) and mem.wellformed(), data
            assert dict(mem.items()) == nonzero, data


def test_sparse_wellformed_reads_none_of_the_map(counted_sparse):
    mem, data = counted_sparse({0x100 + i: 7 for i in range(300)})
    assert mem.wellformed() and data.scans == 0
    assert mem.write(0x100, 0).wellformed() and mem.wellformed()
    assert data.scans == 0


# ---------------------------------------------------------------------------
# mismatch against a per-address walk

def walk_mismatch(concrete, abstract, addrs):
    """The memory part of `mismatch`, one address at a time."""
    for addr in addrs:
        got, want = concrete.mem.read(addr), abstract.mem.read(addr)
        if got != want:
            return (f"memory at {addr:#x} is {got:#04x} concrete vs "
                    f"{want:#04x} abstract")
    return None


@settings(max_examples=80, deadline=None)
@given(shared=writes, concrete_only=writes, abstract_only=writes,
       addrs=st.lists(any_addr, max_size=40), seed=st.integers(0, 2**16))
def test_mismatch_names_the_first_difference_of_a_per_address_walk(
        shared, concrete_only, abstract_only, addrs, seed):
    c = Machine(filled(PagedMemory, shared + concrete_only))
    a = Machine(filled(SparseMemory, shared + abstract_only))
    touched = [addr for addr, _ in shared + concrete_only + abstract_only]
    addrs = [*addrs, *touched]
    random.Random(seed).shuffle(addrs)
    assert mismatch(c, a, addrs) == walk_mismatch(c, a, addrs)
    assert mismatch(a, c, addrs) == walk_mismatch(a, c, addrs)
    for addr in touched:  # a difference at either end of a list is seen
        assert mismatch(c, a, [addr]) == walk_mismatch(c, a, [addr])


def test_mismatch_reads_every_address_of_a_one_shot_iterator():
    c = Machine(PagedMemory().write(9, 1))
    a = Machine(SparseMemory())
    expected = "memory at 0x9 is 0x01 concrete vs 0x00 abstract"
    assert mismatch(c, a, iter([9])) == expected
    assert mismatch(c, a, (addr for addr in (3, 9))) == expected
    assert mismatch(c, a, iter([3, 4])) is None


# ---------------------------------------------------------------------------
# the addresses lockstep compares

WALK = """\
main:
    irmovl $1, %edi
    irmovl $0x07000010, %ebx
    irmovl $0x42000400, %edx
    irmovl $0xc8fffff0, %ebp
    irmovl $4, %ecx
    irmovl $0x11223344, %eax
loop:
    rmmovl %eax, 0(%ebx)
    rmmovl %eax, 0(%edx)
    rmmovl %eax, 0(%ebp)
    irmovl $4, %esi
    addl %esi, %ebx
    addl %esi, %edx
    addl %esi, %ebp
    addl %eax, %eax
    subl %edi, %ecx
    jne loop
    halt
"""


def words_written(m: Machine) -> list[int]:
    """Step `m` once; the addresses that step stores to, from the kind of
    the instruction it ran and the registers before it."""
    regs = list(m.regs)
    instr = m.step()
    kind = None if instr is None else instr.kind
    if kind is Kind.RMMOVL:
        start = regs[instr.rb] + instr.value
    elif kind in (Kind.CALL, Kind.PUSHL):
        start = regs[ESP] - 4
    else:
        return []
    return [(start + i) & MASK32 for i in range(4)]


def recorded_lockstep(monkeypatch, concrete, abstract, seed):
    calls = []

    def recording(c, a, addrs=()):
        calls.append((list(addrs), allocated_blocks(c.mem)))
        return mismatch(c, a, addrs)

    monkeypatch.setattr(machine, "mismatch", recording)
    report = run_in_lockstep(concrete, abstract, 10_000, seed=seed)
    return report, calls


@pytest.mark.parametrize("case", ["popcount", "walk"])
def test_lockstep_probe_addresses_are_pinned(monkeypatch, popcount_assembled,
                                             case):
    # Each step compares the addresses that step wrote; the final sweep
    # compares the sparse entries.  No address is drawn, so every seed
    # compares the same ones.
    if case == "popcount":  # one block, as perfbench's popcount leg runs
        image, symbols = popcount_assembled
        entry, steps, checked = symbols["call-popcount"], 186, 27
    else:  # four blocks, three of them allocated during the run
        image, symbols = asm.assemble(asm.parse(WALK))
        entry, steps, checked = symbols["main"], 47, 142
    runs = []
    for seed in (3, 5):
        machines = [Machine(mem(), eip=entry, esp=8192, image=image)
                    for mem in (PagedMemory, SparseMemory, SparseMemory)]
        for m in machines:
            m.regs[2] = 0x9E3779B9
        concrete, abstract, oracle = machines
        report, calls = recorded_lockstep(monkeypatch, concrete, abstract,
                                          seed)
        *per_step, final = calls
        assert report.steps == len(per_step) == steps
        for addrs, _ in per_step:
            assert sorted(addrs) == sorted(words_written(oracle))
        assert len(final[1]) == (1 if case == "popcount" else 4)
        assert final[0] == list(abstract.mem.touched())
        assert report.addresses_checked == checked \
            == sum(len(addrs) for addrs, _ in calls)
        runs.append(calls)
    assert runs[0] == runs[1]


def test_lockstep_reads_memory_only_on_steps_that_store(monkeypatch,
                                                       popcount_assembled):
    # Each backend's `read_many` is called once in a step that stored, and
    # not at all in one that stored nothing.
    reads = {PagedMemory: 0, SparseMemory: 0}
    for backend in reads:
        def counted(mem, addrs, backend=backend, read_many=backend.read_many):
            reads[backend] += 1
            return read_many(mem, addrs)
        monkeypatch.setattr(backend, "read_many", counted)
    per_step = []

    def recording(c, a, addrs=()):
        before = dict(reads)
        difference = mismatch(c, a, addrs)
        per_step.append((len(addrs), *(reads[b] - before[b] for b in reads)))
        return difference

    monkeypatch.setattr(machine, "mismatch", recording)
    image, symbols = popcount_assembled
    concrete, abstract = (Machine(mem(), eip=symbols["call-popcount"],
                                  esp=8192, image=image)
                          for mem in (PagedMemory, SparseMemory))
    report = run_in_lockstep(concrete, abstract, 10_000)
    *per_step, final = per_step
    # Only the first step, the `call`, stores: its return address.
    assert len(per_step) == report.steps > 100
    assert per_step == [(4, 1, 1)] + [(0, 0, 0)] * (report.steps - 1)
    assert final == (len(abstract.mem), 1, 1)


def test_lockstep_draws_no_probe_while_no_block_is_allocated(monkeypatch):
    # An empty memory runs one `halt` (byte 0) and allocates nothing.
    report, calls = recorded_lockstep(
        monkeypatch, Machine(PagedMemory()), Machine(SparseMemory()), 0)
    assert report.steps == 1 and calls[0] == ([], [])
    assert report.addresses_checked == 0

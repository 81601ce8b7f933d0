"""Processor model: init, instruction semantics, run, backend equivalence."""

import os
import random
import re
import weakref

import pytest

from y86sim import asm, isa
from y86sim.errors import (
    AddressOutOfRange,
    CorrespondenceFailure,
    ValueOutOfRange,
)
from y86sim.isa import (
    MASK32,
    Flags,
    Instruction,
    Kind,
    Register,
    Status,
)
from y86sim.machine import ESP, Machine, mismatch, run_in_lockstep
from y86sim.mem_paged import PAGE_SIZE, PagedMemory
from y86sim.mem_sparse import SparseMemory

from conftest import StrayPaged, allocated_blocks

EAX, ECX, EDX, EBX = 0, 1, 2, 3


def machine_from(source, *, backend=SparseMemory, entry="main", esp=8192):
    image, symbols = asm.assemble(asm.parse(source))
    return Machine(backend(), eip=symbols[entry], esp=esp, image=image), symbols


# ---------------------------------------------------------------------------
# init

def test_init_simple_program(simple_assembled):
    image, symbols = simple_assembled
    m = Machine(SparseMemory(), eip=symbols["main"], esp=8192, image=image)
    assert m.eip == 80
    assert m.regs[ESP] == 8192
    assert m.flags == Flags(0, 0, 0)
    assert m.status is Status.AOK
    for addr, byte in image:
        assert m.read_byte(addr) == byte


def test_init_empty_image_reads_zero():
    m = Machine(SparseMemory())
    for addr in (0, 1, 0xFFFFFFFF):
        assert m.read_byte(addr) == 0


def test_repr_names_eip_status_and_memory():
    m = Machine(PagedMemory(), eip=0x50)
    assert repr(m) == ("Machine(eip=0x50, status=AOK, "
                       "mem=PagedMemory(0 pages, 0 bytes backing))")
    m.write_byte(0x50, 0x10)  # nop
    m.step()
    assert repr(m) == ("Machine(eip=0x51, status=AOK, mem=PagedMemory("
                       f"1 pages, {PAGE_SIZE} bytes backing))")


def test_init_deterministic(simple_assembled):
    image, symbols = simple_assembled
    mk = lambda: Machine(SparseMemory(), eip=symbols["main"], esp=8192,
                         image=image)
    a, b = mk(), mk()
    assert a.regs == b.regs and a.eip == b.eip and a.mem == b.mem


# ---------------------------------------------------------------------------
# single steps

def test_step_irmovl_at_80(simple_assembled):
    image, symbols = simple_assembled
    m = Machine(SparseMemory(), eip=80, esp=8192, image=image)
    m.step()
    assert m.regs[EAX] == 1023
    assert m.eip == 86


def test_step_halt_keeps_eip():
    m = Machine(SparseMemory(), image=asm.Image([(0, 0x00)]))
    m.step()
    assert m.status is Status.HLT
    assert m.eip == 0
    # Non-AOK absorption: further steps change nothing.
    before = (list(m.regs), m.eip, m.status)
    m.step()
    assert (list(m.regs), m.eip, m.status) == before


def test_step_invalid_instruction_sets_ins():
    m = Machine(SparseMemory(), image=asm.Image([(0, 0xC0)]))
    m.step()
    assert m.status is Status.INS
    assert m.eip == 0


def test_step_returns_the_instruction_it_ran():
    m, _ = machine_from("main:\n  irmovl $5, %eax\n  halt\n")
    assert isa.format_instruction(m.step()) == "irmovl $0x5, %eax"
    assert m.step().kind is Kind.HALT
    assert m.step() is None  # halted: nothing ran
    m = Machine(SparseMemory(), image=asm.Image([(0, 0xC0)]))
    assert m.step() is None and m.status is Status.INS


def test_step_makes_no_closure_cell():
    # Before Python 3.12 a comprehension reading a local of `step` would
    # make that local a cell, allocated on every call of the hot path.
    assert Machine.step.__code__.co_cellvars == ()


def test_alu_xor_self_zeroes():
    m, _ = machine_from("main:\n  xorl %eax, %eax\n  halt\n")
    m.regs[EAX] = 1234
    m.step()
    assert m.regs[EAX] == 0
    assert (m.zf, m.sf, m.of) == (1, 0, 0)


def test_conditional_move():
    m, _ = machine_from("main:\n  cmove %ecx, %edx\n  cmovne %ecx, %ebx\n  halt\n")
    m.regs[ECX] = 7
    m.zf = 1
    m.run(3)
    assert m.regs[EDX] == 7   # taken
    assert m.regs[EBX] == 0   # not taken
    assert m.status is Status.HLT


def test_rmmovl_mrmovl_round_trip():
    m, _ = machine_from(
        "main:\n"
        "  irmovl $0x11223344, %eax\n"
        "  rmmovl %eax, 100(%ebx)\n"
        "  mrmovl 100(%ebx), %ecx\n"
        "  halt\n")
    m.run(10)
    assert m.regs[ECX] == 0x11223344
    # Little-endian: low byte at the low address.
    assert m.read_byte(100) == 0x44
    assert m.read_byte(103) == 0x11


# ---------------------------------------------------------------------------
# stack discipline (push/pop, call/ret oracles)

@pytest.mark.parametrize("reg", list(range(8)))
def test_push_pop_round_trip_all_registers(reg):
    name = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")[reg]
    m, _ = machine_from(f"main:\n  pushl %{name}\n  popl %ecx\n  halt\n")
    m.regs[reg] = 0xABCD1234 if reg != ESP else m.regs[ESP]
    esp0 = m.regs[ESP]
    m.step()
    assert m.regs[ESP] == (esp0 - 4) & 0xFFFFFFFF
    if reg == ESP:
        # pushl %esp stores the already decremented stack pointer.
        assert m.read_word(m.regs[ESP]) == (esp0 - 4) & 0xFFFFFFFF
    else:
        assert m.read_word(m.regs[ESP]) == m.regs[reg]
    m.step()
    assert m.regs[ESP] == esp0


def test_pushl_example():
    m, _ = machine_from("main:\n  pushl %eax\n  halt\n", esp=8192)
    m.regs[EAX] = 7
    m.step()
    assert m.regs[ESP] == 8188
    assert m.read_word(8188) == 7


def test_popl_esp_loads_read_value():
    m, _ = machine_from("main:\n  popl %esp\n  halt\n", esp=8192)
    m.write_word(8192, 0xDEAD0000)
    m.step()
    assert m.regs[ESP] == 0xDEAD0000


def test_call_ret_round_trip():
    m, symbols = machine_from(
        "main:\n"
        "  call sub\n"
        "after:\n"
        "  halt\n"
        "sub:\n"
        "  ret\n")
    m.step()
    assert m.eip == symbols["sub"]
    assert m.read_word(m.regs[ESP]) == symbols["after"]
    m.step()
    assert m.eip == symbols["after"]
    assert m.regs[ESP] == 8192


# ---------------------------------------------------------------------------
# word access

def test_write_word_little_endian_oracle():
    m = Machine(SparseMemory())
    value = 0x11223344
    m.write_word(0, value)
    assert bytes(m.read_byte(k) for k in range(4)) == value.to_bytes(4, "little")
    assert m.read_byte(0) == 0x44


def test_read_word_fresh_is_zero():
    assert Machine(PagedMemory()).read_word(123) == 0


def test_word_round_trip_wraps_address_space():
    m = Machine(SparseMemory())
    m.write_word(0xFFFFFFFE, 0xA1B2C3D4)
    assert m.read_word(0xFFFFFFFE) == 0xA1B2C3D4
    assert m.read_byte(0) == 0xB2  # third byte wraps to address 0


def stored(mem):
    """What a refused access must leave as it was."""
    if isinstance(mem, PagedMemory):
        return list(mem.table), mem.next_addr, mem.update_count
    return mem.items()


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
@pytest.mark.parametrize("bad, shown", [(-1, "-0x1"),
                                        (2**32, "0x100000000"),
                                        (1.5, "1.5")],
                         ids=["negative", "2**32", "float"])
def test_accessors_pass_a_bad_address_to_the_memory(backend, bad, shown):
    # The accessors neither wrap nor check an address: the memory refuses
    # it, naming it.
    m = Machine(backend(), image=asm.Image([(0, 0x10)]))
    mem, before = m.mem, stored(m.mem)
    for access in (m.read_byte, m.read_word,
                   lambda a: m.write_byte(a, 1),
                   lambda a: m.write_word(a, 0x01020304)):
        with pytest.raises(AddressOutOfRange,
                           match=f"^address {re.escape(shown)} not a 32-bit "
                                 f"address$"):
            access(bad)
    assert m.mem is mem and stored(mem) == before


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
@pytest.mark.parametrize("addr, value, error", [
    (2**32, 0x10, AddressOutOfRange),
    (1, 256, ValueOutOfRange),
], ids=["address-2**32", "value-256"])
def test_a_refused_store_into_cached_code_changes_nothing(backend, addr,
                                                          value, error):
    # nop; nop; halt at 0, all cached.  2**32 would wrap to 0 and 256 is not
    # a byte: the memory refuses both before the decode cache or the
    # lockstep write set sees the store.
    m = Machine(backend(), image=asm.Image([(0, 0x10), (1, 0x10), (2, 0x00)]))
    m.run(3)
    assert m.status is Status.HLT and len(m._icache) == 3
    mem, before = m.mem, stored(m.mem)
    icache, spans = dict(m._icache), dict(m._icache_bytes)
    written = m._step_writes = set()
    with pytest.raises(error):
        m.write_byte(addr, value)
    assert m.mem is mem and stored(mem) == before
    assert m.mem.read_span(0, 3) == bytes([0x10, 0x10, 0x00])
    assert m._icache == icache and m._icache_bytes == spans
    assert m.icache_clears == 0 and written == set()


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
@pytest.mark.parametrize("value", [-1, 2**32, 2**40, 1.5, True, "7", None],
                         ids=["-1", "2**32", "2**40", "1.5", "True", "str",
                              "None"])
def test_write_word_refuses_a_value_that_is_not_a_word(backend, value):
    # Code at 0 is cached, and a lockstep write set is open: a refused word
    # changes neither, nor the memory.
    m = Machine(backend(), image=asm.Image([(0, 0x10), (1, 0x10), (2, 0x00)]))
    m.run(3)
    mem, before = m.mem, stored(m.mem)
    icache, spans = dict(m._icache), dict(m._icache_bytes)
    written = m._step_writes = set()
    with pytest.raises(ValueOutOfRange,
                       match=f"^value {re.escape(repr(value))} not a 32-bit "
                             f"word$"):
        m.write_word(0, value)
    assert m.mem is mem and stored(mem) == before
    assert m.mem.read_span(0, 4) == bytes([0x10, 0x10, 0x00, 0x00])
    assert m._icache == icache and m._icache_bytes == spans
    assert m.icache_clears == 0 and written == set()


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
def test_write_word_takes_every_word_and_an_int_subclass(backend):
    m = Machine(backend())
    for value in (0, 1, 0x7FFFFFFF, 0x80000000, MASK32, Register.EDI):
        m.write_word(0x100, value)
        assert m.read_word(0x100) == value


# ---------------------------------------------------------------------------
# run

def test_run_zero_budget(simple_assembled):
    image, symbols = simple_assembled
    m = Machine(SparseMemory(), eip=symbols["main"], image=image)
    assert m.run(0) == 0
    assert m.status is Status.AOK


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
def test_run_simple_program_both_backends(simple_assembled, backend):
    image, symbols = simple_assembled
    m = Machine(backend(), eip=symbols["main"], esp=8192, image=image)
    consumed = m.run(300)
    assert m.regs[EAX] == 1023
    assert m.eip == symbols["halt-of-main"] == 86
    assert m.status is Status.HLT
    assert consumed <= 300


def test_run_additivity(popcount_assembled):
    image, symbols = popcount_assembled
    mk = lambda: Machine(SparseMemory(), eip=symbols["call-popcount"],
                         esp=8192, image=image)
    m_whole = mk()
    m_split = mk()
    m_whole.regs[EDX] = m_split.regs[EDX] = 0x12345678
    m_whole.run(90)
    m_split.run(40)
    m_split.run(50)
    assert m_whole.regs == m_split.regs
    assert m_whole.eip == m_split.eip
    assert (m_whole.zf, m_whole.sf, m_whole.of) == (m_split.zf, m_split.sf, m_split.of)


def test_popcount_program(popcount_assembled):
    image, symbols = popcount_assembled
    rng = random.Random(1)
    inputs = [0, 1, 0xFFFFFFFF, 0x80000000] + [rng.getrandbits(32) for _ in range(40)]
    m = Machine(SparseMemory())
    base = SparseMemory(dict(image))
    for n in inputs:
        m.reload(base, eip=symbols["call-popcount"], esp=8192, keep_icache=True)
        m.regs[EDX] = n
        m.run(300)
        assert m.status is Status.HLT
        assert m.eip == symbols["halt-of-main"]
        assert m.regs[EAX] == bin(n).count("1")


def test_trace_format(simple_assembled):
    image, symbols = simple_assembled
    m = Machine(SparseMemory(), eip=symbols["main"], esp=8192, image=image)
    lines = []
    m.run(300, trace=lines.append)
    assert len(lines) == 2
    assert lines[0].startswith("step=1 eip=0x00000050 instr=irmovl $0x3ff, %eax")
    assert "flags=000" in lines[0]
    assert lines[1].endswith("status=HLT")
    regs_field = lines[0].split("regs=")[1].split(" flags=")[0]
    assert len(regs_field.split()) == 8


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
def test_trace_names_instruction_that_stores_into_its_own_code(backend):
    # The rmmovl overwrites the decoded irmovl at 0, clearing the decode
    # cache during the step that the trace line describes.
    m, _ = machine_from("main:\n  irmovl $0x10, %eax\n  rmmovl %eax, 0(%ebx)\n"
                        "  nop\n  halt\n", backend=backend)
    lines = []
    assert m.run(10, trace=lines.append) == 4
    assert m.icache_clears == 1
    assert [line.split(" instr=")[1].split(" regs=")[0] for line in lines] == [
        "irmovl $0x10, %eax", "rmmovl %eax, 0x0(%ebx)", "nop", "halt"]


# ---------------------------------------------------------------------------
# decode cache correctness under self-modifying code

def test_self_modifying_code_reexecutes_fresh_bytes():
    # `probe` is executed once (cached), then its first byte is overwritten
    # with halt; the second call must execute the new byte.
    source = (
        "main:\n"
        "  call probe\n"
        "  irmovl $0, %eax\n"
        "  rmmovl %eax, target(%ebx)\n"
        "  call probe\n"
        "finish:\n"
        "  halt\n"
        "probe:\n"
        "target:\n"
        "  nop\n"
        "  ret\n")
    image, symbols = asm.assemble(asm.parse(source))
    m = Machine(SparseMemory(), eip=symbols["main"], esp=8192, image=image)
    m.run(50)
    assert m.status is Status.HLT
    assert m.eip == symbols["target"]  # halted inside the rewritten probe
    assert m.icache_clears >= 1


def test_reload_keeps_cache_only_when_safe(popcount_assembled):
    image, symbols = popcount_assembled
    base = SparseMemory(dict(image))
    m = Machine(SparseMemory())
    m.reload(base, eip=symbols["call-popcount"], esp=8192)
    m.regs[EDX] = 3
    m.run(300)
    cached = len(m._icache)
    assert cached > 5
    # Stack writes do not overlap code: the cache survives the reload.
    m.reload(base, eip=symbols["call-popcount"], esp=8192, keep_icache=True)
    assert len(m._icache) == cached
    # A write into a cached instruction span must drop the cache even
    # across a keep_icache reload.
    m.write_byte(symbols["call-popcount"], 0x10)
    assert len(m._icache) == 0
    m.run(300)
    m.reload(base, eip=symbols["call-popcount"], esp=8192, keep_icache=True)
    m.regs[EDX] = 7
    m.run(300)
    assert m.regs[EAX] == 3  # bits of 7


def load_sparse(image):
    return SparseMemory(dict(image))


def load_paged(image):
    return image.load(PagedMemory())


@pytest.mark.parametrize("load", [load_sparse, load_paged])
def test_reload_checks_cached_bytes_against_new_memory(load):
    # B puts different code at A's addresses; a kept cache must not run A's.
    image_a, _ = asm.assemble(asm.parse("irmovl $1, %eax\nhalt\n"))
    image_b, _ = asm.assemble(asm.parse("irmovl $2, %eax\nhalt\n"))
    m = Machine(load(image_a))
    m.run(10)
    assert m.regs[EAX] == 1 and len(m._icache) == 2
    m.reload(load(image_a), keep_icache=True)  # same bytes: cache kept
    assert len(m._icache) == 2 and m.icache_clears == 0
    m.reload(load(image_b), keep_icache=True)
    assert len(m._icache) == 0 and m.icache_clears == 1
    m.run(10)
    assert m.status is Status.HLT
    assert m.regs[EAX] == 2


# An irmovl straddles the top of memory and falls through to 2, where a
# call pushes its return address 7 and jumps to a ret just below the
# irmovl; the ret returns to the halt at 7.
WRAP_START, WRAP_RET = 0xFFFFFFFC, 0xFFFFFFFB
WRAP_IRMOVL = Instruction(Kind.IRMOVL, rb=Register.EAX, value=0x12345678)
WRAP_CODE = [
    (WRAP_START, isa.encode(WRAP_IRMOVL)),
    (2, isa.encode(Instruction(Kind.CALL, value=WRAP_RET))),
    (7, isa.encode(Instruction(Kind.HALT))),
    (WRAP_RET, isa.encode(Instruction(Kind.RET))),
]
WRAP_IMAGE = asm.Image([((start + k) & MASK32, byte)
                        for start, code in WRAP_CODE
                        for k, byte in enumerate(code)])
# (eip, %esp) after each step, from (WRAP_START, 8192).
WRAP_TRAIL = [(2, 8192), (WRAP_RET, 8188), (7, 8192), (7, 8192)]


def assert_wrap_run(m):
    trail = []
    for _ in WRAP_TRAIL:
        m.step()
        trail.append((m.eip, m.regs[ESP]))
    assert trail == WRAP_TRAIL
    assert m.regs[EAX] == 0x12345678
    assert m.read_word(8188) == 7
    assert m.status is Status.HLT


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
def test_execution_wraps_across_top_of_memory(backend):
    m = Machine(backend(), eip=WRAP_START, esp=8192, image=WRAP_IMAGE)
    assert_wrap_run(m)
    # The cached entries run after a reload that keeps them.
    m.reload(WRAP_IMAGE.load(backend()), eip=WRAP_START, esp=8192,
             keep_icache=True)
    assert len(m._icache) == 4 and m.icache_clears == 0
    assert_wrap_run(m)


def test_lockstep_wraps_across_top_of_memory():
    concrete = Machine(PagedMemory(), eip=WRAP_START, esp=8192,
                       image=WRAP_IMAGE)
    abstract = Machine(SparseMemory(), eip=WRAP_START, esp=8192,
                       image=WRAP_IMAGE)
    for _ in range(2):
        lines = []
        report = run_in_lockstep(concrete, abstract, 10, trace=lines.append)
        assert report.steps == 4
        assert [int(re.search(r"eip=(\S+)", line)[1], 16) for line in lines] \
            == [WRAP_START] + [eip for eip, _ in WRAP_TRAIL[:3]]
        for m in (concrete, abstract):
            assert (m.eip, m.status, m.regs[EAX]) == (7, Status.HLT,
                                                       0x12345678)
            m.reload(WRAP_IMAGE.load(type(m.mem)()), eip=WRAP_START,
                     esp=8192, keep_icache=True)
            assert len(m._icache) == 4


class ReadLog:
    """A memory over a sparse one that logs the address of each `read`; a
    `read_span` is logged as the reads of its bytes, in order, once the
    sparse one has accepted its address."""

    def __init__(self):
        self.mem, self.reads = SparseMemory(), []

    def read(self, addr):
        self.reads.append(addr)
        return self.mem.read(addr)

    def read_span(self, addr, n):
        self.mem.read_span(addr, n)  # refuses what a backend refuses
        return bytes(self.read((addr + k) & MASK32) for k in range(n))

    def write(self, addr, value):
        self.mem = self.mem.write(addr, value)
        return self


@pytest.mark.parametrize("instr, length", [
    (Instruction(Kind.HALT), 1),
    (Instruction(Kind.NOP), 1),
    (Instruction(Kind.RET), 1),
    (Instruction(Kind.RRMOVL, ra=Register.EAX, rb=Register.EBX), 2),
    (Instruction(Kind.IRMOVL, rb=Register.EDX, value=0xFFFFFFFF), 6),
], ids=["halt", "nop", "ret", "rrmovl", "irmovl"])
def test_a_cold_fetch_reads_only_the_instructions_bytes(instr, length):
    # The fetch reads the longest encoding's bytes at eip, once and in
    # order; the cache keeps only the instruction's.  Nonzero bytes follow
    # the instruction; the stack is far above it.
    code = isa.encode(instr) + b"\x10" * 8
    mem = ReadLog()
    m = Machine(mem, eip=0x100, esp=0x8000,
                image=asm.Image([(0x100 + k, b) for k, b in enumerate(code)]))
    m.step()
    assert [a for a in mem.reads if a < 0x8000] \
        == list(range(0x100, 0x100 + isa.MAX_LENGTH))
    assert m._icache == {0x100: (instr, 0x100 + length)}
    assert m._icache_bytes == {0x100 + k: code[k] for k in range(length)}


@pytest.mark.parametrize("opcode", [0xC0, 0xFF, 0x27, 0x01, 0x64])
def test_a_fetch_of_an_undefined_opcode_reads_one_byte(opcode):
    # 0xC0 and 0xFF have no kind; 0x27, 0x01 and 0x64 a function nibble
    # their kind does not define.  The fetch reads the longest encoding's
    # bytes, as any fetch does, and caches none of them.
    mem = ReadLog()
    m = Machine(mem, eip=0x100, image=asm.Image(
        [(0x100, opcode), *((0x101 + k, 0x12) for k in range(5))]))
    m.step()
    assert mem.reads == list(range(0x100, 0x100 + isa.MAX_LENGTH))
    assert m.status is Status.INS and m.eip == 0x100
    assert m._icache == {} and m._icache_bytes == {}


def test_a_fetch_across_the_top_of_memory_spans_the_wrapped_addresses():
    # The irmovl at 0xFFFFFFFC ends at 1; its constant 0x12345678 is stored
    # at 0xFFFFFFFE..1, so the store into 1 rewrites its top byte.
    mem = ReadLog()
    m = Machine(mem, eip=WRAP_START, esp=8192, image=WRAP_IMAGE)
    m.step()
    wrapped = [0xFFFFFFFC, 0xFFFFFFFD, 0xFFFFFFFE, 0xFFFFFFFF, 0, 1]
    assert mem.reads == wrapped
    assert m._icache_bytes == dict(zip(wrapped, WRAP_CODE[0][1]))
    assert m._icache == {WRAP_START: (WRAP_IRMOVL, 2)}
    m.write_byte(1, 0x9A)
    assert m._icache == {} and m._icache_bytes == {}
    assert m.icache_clears == 1
    m.set_eip(WRAP_START)
    m.step()
    assert m.regs[EAX] == 0x9A345678 and m.eip == 2


@pytest.mark.parametrize("backend", [PagedMemory, SparseMemory])
def test_a_fetch_into_an_unallocated_block_allocates_nothing(backend):
    # Each window from 0x00FFFFFC on runs into block 1, which nothing wrote.
    code = [0x20, 0x03, 0x10, 0x00]  # rrmovl %eax, %ebx; nop; halt
    mem = asm.Image([(0x00FFFFFC + k, b) for k, b in enumerate(code)]).load(
        backend())
    before = list(mem.table) if backend is PagedMemory else mem.items()
    m = Machine(mem, eip=0x00FFFFFC)
    assert m.run(10) == 3
    assert m.status is Status.HLT and m.eip == 0x00FFFFFF
    assert m._icache_bytes == {0x00FFFFFC + k: b for k, b in enumerate(code)}
    if backend is PagedMemory:
        assert m.mem.pages_allocated() == 1 and m.mem.table == before
    else:
        assert m.mem.items() == before


@pytest.mark.parametrize("base, disp", [(0x2000, 0), (0xFFFFFFFE, 0),
                                        (0xFFFFFFF0, 0x12)],
                         ids=["inside", "across-the-top",
                              "across-by-displacement"])
def test_mrmovl_reads_its_four_addresses_once_in_order(base, disp):
    code = isa.encode(Instruction(Kind.MRMOVL, ra=Register.EAX,
                                  rb=Register.EBX, value=disp))
    word = [(base + disp + k) & MASK32 for k in range(4)]
    mem = ReadLog()
    m = Machine(mem, eip=0x100, image=asm.Image(
        [*((0x100 + k, b) for k, b in enumerate(code)),
         *((a, 0x11 * (k + 1)) for k, a in enumerate(word))]))
    m.set_reg(EBX, base)
    m.step()
    assert mem.reads == [*range(0x100, 0x100 + len(code)), *word]
    assert m.regs[EAX] == 0x44332211 and m.eip == 0x100 + len(code)


@pytest.mark.parametrize("where", [{"eip": 1 << 33}, {"eip": -1},
                                   {"esp": -5}, {"esp": 1 << 32},
                                   {"eip": 1.5}, {"esp": 2.0},
                                   {"eip": 1.5, "esp": 2.0},
                                   {"eip": True}, {"esp": True}],
                         ids=["eip-high", "eip-negative", "esp-negative",
                              "esp-high", "eip-float", "esp-float",
                              "both-float", "eip-bool", "esp-bool"])
def test_reload_rejects_out_of_range_registers_like_init(where):
    with pytest.raises(ValueError, match="32-bit"):
        Machine(SparseMemory(), **where)
    mem = SparseMemory({0x10: 0x30})
    m = Machine(mem, eip=0x10, esp=8192)
    with pytest.raises(ValueError, match="32-bit"):
        m.reload(SparseMemory(), **where)
    # A rejected reload changes nothing.
    assert m.mem is mem and m.eip == 0x10 and m.regs[ESP] == 8192
    # A rejected init writes no image byte into the caller's memory.
    paged = PagedMemory()
    with pytest.raises(ValueError, match="32-bit"):
        Machine(paged, image=asm.Image([(0, 0x30)]), **where)
    assert paged.pages_allocated() == 0



# ---------------------------------------------------------------------------
# backend equivalence (differential execution)

def test_lockstep_simple(simple_assembled):
    image, symbols = simple_assembled
    concrete = Machine(PagedMemory(), eip=symbols["main"], esp=8192, image=image)
    abstract = Machine(SparseMemory(), eip=symbols["main"], esp=8192, image=image)
    report = run_in_lockstep(concrete, abstract, 300, seed=5)
    assert report.steps == 2
    assert report.addresses_checked > 0
    assert concrete.regs[EAX] == abstract.regs[EAX] == 1023


def test_lockstep_counts_only_the_bytes_the_sparse_map_holds():
    # The final sweep counts the bytes the sparse memory holds: none for an
    # entry of 0, which the constructor drops, and one for a byte that both
    # sides hold.
    abstract = Machine(SparseMemory({0x100: 0}))
    report = run_in_lockstep(Machine(PagedMemory()), abstract, 5)
    assert report.steps == 1 and report.addresses_checked == 0
    concrete, abstract = Machine(PagedMemory()), Machine(SparseMemory())
    for m in (concrete, abstract):
        m.write_byte(0x100, 7)
    report = run_in_lockstep(concrete, abstract, 5)
    assert report.steps == 1 and report.addresses_checked == 1


def test_lockstep_random_programs():
    # Random instruction soup: the two backends must stay identical through
    # whatever the programs do, including faulting.
    rng = random.Random(0xD1FF)
    for _ in range(25):
        image = asm.Image([(a, rng.getrandbits(8))
                           for a in range(0, rng.randrange(10, 60))])
        concrete = Machine(PagedMemory(), eip=0, esp=8192, image=image)
        abstract = Machine(SparseMemory(), eip=0, esp=8192, image=image)
        run_in_lockstep(concrete, abstract, 200, seed=rng.getrandbits(16))
        assert concrete.status is abstract.status


def test_lockstep_detects_divergence(stress_assembled):
    image, symbols = stress_assembled
    concrete = Machine(PagedMemory(), eip=0, esp=8192, image=image)
    abstract = Machine(SparseMemory(), eip=0, esp=8192, image=image)
    concrete.regs[7] = 1  # corrupt one register on one side
    with pytest.raises(CorrespondenceFailure):
        run_in_lockstep(concrete, abstract, 300)


def test_lockstep_ten_thousand_steps():
    # The equivalence property at its full stated budget: an endless loop
    # of stores through an incrementing base register.
    source = (
        "main:\n"
        "  irmovl $1, %edi\n"
        "loop:\n"
        "  rmmovl %ebx, 0x100(%ebx)\n"
        "  addl %edi, %ebx\n"
        "  jmp loop\n")
    image, _ = asm.assemble(asm.parse(source))
    concrete = Machine(PagedMemory(), eip=0, esp=8192, image=image)
    abstract = Machine(SparseMemory(), eip=0, esp=8192, image=image)
    report = run_in_lockstep(concrete, abstract, 10_000, seed=3)
    assert report.steps == 10_000
    assert concrete.status is Status.AOK
    assert len(abstract.mem.touched()) > 3000


def test_lockstep_stress_program(stress_assembled):
    image, _ = stress_assembled
    concrete = Machine(PagedMemory(), eip=0, esp=8192, image=image)
    abstract = Machine(SparseMemory(), eip=0, esp=8192, image=image)
    report = run_in_lockstep(concrete, abstract, 300, seed=9)
    assert concrete.status is Status.HLT
    assert report.addresses_checked > 100


# Steps 1-4 are irmovl, rmmovl (stores at 0x100..0x103), addl, jmp; every
# third step from then on stores one byte higher.  0x200 holds data.
STORE_LOOP = (
    "main:\n"
    "  irmovl $1, %edi\n"
    "loop:\n"
    "  rmmovl %ebx, 0x100(%ebx)\n"
    "  addl %edi, %ebx\n"
    "  jmp loop\n"
    ".pos 0x200\n"
    "  .byte 0x5a\n")


def lockstep_pair(source, concrete_class=Machine):
    image, _ = asm.assemble(asm.parse(source))
    concrete = concrete_class(PagedMemory(), esp=8192, image=image)
    abstract = Machine(SparseMemory(), esp=8192, image=image)
    return concrete, abstract


class StrayWriter(Machine):
    """Stores a stray 0xee at `addr ^ 0x1000` beside every byte it writes."""

    def write_byte(self, addr, value):
        super().write_byte(addr, value)
        super().write_byte(addr ^ 0x1000, 0xEE)


def test_lockstep_catches_stray_write_at_its_step():
    concrete, abstract = lockstep_pair(STORE_LOOP, StrayWriter)
    with pytest.raises(CorrespondenceFailure) as info:
        run_in_lockstep(concrete, abstract, 100)
    assert re.search(r"at step 2: memory at 0x110[0-3] is 0xee concrete "
                     r"vs 0x00 abstract", str(info.value))
    assert str(info.value).endswith("eips of the last 2 steps: 0x0 0x6")


def test_lockstep_names_address_of_corrupted_paged_write(monkeypatch):
    concrete, abstract = lockstep_pair(STORE_LOOP)
    write = PagedMemory.write

    def flip_one_bit(self, addr, value):
        return write(self, addr, value ^ 1 if addr == 0x104 else value)

    monkeypatch.setattr(PagedMemory, "write", flip_one_bit)
    with pytest.raises(CorrespondenceFailure) as info:
        run_in_lockstep(concrete, abstract, 100)
    # 0x104 is first written at step 5, by the second rmmovl.
    assert "at step 5: memory at 0x104 is 0x01 concrete vs 0x00 abstract" \
        in str(info.value)


def test_lockstep_probes_catch_corrupted_allocated_block():
    concrete, abstract = lockstep_pair(STORE_LOOP)
    # Corrupt block 0 above the image, where no step writes.  The final
    # sweep names the lowest corrupted address.
    concrete.mem.array[0x1000:PAGE_SIZE] = bytes([1]) * (PAGE_SIZE - 0x1000)
    with pytest.raises(CorrespondenceFailure) as info:
        run_in_lockstep(concrete, abstract, 100)
    assert ("in the final sweep after step 100: memory at 0x1000 is 0x01 "
            "concrete vs 0x00 abstract") in str(info.value)


# Allocates block 7 at step 3, its only store; 4 steps in all.
BLOCK7_STORE = (
    "main:\n"
    "  irmovl $0x5a, %eax\n"
    "  irmovl $0x07000100, %ebx\n"
    "  rmmovl %eax, 0(%ebx)\n"
    "  halt\n")


def pagemap_refused(*args):
    raise OSError("pagemap refused")


@pytest.mark.parametrize("pagemap", ["read", "refused"])
@pytest.mark.parametrize("stray, when", [
    (0x07000000, "before"),  # first byte of an allocated block
    (0x07FFFFFF, "before"),  # last byte of an allocated block
    (0x00345678, "before"),  # a page of block 0 that nothing touches
    (0x07ABCDEF, "during"),  # a block allocated during the run
], ids=["first-byte", "last-byte", "untouched-page", "new-block"])
def test_lockstep_reports_a_stray_byte_on_every_run(monkeypatch, pagemap,
                                                     stray, when):
    if pagemap == "refused":
        monkeypatch.setattr(os, "pread", pagemap_refused)
    for seed in range(4):
        concrete, abstract = lockstep_pair(BLOCK7_STORE)
        if when == "before":
            concrete.mem.write(0x07000000, 0)  # allocates block 7 now
            concrete.mem.write(stray, 0xEE)

        def plant(line):
            # Stored behind both machines' backs once block 7 exists.
            if (when == "during"
                    and len(allocated_blocks(concrete.mem)) == 2):
                concrete.mem.write(stray, 0xEE)

        with pytest.raises(CorrespondenceFailure) as info:
            run_in_lockstep(concrete, abstract, 100, seed=seed, trace=plant)
        assert (f"in the final sweep after step 4: memory at {stray:#x} is "
                f"0xee concrete vs 0x00 abstract") in str(info.value)


def test_lockstep_reports_the_stray_write_mutant_on_every_run(monkeypatch):
    # The image loads below 0x800000, so its strays land above; the store
    # at 0x07000100 strays to 0x07800100.  The lowest is reported.
    for pagemap in ("read", "refused"):
        if pagemap == "refused":
            monkeypatch.setattr(os, "pread", pagemap_refused)
        for seed in range(4):
            image, _ = asm.assemble(asm.parse(BLOCK7_STORE))
            concrete = Machine(StrayPaged(), esp=8192, image=image)
            abstract = Machine(SparseMemory(), esp=8192, image=image)
            with pytest.raises(CorrespondenceFailure) as info:
                run_in_lockstep(concrete, abstract, 100, seed=seed)
            assert ("in the final sweep after step 4: memory at 0x800000 is "
                    "0x30 concrete vs 0x00 abstract") in str(info.value)


def test_lockstep_final_sweep_catches_unrecorded_store():
    concrete, abstract = lockstep_pair(STORE_LOOP)
    concrete.mem.write(0x200, 0x5B)  # bypasses both machines' write sets
    with pytest.raises(CorrespondenceFailure) as info:
        run_in_lockstep(concrete, abstract, 20)
    assert ("in the final sweep after step 20: memory at 0x200 is 0x5b "
            "concrete vs 0x5a abstract") in str(info.value)


def test_lockstep_mismatch_names_register():
    concrete, abstract = lockstep_pair(STORE_LOOP)
    concrete.regs[EDX] = 7
    with pytest.raises(CorrespondenceFailure) as info:
        run_in_lockstep(concrete, abstract, 100)
    assert "at step 1: %edx is 0x7 concrete vs 0x0 abstract" in str(info.value)


class AddDrifter(Machine):
    """Adds 1 to %ecx after each `addl` it runs, a step that stores
    nothing."""

    def step(self):
        instr = super().step()
        if instr is not None and instr.kind is Kind.ALU:
            self.regs[ECX] += 1
        return instr


@pytest.mark.parametrize("trace", [None, lambda line: None],
                         ids=["untraced", "traced"])
def test_lockstep_names_a_register_changed_on_a_step_that_stores_nothing(
        trace):
    image, _ = asm.assemble(asm.parse(STORE_LOOP))
    concrete = Machine(PagedMemory(), esp=8192, image=image)
    abstract = AddDrifter(SparseMemory(), esp=8192, image=image)
    with pytest.raises(CorrespondenceFailure) as info:
        run_in_lockstep(concrete, abstract, 100, trace=trace)
    # Step 3 is the first `addl`.
    assert "at step 3: %ecx is 0x0 concrete vs 0x1 abstract" \
        in str(info.value)


@pytest.mark.parametrize("attr, value, report", [
    ("eip", 4, ("eip", "0x4", "0x0")),
    ("zf", 1, ("flags", "100", "000")),
    ("status", Status.HLT, ("status", "HLT", "AOK")),
])
def test_state_mismatch_names_each_non_register_field(attr, value, report):
    concrete, abstract = lockstep_pair(STORE_LOOP)
    assert mismatch(concrete, abstract) is None
    setattr(concrete, attr, value)
    expected = "{} is {} concrete vs {} abstract".format(*report)
    assert mismatch(concrete, abstract) == expected


class CursorLosingMemory(PagedMemory):
    """Allocates blocks as `PagedMemory` does, then restores its cursor,
    so the array no longer ends at `next_addr`."""

    def add_page(self, top):
        cursor = self.next_addr
        super().add_page(top)
        self.next_addr = cursor
        return self


def test_lockstep_catches_paged_memory_that_ends_malformed():
    image, _ = asm.assemble(asm.parse(
        "main:\n"
        "  irmovl $0x5a, %eax\n"
        "  rmmovl %eax, 0x200(%ebx)\n"
        "  halt\n"))
    concrete = Machine(CursorLosingMemory(), esp=8192, image=image)
    abstract = Machine(SparseMemory(), esp=8192, image=image)
    with pytest.raises(CorrespondenceFailure) as info:
        run_in_lockstep(concrete, abstract, 10)
    assert "in the final sweep after step 3: " in str(info.value)
    assert "wellformed" in str(info.value)
    assert concrete.read_byte(0x200) == abstract.read_byte(0x200) == 0x5A


def test_lockstep_rejects_wrong_backends():
    concrete, abstract = lockstep_pair(STORE_LOOP)
    with pytest.raises(TypeError, match="abstract machine"):
        run_in_lockstep(abstract, concrete, 10)
    with pytest.raises(TypeError, match="concrete machine"):
        run_in_lockstep(abstract, abstract.copy(), 10)


def test_lockstep_clears_step_write_sets_when_it_fails():
    concrete, abstract = lockstep_pair(STORE_LOOP, StrayWriter)
    with pytest.raises(CorrespondenceFailure):
        run_in_lockstep(concrete, abstract, 100)
    assert concrete._step_writes is None and abstract._step_writes is None


def test_lockstep_rejects_negative_budget():
    # A budget that is negative, not an int, or a bool runs no step.
    concrete, abstract = lockstep_pair(STORE_LOOP)
    eip = concrete.eip
    for bad in (-1, 1.5, True, False, 2.0, "3"):
        with pytest.raises(ValueError, match="natural number"):
            run_in_lockstep(concrete, abstract, bad)
        with pytest.raises(ValueError, match="natural number"):
            concrete.run(bad)
        assert concrete.eip == abstract.eip == eip
        assert concrete._step_writes is abstract._step_writes is None


def test_reload_after_lockstep_drops_code_written_during_it():
    # The program patches nop;nop;nop;halt over the halt at `patch` and
    # runs it, so both decode caches hold the patched bytes.
    source = (
        "main:\n"
        "  irmovl $0x101010, %eax\n"
        "  rmmovl %eax, patch(%ebx)\n"
        "  jmp patch\n"
        ".pos 0x40\n"
        "patch:\n"
        "  halt\n")
    image, symbols = asm.assemble(asm.parse(source))
    concrete, abstract = lockstep_pair(source)
    report = run_in_lockstep(concrete, abstract, 100)
    assert report.steps == 7 and abstract.eip == symbols["patch"] + 3
    for m, mem in ((concrete, image.load(PagedMemory())),
                   (abstract, SparseMemory(dict(image)))):
        m.reload(mem, eip=symbols["patch"], keep_icache=True)
        m.step()
        assert m.status is Status.HLT and m.eip == symbols["patch"]


# ---------------------------------------------------------------------------
# counted updaters

def test_primitive_update_counting():
    m = Machine(PagedMemory())
    base = m.update_count
    m.set_reg(3, 99)
    assert m.update_count == base + 1
    m.set_eip(5)
    assert m.update_count == base + 2
    # A byte write into an unallocated block costs several primitive
    # updates (table entry, growth, cursor, store).
    m.write_byte(0x05000000, 1)
    assert m.update_count > base + 3
    after = m.update_count
    m.write_byte(0x05000001, 2)  # same page: single store
    assert m.update_count == after + 1


def test_set_reg_validation():
    m = Machine(SparseMemory())
    with pytest.raises(ValueError):
        m.set_reg(8, 0)
    with pytest.raises(ValueError):
        m.set_reg(0, 1 << 32)
    # A non-int or a bool is rejected as not 32-bit, and a register number
    # that is not an int as not in range, before anything is written.
    before = m.update_count
    for bad in (1.5, 2.0, "7", None, True, False):
        with pytest.raises(ValueError, match="32-bit"):
            m.set_reg(0, bad)
        with pytest.raises(ValueError, match="32-bit"):
            m.set_eip(bad)
    for bad in (1.5, 2.0, "1", None, True, False):
        with pytest.raises(ValueError,
                           match=re.escape(f"register number {bad} not in")):
            m.set_reg(bad, 0)
    assert m.regs == [0] * 8 and m.eip == 0 and m.update_count == before
    m.set_reg(Register.EDI, 5)
    m.set_reg(0, MASK32)
    assert m.regs == [MASK32, 0, 0, 0, 0, 0, 0, 5]


def test_copy_independence():
    for backend in (PagedMemory, SparseMemory):
        for first in (0, 1):
            m = Machine(backend(), image=asm.Image([(0, 0x10), (1, 0x00)]))
            m.write_byte(0x200, 1)   # a sparse machine now owns its memory
            dup = m.copy()
            dup.step()
            assert m.eip == 0 and dup.eip == 1
            # Whichever machine stores first, the other keeps its bytes.
            one, other = (m, dup) if first == 0 else (dup, m)
            one.write_byte(0x200, 2)
            assert other.read_byte(0x200) == 1
            other.write_byte(0x300, 3)
            assert one.read_byte(0x300) == 0
            dup.write_byte(0, 0xC0)
            assert m.read_byte(0) == 0x10


def test_copy_keeps_the_state_and_starts_an_empty_decode_cache():
    # irmovl $7, %edx; nop; halt
    image = asm.Image([(0, 0x30), (1, 0xF2), (2, 7), (6, 0x10), (7, 0x00)])
    m = Machine(SparseMemory(), esp=8192, image=image)
    m.run(2)
    m.set_flags(Flags(1, 0, 1))
    m._step_writes = set()
    dup = m.copy()
    assert (dup.regs, dup.eip, dup.flags, dup.status) == (
        m.regs, m.eip, m.flags, m.status) == (
        [0, 0, 7, 0, 8192, 0, 0, 0], 7, Flags(1, 0, 1), Status.AOK)
    assert dup.regs is not m.regs
    assert dup.mem is m.mem and dup._step_writes is m._step_writes
    assert len(m._icache) == 2 and m._icache_bytes
    assert dup._icache == {} and dup._icache_bytes == {}
    # The copy decodes from its own memory: a store into a span the
    # original has cached, made past `write_byte`, is what it runs.
    dup.mem = dup.mem.write(6, 0x00)
    dup.eip = 6
    assert dup.step().kind is Kind.HALT and m.read_byte(6) == 0x10


# ---------------------------------------------------------------------------
# persistent sparse memory: every memory a machine hands out stays unchanged,
# no store copies the map, and superseded versions die once nobody holds them

def test_mem_snapshot_is_not_written_by_later_stores():
    m = Machine(SparseMemory())
    m.write_byte(0x100, 1)
    snap = m.mem
    m.write_byte(0x100, 2)
    m.write_byte(0x101, 3)
    assert snap == SparseMemory({0x100: 1})
    assert m.mem == SparseMemory({0x100: 2, 0x101: 3})
    m.write_byte(0x102, 4)
    # Nor a memory handed in from outside.
    base = SparseMemory({0x10: 5})
    m.mem = base
    m.write_byte(0x10, 6)
    m.write_byte(0x11, 7)
    assert base == SparseMemory({0x10: 5})
    assert (m.read_byte(0x10), m.read_byte(0x11)) == (6, 7)


def test_reloads_from_one_base_each_see_it_unchanged(popcount_assembled):
    # As in `verify_popcount`: one machine reloaded from one shared base.
    image, symbols = popcount_assembled
    base = image.load(SparseMemory())
    expected = SparseMemory(dict(image))
    m = Machine(SparseMemory())
    for n in (0xFFFFFFFF, 0x5, 0x80000001):
        m.reload(base, eip=symbols["call-popcount"], esp=8192,
                 keep_icache=True)
        assert m.read_byte(8188) == 0   # no stack bytes left from a run
        m.regs[EDX] = n
        m.run(100_000)
        assert m.status is Status.HLT and m.regs[EAX] == bin(n).count("1")
        assert m.read_byte(8188) != 0   # the call pushed its return address
        assert base == expected


def test_versions_of_shared_histories_against_plain_dict_oracle():
    # Random stores, snapshots, copies and reloads on a few machines, whose
    # versions share histories and reroot them back and forth; every live
    # machine and every snapshot must read as its own dict says.
    rng = random.Random(0x0DD)
    addrs = range(24)
    machines = [(Machine(SparseMemory()), {})]
    snapshots = [(SparseMemory(), {})]
    for _ in range(3000):
        op = rng.random()
        m, oracle = rng.choice(machines)
        if op < 0.6:
            addr, value = rng.choice(addrs), rng.choice((0, 1, 0x80, 0xFF))
            m.write_byte(addr, value)
            oracle[addr] = value
        elif op < 0.75:
            snapshots.append((m.mem, dict(oracle)))
        elif op < 0.85 and len(machines) < 6:
            machines.append((m.copy(), dict(oracle)))
        else:
            mem, contents = rng.choice(snapshots)
            m.reload(mem)
            oracle.clear()
            oracle.update(contents)
        for mm, contents in machines:
            assert [mm.read_byte(a) for a in addrs] \
                == [contents.get(a, 0) for a in addrs]
        for mem, contents in snapshots:
            expected = [contents.get(a, 0) for a in addrs]
            assert list(mem.read_span(0, len(addrs))) == expected
            assert [mem.read(a) for a in addrs] == expected
    assert len(snapshots) > 100 and len(machines) == 6


# A loop storing 256 words, all of whose bytes are nonzero, into a fresh
# block at 0x100000.
WORD_LOOP = (
    "main:\n"
    "  irmovl $0x100000, %ebx\n"
    "  irmovl $256, %ecx\n"
    "  irmovl $4, %esi\n"
    "  irmovl $1, %edi\n"
    "  irmovl $0x11223344, %eax\n"
    "loop:\n"
    "  rmmovl %eax, 0(%ebx)\n"
    "  addl %esi, %ebx\n"
    "  subl %edi, %ecx\n"
    "  jne loop\n"
    "  halt\n")


# Bytes a machine's memory holds before the WORD_LOOP image is loaded.
HELD = {0x800000 + i: 7 for i in range(3000)}


def test_sparse_run_copies_no_map(counted_sparse):
    # None of the run's 1,024 byte stores reads the map whole.
    mem, data = counted_sparse(HELD)
    m, _ = machine_from(WORD_LOOP, backend=lambda: mem)
    m.run(10_000)
    assert m.status is Status.HLT
    assert data.scans == 0
    assert {a for a in m.mem.touched() if a >= 0x100000} \
        == set(range(0x100000, 0x100400)) | set(HELD)
    assert m.read_word(0x100000 + 4 * 255) == 0x11223344


def test_lockstep_abstract_side_copies_no_map(counted_sparse):
    # As above, under lockstep: only the final sweep reads the abstract
    # map whole, once, to list the addresses it holds.
    image, symbols = asm.assemble(asm.parse(WORD_LOOP))
    paged = PagedMemory()
    for addr, value in HELD.items():
        paged.write(addr, value)
    mem, data = counted_sparse(HELD)
    concrete = Machine(paged, eip=symbols["main"], esp=8192, image=image)
    abstract = Machine(mem, eip=symbols["main"], esp=8192, image=image)
    report = run_in_lockstep(concrete, abstract, 10_000, seed=2)
    assert abstract.status is Status.HLT and report.steps == 4 * 256 + 6
    assert data.scans == 1


def test_superseded_versions_die_when_no_caller_holds_them():
    m = Machine(SparseMemory())
    versions = []
    for k in range(50):
        m.write_byte(0x100 + k, k + 1)
        versions.append(weakref.ref(m.mem))
    assert [v() is None for v in versions] == [True] * 49 + [False]


class VersionWatcher(Machine):
    """Keeps a weak reference to each memory version its stores make."""

    __slots__ = ("versions",)

    def write_byte(self, addr, value):
        super().write_byte(addr, value)
        self.versions.append(weakref.ref(self.mem))


def test_a_held_version_keeps_later_versions_until_dropped_or_read(
        popcount_assembled):
    # As in `verify_popcount`: a caller holds `base` while a machine runs
    # from it.  Every version the run makes stays reachable through base,
    # even once the machine drops it, until base is read (in
    # `verify_popcount`, by the next reload checking its cached bytes) or
    # dropped.
    image, symbols = popcount_assembled
    base = image.load(SparseMemory())
    m = VersionWatcher(SparseMemory())
    for drop_base in (False, True):
        m.reload(base, eip=symbols["call-popcount"], esp=8192,
                 keep_icache=True)
        m.regs[EDX] = 0xFF
        m.versions = []
        m.run(1000)
        assert m.regs[EAX] == 8 and len(m.versions) == 4   # the call's push
        m.reload(SparseMemory())
        assert all(v() is not None for v in m.versions)
        if drop_base:
            del base
        else:
            assert base.read(8188) == 0
        assert all(v() is None for v in m.versions)

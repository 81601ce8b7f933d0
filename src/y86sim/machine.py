"""Y86 processor model: machine state, step and run, over either memory.

The memory backend is anything with `read(addr) -> byte`,
`read_span(addr, n) -> bytes`, the `n` bytes from `addr` on, wrapping
past 0xFFFFFFFF, and `write(addr, byte) -> memory`.  A machine keeps
whatever `write` returns: the paged backend mutates and returns itself,
the sparse backend returns a new version in O(1) and leaves every version
a caller holds unchanged.  A word is read with one `read_span`.  Keeping
the decode cache across a reload, and `mismatch`, also use the backends'
`read_many(addrs) -> bytes`.  A machine is single-writer; distinct
machines may run on distinct threads unless they share a sparse history
(see `mem_sparse`).

`read_byte`, `write_byte`, `read_word` and `write_word` take a 32-bit
address and pass it to the backend unchanged, so only the backend refuses
anything else, with AddressOutOfRange naming it.  The ISA's wrap modulo
2^32 is done where an address is computed: `step` masks each effective
address and stack pointer, and `write_word` masks its byte offsets.  A
refused store changes nothing: the decode cache and a lockstep write set
see only a store that happened.

Decoded instructions are cached by address.  Only `step` fills the cache,
and it returns the `Instruction` it ran.  A fetch on a miss is one
`read_span` of `isa.MAX_LENGTH` bytes at eip; `decode` says how many of
them the instruction took, so only `isa` knows encoding lengths.  An entry
holds the `Instruction` and its fall-through address, the eip after it
masked to 32 bits, so that address is computed once per decode, not once
per step.  The bytes each entry was decoded from are kept too.  A byte
write into a cached span drops the cache, so self-modifying code
re-decodes, and a reload that keeps the cache first checks those bytes
against the new memory.  A `copy` starts with an empty cache, so a decoded
instruction reaches another machine only through that checked reload, and
the logic side of a y86 obligation decodes from its own memory.

`correspondence` states once how a paged machine corresponds to a sparse
one, exactly or over a shared write set: `y86_spec()` registers it as
`corr`, and `run_in_lockstep` ends with it.  `mismatch` is the one memory
comparison of both, and of every lockstep step: it reads its addresses in
bulk, one `read_many` per backend, and names a difference only when the
two byte strings differ.  Given no address, as after a step that stored
nothing, it reads no memory.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import CorrespondenceFailure, InvalidInstruction, ValueOutOfRange
from .isa import (
    MASK32,
    MAX_LENGTH,
    MEM_SIZE,
    REGISTER_NAMES,
    Flags,
    Instruction,
    Kind,
    Status,
    alu_bits,
    cond_holds,
    decode,
    format_instruction,
    is_nat,
    is_word,
)
from .mem_paged import PagedMemory
from .mem_sparse import SparseMemory

__all__ = ["Machine", "LockstepReport", "run_in_lockstep", "mismatch",
           "correspondence", "ESP"]

ESP = 4  # stack pointer register number


def _check_budget(n) -> None:
    if not is_nat(n):
        raise ValueError("step budget must be a natural number")


class Machine:
    """Registers, instruction pointer, flags, status, and a memory backend."""

    __slots__ = (
        "regs", "eip", "zf", "sf", "of", "status", "mem",
        "_updates", "icache_clears",
        "_icache", "_icache_bytes", "_step_writes",
    )

    def __init__(self, mem, *, eip=0, esp=None, image=None):
        """Create a machine over `mem` with `image`, an `asm.Image`, loaded
        into it through `Image.load`.

        Registers and flags start at zero and status at AOK; `esp`, when
        given, initializes the stack pointer register.  An `eip` or `esp`
        that is not a 32-bit int raises ValueError before `mem` is written.
        """
        self.regs = [0] * 8
        self._updates = 0
        self.icache_clears = 0
        self._icache: dict[int, tuple[Instruction, int]] = {}
        self._icache_bytes: dict[int, int] = {}
        self._step_writes: set[int] | None = None
        self.reload(mem, eip=eip, esp=esp)
        if image is not None:
            self.mem = image.load(mem)

    # -- observers ---------------------------------------------------------

    @property
    def flags(self) -> Flags:
        return Flags(self.zf, self.sf, self.of)

    @property
    def update_count(self) -> int:
        """Primitive updates so far: the counted single-field updaters
        below plus the memory's own updates.

        `step` and `run` do not count their field updates; both are
        `protect`ed exports, so the atomicity protocol never reads a
        delta across them.
        """
        return self._updates + getattr(self.mem, "update_count", 0)

    # -- counted single-field updaters --------------------------------------

    def set_reg(self, i: int, value: int) -> None:
        if not is_nat(i, 8):
            raise ValueError(f"register number {i} not in 0..7")
        if not is_word(value):
            raise ValueError("register value must be 32-bit")
        self.regs[i] = value
        self._updates += 1

    def set_eip(self, value: int) -> None:
        if not is_word(value):
            raise ValueError("eip must be 32-bit")
        self.eip = value
        self._updates += 1

    def set_flags(self, flags: Flags) -> None:
        self.zf, self.sf, self.of = flags.zf, flags.sf, flags.of
        self._updates += 1

    def set_status(self, status: Status) -> None:
        self.status = status
        self._updates += 1

    # -- memory access -------------------------------------------------------

    def read_byte(self, addr: int) -> int:
        return self.mem.read(addr)

    def write_byte(self, addr: int, value: int) -> None:
        """Store, then drop a decode cache holding `addr` and record `addr`
        in a lockstep write set; a store the memory refuses changes none."""
        self.mem = self.mem.write(addr, value)
        if addr in self._icache_bytes:
            self._icache.clear()
            self._icache_bytes.clear()
            self.icache_clears += 1
        if self._step_writes is not None:
            self._step_writes.add(addr)

    def read_word(self, addr: int) -> int:
        return int.from_bytes(self.mem.read_span(addr, 4), "little")

    def write_word(self, addr: int, value: int) -> None:
        """Store `value` little-endian at `addr`; a value that is not a word
        (`is_nat` at MEM_SIZE, an exact int tested inline first) raises
        ValueOutOfRange and stores nothing."""
        if not (value.__class__ is int and 0 <= value < MEM_SIZE
                or is_nat(value, MEM_SIZE)):
            raise ValueOutOfRange(f"value {value!r} not a 32-bit word")
        self.write_byte(addr, value & 0xFF)
        self.write_byte((addr + 1) & MASK32, (value >> 8) & 0xFF)
        self.write_byte((addr + 2) & MASK32, (value >> 16) & 0xFF)
        self.write_byte((addr + 3) & MASK32, value >> 24)

    # -- execution -----------------------------------------------------------

    def step(self) -> Instruction | None:
        """Execute one instruction and return it, or None when nothing ran
        (status is not AOK, or the fetch sets INS); a miss fills the cache."""
        if self.status is not Status.AOK:
            return None
        eip = self.eip
        entry = self._icache.get(eip)
        if entry is None:
            window = self.mem.read_span(eip, MAX_LENGTH)
            try:
                instr, length = decode(window, 0)
            except InvalidInstruction:
                self.status = Status.INS
                return None
            end = eip + length
            entry = self._icache[eip] = (instr, end & MASK32)
            # No closure over `eip` or `end`: a cell would be made per step.
            self._icache_bytes.update(
                enumerate(window[:length], eip) if end <= MEM_SIZE
                else zip([a & MASK32 for a in range(eip, end)], window))
        instr, nxt = entry
        kind = instr.kind
        r = self.regs
        if kind is Kind.ALU:
            res, zf, sf, of = alu_bits(instr.fn, r[instr.ra], r[instr.rb])
            r[instr.rb] = res
            self.zf = zf
            self.sf = sf
            self.of = of
        elif kind is Kind.JMP:
            if cond_holds(instr.fn, self.zf, self.sf, self.of):
                nxt = instr.value
        elif kind is Kind.RRMOVL:
            if cond_holds(instr.fn, self.zf, self.sf, self.of):
                r[instr.rb] = r[instr.ra]
        elif kind is Kind.IRMOVL:
            r[instr.rb] = instr.value
        elif kind is Kind.MRMOVL:
            r[instr.ra] = self.read_word((r[instr.rb] + instr.value) & MASK32)
        elif kind is Kind.RMMOVL:
            self.write_word((r[instr.rb] + instr.value) & MASK32, r[instr.ra])
        elif kind is Kind.CALL:
            sp = (r[ESP] - 4) & MASK32
            r[ESP] = sp
            self.write_word(sp, nxt)
            nxt = instr.value
        elif kind is Kind.RET:
            sp = r[ESP]
            nxt = self.read_word(sp)
            r[ESP] = (sp + 4) & MASK32
        elif kind is Kind.PUSHL:
            sp = (r[ESP] - 4) & MASK32
            r[ESP] = sp
            self.write_word(sp, r[instr.ra])
        elif kind is Kind.POPL:
            sp = r[ESP]
            value = self.read_word(sp)
            r[ESP] = (sp + 4) & MASK32
            r[instr.ra] = value
        elif kind is Kind.HALT:  # eip stays at the halt instruction
            self.status = Status.HLT
            return instr
        self.eip = nxt  # all a NOP does
        return instr

    def run(self, n: int, trace=None) -> int:
        """Step until `n` steps are consumed or status leaves AOK.

        Returns the steps consumed; a budget `n` that is not a natural
        number raises ValueError.  `trace`, when given, gets each step's
        `traced_step` line.
        """
        _check_budget(n)
        step = self.step
        for k in range(n):
            if self.status is not Status.AOK:
                return k
            if trace is None:
                step()
            else:
                trace(self.traced_step(k + 1))
        return n

    def traced_step(self, k: int) -> str:
        """Run `step` as step `k` of a trace on a machine whose status is
        AOK; returns the line naming what `step` ran and the state after."""
        eip0 = self.eip
        instr = self.step()
        text = "(invalid)" if instr is None else format_instruction(instr)
        regs = " ".join(f"{v:08x}" for v in self.regs)
        return (f"step={k} eip={eip0:#010x} instr={text} regs={regs} "
                f"flags={self.zf}{self.sf}{self.of} status={self.status.value}")

    # -- lifecycle -----------------------------------------------------------

    def copy(self) -> "Machine":
        """Independent machine with equal state and an empty decode cache; a
        sparse memory and a write set are shared."""
        new = object.__new__(Machine)
        new.regs = list(self.regs)
        new.eip = self.eip
        new.zf, new.sf, new.of = self.zf, self.sf, self.of
        new.status = self.status
        new.mem = self.mem.copy()
        new._updates = self._updates
        new.icache_clears = self.icache_clears
        new._icache = {}
        new._icache_bytes = {}
        new._step_writes = self._step_writes
        return new

    def reload(self, mem, *, eip=0, esp=None, keep_icache=False) -> None:
        """Replace the memory, zero the registers and flags, set status AOK.

        Raises ValueError, changing nothing, when `eip` or `esp` is not a
        32-bit int.  With `keep_icache=True` the decode cache survives
        when `mem` holds the bytes every cached instruction was decoded
        from; it checks them itself, with one `read_many`, and otherwise is
        dropped and counted in `icache_clears`.
        """
        if not is_word(eip):
            raise ValueError("eip must be a 32-bit value")
        if esp is not None and not is_word(esp):
            raise ValueError("esp must be a 32-bit value")
        spans = self._icache_bytes
        if not keep_icache:
            self._icache.clear()
            spans.clear()
        elif mem.read_many(list(spans)) != bytes(spans.values()):
            self._icache.clear()
            spans.clear()
            self.icache_clears += 1
        self.mem = mem
        self.regs[:] = [0] * 8
        if esp is not None:
            self.regs[ESP] = esp
        self.eip = eip
        self.zf = self.sf = self.of = 0
        self.status = Status.AOK

    def __repr__(self) -> str:
        return (f"Machine(eip={self.eip:#x}, status={self.status.value}, "
                f"mem={self.mem!r})")


# ---------------------------------------------------------------------------
# differential execution of two backends

# Eips of the most recent steps quoted in a divergence report.
_RECENT_STEPS = 8


@dataclass(frozen=True)
class LockstepReport:
    steps: int
    addresses_checked: int


def mismatch(concrete: Machine, abstract: Machine, addrs=()):
    """None, or the first difference in registers, eip, flags, status, then
    memory at each of `addrs`, as in "%edx is 0x7 concrete vs 0x0 abstract"
    or "memory at 0x200 is 0x5b concrete vs 0x5a abstract".

    Memory is compared in bulk: one `read_many` of `addrs`, any iterable,
    per backend, and the two byte strings are walked only when they differ.
    Empty `addrs` read no memory.  An address a backend cannot read raises
    what its `read` raises.
    """
    c, a = concrete, abstract
    if (c.regs != a.regs or c.eip != a.eip or c.zf != a.zf
            or c.sf != a.sf or c.of != a.of or c.status is not a.status):
        fields = [*((f"%{name}", f"{got:#x}", f"{want:#x}") for name, got, want
                    in zip(REGISTER_NAMES, c.regs, a.regs)),
                  ("eip", f"{c.eip:#x}", f"{a.eip:#x}"),
                  ("flags", f"{c.zf}{c.sf}{c.of}", f"{a.zf}{a.sf}{a.of}"),
                  ("status", c.status.value, a.status.value)]
        field, got, want = next(f for f in fields if f[1] != f[2])
        return f"{field} is {got} concrete vs {want} abstract"
    if not addrs:
        return None
    if iter(addrs) is addrs:  # a one-shot iterator: both sides read it
        addrs = list(addrs)
    cbytes, abytes = c.mem.read_many(addrs), a.mem.read_many(addrs)
    if cbytes != abytes:
        addr, got, want = next(f for f in zip(addrs, cbytes, abytes)
                               if f[1] != f[2])
        return (f"memory at {addr:#x} is {got:#04x} concrete vs "
                f"{want:#04x} abstract")
    return None


def correspondence(concrete, abstract):
    """None when a paged machine corresponds to a sparse one, else the first
    difference.  The paged memory must be `wellformed()`.  Machines that
    share a write set corresponded before the stores it records, so only
    the state and those addresses are compared.  Otherwise the state and
    each address the sparse `touched()` names are, and the paged memory
    must hold as many nonzero bytes over its `nonzero_chunks`, else its
    lowest page that differs is compared: so the memories are equal as
    functions.  Counts that differ with no page to show it, as from a
    pagemap that leaves a page out, are named as a difference too.  The
    recognizer is not part of it."""
    if not (isinstance(concrete, Machine)
            and isinstance(concrete.mem, PagedMemory)
            and isinstance(abstract, Machine)
            and isinstance(abstract.mem, SparseMemory)):
        return "the pair is not a paged machine and a sparse one"
    mem = concrete.mem
    if not mem.wellformed():
        return "the paged memory is not wellformed()"
    written = concrete._step_writes
    if written is not None and written is abstract._step_writes:
        return mismatch(concrete, abstract, written)
    addrs = [*abstract.mem.touched()]
    difference = mismatch(concrete, abstract, addrs)
    if difference is not None:
        return difference
    nonzero = sum(len(chunk) - chunk.count(0)
                  for _, chunk in mem.nonzero_chunks())
    if nonzero == len(addrs):
        return None
    for addr, chunk in mem.nonzero_chunks():
        if chunk != abstract.mem.read_span(addr, len(chunk)):
            span = range(addr, addr + len(chunk))
            return mismatch(concrete, abstract, span)
    return (f"nonzero byte count is {nonzero} concrete vs {len(addrs)} "
            f"abstract, and no page named differs")


def _divergence(when: str, difference: str, recent) -> CorrespondenceFailure:
    trail = " ".join(f"{eip:#x}" for eip in recent) or "none"
    return CorrespondenceFailure(
        f"lockstep diverged {when}: {difference}; eips of the last "
        f"{len(recent)} steps: {trail}")


def run_in_lockstep(concrete: Machine, abstract: Machine, n: int, *,
                    seed: int = 0, trace=None) -> LockstepReport:
    """Step two machines together, checking agreement after every step.

    `concrete` must use a paged backend and `abstract` a sparse one.
    After every step the machines must agree on regs, eip, flags and
    status, and on each address that either of them wrote during that
    step; a step that stored nothing reads no memory.  The final sweep is
    one `correspondence` call with no write set open, so it holds only when
    the memories are equal as functions.  Raises CorrespondenceFailure on
    the first divergence, naming the step, the first difference and the
    last few eips.  `seed` draws nothing.  `addresses_checked` counts the
    addresses `mismatch` compared: each step's write set, then the
    bytes the sparse memory holds, all of which `touched()` names.
    `trace`, when given, is called with the abstract side's trace line for
    each step as it runs.
    """
    _check_budget(n)
    if not isinstance(abstract.mem, SparseMemory):
        raise TypeError("abstract machine must use a sparse memory backend")
    if not isinstance(concrete.mem, PagedMemory):
        raise TypeError("concrete machine must use a paged memory backend")
    recent = deque(maxlen=_RECENT_STEPS)
    checked = steps = 0
    # Both machines record the addresses they write in one step set.
    written = concrete._step_writes = abstract._step_writes = set()
    concrete_step, abstract_step = concrete.step, abstract.step
    try:
        while steps < n and abstract.status is Status.AOK:
            recent.append(abstract.eip)
            concrete_step()
            steps += 1
            if trace is None:
                abstract_step()
            else:
                trace(abstract.traced_step(steps))
            difference = mismatch(concrete, abstract, written)
            if difference is not None:
                raise _divergence(f"at step {steps}", difference, recent)
            checked += len(written)
            written.clear()
    finally:
        concrete._step_writes = abstract._step_writes = None
    difference = correspondence(concrete, abstract)
    if difference is not None:
        raise _divergence(f"in the final sweep after step {steps}", difference,
                          recent)
    return LockstepReport(steps=steps,
                          addresses_checked=checked + len(abstract.mem))

"""Y86 instruction set: registers, flags, encodings, ALU and condition semantics.

Encoding layout: one opcode byte (high nibble = instruction class, low
nibble = function/condition), an optional register byte (rA in the high
nibble, rB in the low nibble), and an optional 32-bit little-endian
constant.  Instruction lengths are therefore 1, 2, 5 or 6 bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import InvalidInstruction

__all__ = [
    "MASK32", "Register", "Flags", "Status", "Kind", "Cond", "AluFn",
    "Instruction", "encoded_length", "decode", "encode",
    "cond_holds", "alu_bits", "format_instruction",
    "REGISTER_NAMES",
]

MASK32 = 0xFFFFFFFF


class Register(IntEnum):
    """Register numbers as they appear in encodings."""

    EAX = 0
    ECX = 1
    EDX = 2
    EBX = 3
    ESP = 4
    EBP = 5
    ESI = 6
    EDI = 7
    NONE = 0xF  # "no register" slot marker


REGISTER_NAMES = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")


@dataclass(frozen=True, slots=True)
class Flags:
    """Condition codes, one bit each."""

    zf: int = 0
    sf: int = 0
    of: int = 0

    def __post_init__(self):
        for name in ("zf", "sf", "of"):
            if getattr(self, name) not in (0, 1):
                raise ValueError(f"{name} must be 0 or 1")


class Status(Enum):
    """Processor status; the machine only steps while AOK."""

    AOK = "AOK"  # running normally
    HLT = "HLT"  # halt instruction executed
    INS = "INS"  # invalid instruction encountered
    ADR = "ADR"  # reserved for bad addresses (never raised: all mod 2^32)


class Kind(IntEnum):
    """Instruction class; the value is the opcode's high nibble."""

    HALT = 0x0
    NOP = 0x1
    RRMOVL = 0x2  # conditional register move, fn = Cond
    IRMOVL = 0x3  # immediate to register
    RMMOVL = 0x4  # register to memory
    MRMOVL = 0x5  # memory to register
    ALU = 0x6     # fn = AluFn, rB <- rB op rA
    JMP = 0x7     # conditional jump, fn = Cond
    CALL = 0x8
    RET = 0x9
    PUSHL = 0xA
    POPL = 0xB


class Cond(IntEnum):
    """Condition nibble shared by RRMOVL (cmovXX) and JMP (jXX)."""

    ALWAYS = 0
    LE = 1
    L = 2
    E = 3
    NE = 4
    GE = 5
    G = 6


class AluFn(IntEnum):
    ADD = 0
    SUB = 1
    AND = 2
    XOR = 3


_LENGTHS = {
    Kind.HALT: 1, Kind.NOP: 1, Kind.RRMOVL: 2, Kind.IRMOVL: 6,
    Kind.RMMOVL: 6, Kind.MRMOVL: 6, Kind.ALU: 2, Kind.JMP: 5,
    Kind.CALL: 5, Kind.RET: 1, Kind.PUSHL: 2, Kind.POPL: 2,
}

# Kinds carrying a register byte / a 32-bit constant.
_HAS_REGBYTE = frozenset((
    Kind.RRMOVL, Kind.IRMOVL, Kind.RMMOVL, Kind.MRMOVL,
    Kind.ALU, Kind.PUSHL, Kind.POPL,
))
_HAS_VALUE = frozenset((
    Kind.IRMOVL, Kind.RMMOVL, Kind.MRMOVL, Kind.JMP, Kind.CALL,
))

# Register slots that must hold a real register (never NONE).
_REAL_RA = frozenset((
    Kind.RRMOVL, Kind.RMMOVL, Kind.MRMOVL, Kind.ALU, Kind.PUSHL, Kind.POPL,
))
_REAL_RB = frozenset((
    Kind.RRMOVL, Kind.IRMOVL, Kind.RMMOVL, Kind.MRMOVL, Kind.ALU,
))


def encoded_length(kind: Kind) -> int:
    """Byte length of any instruction of the given kind."""
    return _LENGTHS[kind]


@dataclass(frozen=True, slots=True)
class Instruction:
    """One decoded instruction.

    `fn` is the function nibble: a Cond for RRMOVL/JMP, an AluFn for ALU,
    0 for everything else.  `value` carries the immediate (IRMOVL),
    displacement (RMMOVL/MRMOVL) or destination (JMP/CALL).
    """

    kind: Kind
    fn: int = 0
    ra: Register = Register.NONE
    rb: Register = Register.NONE
    value: int = 0

    def __post_init__(self):
        object.__setattr__(self, "kind", Kind(self.kind))
        object.__setattr__(self, "ra", Register(self.ra))
        object.__setattr__(self, "rb", Register(self.rb))
        k = self.kind
        if k in (Kind.RRMOVL, Kind.JMP):
            object.__setattr__(self, "fn", Cond(self.fn))
        elif k is Kind.ALU:
            object.__setattr__(self, "fn", AluFn(self.fn))
        elif self.fn != 0:
            raise ValueError(f"{k.name} takes no function nibble")
        if (k in _REAL_RA) == (self.ra is Register.NONE):
            raise ValueError(f"bad rA operand for {k.name}")
        if (k in _REAL_RB) == (self.rb is Register.NONE):
            raise ValueError(f"bad rB operand for {k.name}")
        if k in _HAS_VALUE:
            if not 0 <= self.value <= MASK32:
                raise ValueError("constant does not fit in 32 bits")
        elif self.value != 0:
            raise ValueError(f"{k.name} takes no constant")


def decode(image, offset: int = 0) -> tuple[Instruction, int]:
    """Decode the instruction starting at `offset` in a byte sequence.

    Returns (instruction, encoded length).  Raises InvalidInstruction for
    undefined opcode/function pairs, illegal register nibbles, or an image
    that ends mid-instruction.
    """
    n = len(image)
    if not 0 <= offset < n:
        raise InvalidInstruction(f"offset {offset} outside image of {n} bytes")
    b0 = image[offset]
    icode, ifun = b0 >> 4, b0 & 0x0F
    try:
        kind = Kind(icode)
    except ValueError:
        raise InvalidInstruction(f"undefined opcode byte {b0:#04x}") from None
    if kind in (Kind.RRMOVL, Kind.JMP):
        if ifun > 6:
            raise InvalidInstruction(f"undefined condition {ifun:#x} in {b0:#04x}")
    elif kind is Kind.ALU:
        if ifun > 3:
            raise InvalidInstruction(f"undefined ALU function {ifun:#x} in {b0:#04x}")
    elif ifun != 0:
        raise InvalidInstruction(f"nonzero function nibble in {b0:#04x}")

    length = _LENGTHS[kind]
    if offset + length > n:
        raise InvalidInstruction(f"image ends mid-instruction at offset {offset}")

    pos = offset + 1
    ra = rb = Register.NONE
    if kind in _HAS_REGBYTE:
        rbyte = image[pos]
        pos += 1
        ra_n, rb_n = rbyte >> 4, rbyte & 0x0F
        if kind in _REAL_RA:
            if ra_n > 7:
                raise InvalidInstruction(f"rA={ra_n:#x} is not a register")
            ra = Register(ra_n)
        elif ra_n != 0xF:
            raise InvalidInstruction(f"rA must be 0xF for {kind.name}")
        if kind in _REAL_RB:
            if rb_n > 7:
                raise InvalidInstruction(f"rB={rb_n:#x} is not a register")
            rb = Register(rb_n)
        elif rb_n != 0xF:
            raise InvalidInstruction(f"rB must be 0xF for {kind.name}")

    value = 0
    if kind in _HAS_VALUE:
        value = (image[pos] | image[pos + 1] << 8
                 | image[pos + 2] << 16 | image[pos + 3] << 24)

    return Instruction(kind, fn=ifun, ra=ra, rb=rb, value=value), length


def encode(instr: Instruction) -> bytes:
    """Encode an instruction; inverse of decode."""
    out = bytearray(((instr.kind << 4) | instr.fn,))
    if instr.kind in _HAS_REGBYTE:
        out.append((instr.ra << 4) | instr.rb)
    if instr.kind in _HAS_VALUE:
        out += instr.value.to_bytes(4, "little")
    return bytes(out)


def cond_holds(cond: int, zf: int, sf: int, of: int) -> bool:
    """Condition evaluation on raw flag bits (allocation-free)."""
    if cond == Cond.ALWAYS:
        return True
    if cond == Cond.E:
        return zf == 1
    if cond == Cond.NE:
        return zf == 0
    if cond == Cond.L:
        return sf != of
    if cond == Cond.LE:
        return sf != of or zf == 1
    if cond == Cond.GE:
        return sf == of
    if cond == Cond.G:
        return sf == of and zf == 0
    raise ValueError(f"undefined condition {cond!r}")


def alu_bits(fn: int, a: int, b: int) -> tuple[int, int, int, int]:
    """ALU on raw values: returns (result, zf, sf, of).

    Operand order follows OPl rA,rB: the result is b op a, i.e. the second
    operand is the destination.  Overflow is two's-complement for add/sub
    and 0 for the logical operations.
    """
    a &= MASK32
    b &= MASK32
    if fn == AluFn.ADD:
        r = (b + a) & MASK32
        of = (~(a ^ b) & (a ^ r)) >> 31
    elif fn == AluFn.SUB:
        r = (b - a) & MASK32
        of = ((a ^ b) & (b ^ r)) >> 31
    elif fn == AluFn.AND:
        r = b & a
        of = 0
    elif fn == AluFn.XOR:
        r = b ^ a
        of = 0
    else:
        raise ValueError(f"undefined ALU function {fn!r}")
    return r, 1 if r == 0 else 0, r >> 31, of


_RR_NAMES = ("rrmovl", "cmovle", "cmovl", "cmove", "cmovne", "cmovge", "cmovg")
_JMP_NAMES = ("jmp", "jle", "jl", "je", "jne", "jge", "jg")
_ALU_NAMES = ("addl", "subl", "andl", "xorl")


def format_instruction(instr: Instruction) -> str:
    """Render an instruction in assembler surface syntax (hex operands)."""
    k = instr.kind
    if k is Kind.HALT:
        return "halt"
    if k is Kind.NOP:
        return "nop"
    if k is Kind.RET:
        return "ret"
    ra = REGISTER_NAMES[instr.ra] if instr.ra is not Register.NONE else ""
    rb = REGISTER_NAMES[instr.rb] if instr.rb is not Register.NONE else ""
    if k is Kind.RRMOVL:
        return f"{_RR_NAMES[instr.fn]} %{ra}, %{rb}"
    if k is Kind.IRMOVL:
        return f"irmovl ${instr.value:#x}, %{rb}"
    if k is Kind.RMMOVL:
        return f"rmmovl %{ra}, {instr.value:#x}(%{rb})"
    if k is Kind.MRMOVL:
        return f"mrmovl {instr.value:#x}(%{rb}), %{ra}"
    if k is Kind.ALU:
        return f"{_ALU_NAMES[instr.fn]} %{ra}, %{rb}"
    if k is Kind.JMP:
        return f"{_JMP_NAMES[instr.fn]} {instr.value:#x}"
    if k is Kind.CALL:
        return f"call {instr.value:#x}"
    if k is Kind.PUSHL:
        return f"pushl %{ra}"
    return f"popl %{ra}"

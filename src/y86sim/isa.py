"""Y86 instruction set: registers, flags, encodings, ALU and condition semantics.

Encoding layout: one opcode byte (high nibble = instruction class, low
nibble = function/condition), an optional register byte (rA in the high
nibble, rB in the low nibble), and an optional 32-bit little-endian
constant.  Instruction lengths are therefore 1, 2, 5 or 6 bytes.  A fetch
hands `decode` `MAX_LENGTH` bytes, the longest, and `decode` returns the
length it took: no other module computes one.

The instruction table is stated once, in `OPERANDS` (each kind's operand
slots) and `MNEMONICS` (each name's kind and function nibble); lengths,
the validity rules of `Instruction`, `format_instruction` and the
assembler all read it.  `decode` reads each field of an encoding once
and looks them up in two tables derived from it, `OPCODES` (opcode byte
-> kind, function nibble, length) and each kind's accepted register
bytes, so a valid encoding costs one lookup in each; the same fields of
an encoding they reject go to `Instruction`, which names the fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, IntEnum

from .errors import InvalidInstruction

__all__ = [
    "MASK32", "Register", "Flags", "Status", "Kind", "Cond", "AluFn",
    "Instruction", "encoded_length", "decode", "encode",
    "cond_holds", "alu_bits", "format_instruction",
    "REGISTER_NAMES", "OPERANDS", "MNEMONICS", "OPCODES", "MEM_SIZE",
    "MAX_LENGTH", "is_nat", "is_word",
]

MASK32 = 0xFFFFFFFF
MEM_SIZE = 1 << 32  # bytes in the address space


def is_nat(value, bound=None) -> bool:
    """Whether `value` is an int that is not a bool, at least 0 and, when
    `bound` is given, below it: the one range rule of every guard,
    recognizer and argument check.  An exact int is tested first."""
    return ((value.__class__ is int
             or isinstance(value, int) and value.__class__ is not bool)
            and 0 <= value and (bound is None or value < bound))


def is_word(value) -> bool:
    """`is_nat` at 2^32: a register value, an eip or a guarded address."""
    return is_nat(value, MEM_SIZE)


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
            if not is_nat(getattr(self, name), 2):
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


# Operand slots of each kind, in assembler surface order:
#   ra    a register in the rA nibble
#   rb    a register in the rB nibble
#   imm   the constant as an immediate, `$imm`
#   dest  the constant as a code address
#   mem   `D(%rB)`: the constant as a displacement off the rB register
# A register nibble that no slot names holds 0xF (Register.NONE).
OPERANDS: dict[Kind, tuple[str, ...]] = {
    Kind.HALT: (), Kind.NOP: (),
    Kind.RRMOVL: ("ra", "rb"), Kind.IRMOVL: ("imm", "rb"),
    Kind.RMMOVL: ("ra", "mem"), Kind.MRMOVL: ("mem", "ra"),
    Kind.ALU: ("ra", "rb"), Kind.JMP: ("dest",), Kind.CALL: ("dest",),
    Kind.RET: (), Kind.PUSHL: ("ra",), Kind.POPL: ("ra",),
}

# Assembler name -> (kind, function nibble); every defined encoding has one.
MNEMONICS: dict[str, tuple[Kind, int]] = {
    "halt": (Kind.HALT, 0), "nop": (Kind.NOP, 0),
    "rrmovl": (Kind.RRMOVL, Cond.ALWAYS), "cmovle": (Kind.RRMOVL, Cond.LE),
    "cmovl": (Kind.RRMOVL, Cond.L), "cmove": (Kind.RRMOVL, Cond.E),
    "cmovne": (Kind.RRMOVL, Cond.NE), "cmovge": (Kind.RRMOVL, Cond.GE),
    "cmovg": (Kind.RRMOVL, Cond.G),
    "irmovl": (Kind.IRMOVL, 0), "rmmovl": (Kind.RMMOVL, 0),
    "mrmovl": (Kind.MRMOVL, 0),
    "addl": (Kind.ALU, AluFn.ADD), "subl": (Kind.ALU, AluFn.SUB),
    "andl": (Kind.ALU, AluFn.AND), "xorl": (Kind.ALU, AluFn.XOR),
    "jmp": (Kind.JMP, Cond.ALWAYS), "jle": (Kind.JMP, Cond.LE),
    "jl": (Kind.JMP, Cond.L), "je": (Kind.JMP, Cond.E),
    "jne": (Kind.JMP, Cond.NE), "jge": (Kind.JMP, Cond.GE),
    "jg": (Kind.JMP, Cond.G),
    "call": (Kind.CALL, 0), "ret": (Kind.RET, 0),
    "pushl": (Kind.PUSHL, 0), "popl": (Kind.POPL, 0),
}

# Derived from the two tables above.
_NAMES = {pair: name for name, pair in MNEMONICS.items()}
_FNS = {pair: pair[1] for pair in MNEMONICS.values()}
_REAL_RA = frozenset(k for k, slots in OPERANDS.items() if "ra" in slots)
_REAL_RB = frozenset(k for k, slots in OPERANDS.items()
                     if "rb" in slots or "mem" in slots)
_HAS_REGBYTE = _REAL_RA | _REAL_RB
_HAS_VALUE = frozenset(k for k, slots in OPERANDS.items()
                       if {"imm", "dest", "mem"} & set(slots))
_LENGTHS = {k: 1 + (k in _HAS_REGBYTE) + 4 * (k in _HAS_VALUE)
            for k in OPERANDS}
MAX_LENGTH = max(_LENGTHS.values())  # bytes a fetch hands `decode`


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
        k = Kind(self.kind)
        fn = _FNS.get((k, self.fn))
        if fn is None:
            raise ValueError(f"undefined function {self.fn!r} for {k.name}")
        ra, rb = Register(self.ra), Register(self.rb)
        if (k in _REAL_RA) == (ra is Register.NONE):
            raise ValueError(f"bad rA operand for {k.name}")
        if (k in _REAL_RB) == (rb is Register.NONE):
            raise ValueError(f"bad rB operand for {k.name}")
        if k in _HAS_VALUE:
            if not is_word(self.value):
                raise ValueError("constant does not fit in 32 bits")
        elif not is_nat(self.value, 1):
            raise ValueError(f"{k.name} takes no constant")
        object.__setattr__(self, "kind", k)
        object.__setattr__(self, "fn", fn)
        object.__setattr__(self, "ra", ra)
        object.__setattr__(self, "rb", rb)


# Decode tables, derived from the ones above: each defined opcode byte ->
# (kind, function nibble, length), and for each kind with a register byte,
# each register byte that `Instruction` accepts there -> (rA, rB).
OPCODES = {k << 4 | fn: (k, fn, _LENGTHS[k]) for k, fn in MNEMONICS.values()}
_REG_PAIRS = {k: {ra << 4 | rb: (ra, rb)
                  for ra in Register if (k in _REAL_RA) != (ra is Register.NONE)
                  for rb in Register if (k in _REAL_RB) != (rb is Register.NONE)}
              for k in _HAS_REGBYTE}
_NO_REGS = (Register.NONE, Register.NONE)
# Slot setters: an accepted encoding's `Instruction` skips `__post_init__`.
_set_kind, _set_fn, _set_ra, _set_rb, _set_value = (
    getattr(Instruction, name).__set__ for name in Instruction.__slots__)


def decode(image, offset: int = 0) -> tuple[Instruction, int]:
    """Decode the instruction starting at `offset` in a byte sequence.

    Returns (instruction, encoded length).  Each field is read once.  An
    encoding the decode tables accept is built from them without
    re-validation; the fields of any other go to `Instruction`.  Raises
    InvalidInstruction for an undefined opcode, for an image that ends
    mid-instruction, or with `Instruction`'s message for a field it rejects.
    """
    n = len(image)
    # The exact-int test is `is_nat`'s own first case, inline on every fetch.
    if not (offset.__class__ is int and 0 <= offset < n or is_nat(offset, n)):
        raise InvalidInstruction(f"offset {offset} outside image of {n} bytes")
    b0 = image[offset]
    op = OPCODES.get(b0)
    kind, fn, length = op or (b0 >> 4, b0 & 0x0F, _LENGTHS.get(b0 >> 4))
    if length is None:
        raise InvalidInstruction(f"undefined opcode byte {b0:#04x}")
    end = offset + length
    if end > n:
        raise InvalidInstruction(f"image ends mid-instruction at offset {offset}")
    regs = _NO_REGS
    if kind in _HAS_REGBYTE:
        regbyte = image[offset + 1]
        regs = _REG_PAIRS[kind].get(regbyte)
    value = int.from_bytes(image[end - 4:end], "little") if length > 4 else 0
    if op is not None and regs is not None:
        instr = object.__new__(Instruction)
        _set_kind(instr, kind)
        _set_fn(instr, fn)
        _set_ra(instr, regs[0])
        _set_rb(instr, regs[1])
        _set_value(instr, value)
        return instr, length
    ra, rb = divmod(regbyte, 16) if regs is None else regs
    try:
        return Instruction(kind, fn, ra, rb, value), length
    except ValueError as exc:
        raise InvalidInstruction(f"{exc} (opcode byte {b0:#04x})") from None


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


_SLOT_TEXT = {
    "ra": lambda i: f"%{REGISTER_NAMES[i.ra]}",
    "rb": lambda i: f"%{REGISTER_NAMES[i.rb]}",
    "imm": lambda i: f"${i.value:#x}",
    "dest": lambda i: f"{i.value:#x}",
    "mem": lambda i: f"{i.value:#x}(%{REGISTER_NAMES[i.rb]})",
}


def format_instruction(instr: Instruction) -> str:
    """Render an instruction in assembler surface syntax (hex operands)."""
    name = _NAMES[instr.kind, instr.fn]
    operands = ", ".join(_SLOT_TEXT[slot](instr) for slot in OPERANDS[instr.kind])
    return f"{name} {operands}" if operands else name

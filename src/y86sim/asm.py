"""Two-pass Y86 assembler, binary image format, loader, and disassembler.

Source grammar (one item per line, `#` starts a comment):

    label:                      bind a label to the location counter
    .pos N                      set the location counter; N may not be
                                below the end of the bytes emitted so far
    .byte N                     emit one literal byte, N in 0..255
    irmovl $imm, %reg           plus: rrmovl/cmovXX, rmmovl, mrmovl,
    mrmovl D(%rB), %rA          addl/subl/andl/xorl, jmp/jXX, call, ret,
    rmmovl %rA, D(%rB)          pushl, popl, halt, nop

Immediates and displacements are decimal or 0x-hex numbers or label
names; the displacement in D(%reg) may be omitted (0).  Mnemonics and
their operands are read from `isa.MNEMONICS` and `isa.OPERANDS`; this
module defines no instruction table of its own.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import (
    AddressOverflow,
    BackwardPos,
    InvalidInstruction,
    ParseError,
    UnresolvedLabel,
)
from .isa import (
    MASK32,
    MEM_SIZE,
    MNEMONICS,
    OPERANDS,
    Instruction,
    Register,
    REGISTER_NAMES,
    decode,
    encode,
    encoded_length,
    format_instruction,
)

__all__ = [
    "Label", "Pos", "SourceInstr", "MemRef", "Program", "Image",
    "parse", "assemble", "disassemble", "save_image", "load_image",
]


# ---------------------------------------------------------------------------
# program representation

@dataclass(frozen=True)
class Label:
    name: str
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Pos:
    addr: int
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class MemRef:
    """A D(%reg) operand; `disp` may be a number or a label name."""

    disp: int | str
    base: Register


@dataclass(frozen=True)
class SourceInstr:
    mnemonic: str
    operands: tuple
    line: int = field(default=0, compare=False)


@dataclass(frozen=True)
class Program:
    items: tuple


# ---------------------------------------------------------------------------
# operand parsing

_SYMBOL = r"[A-Za-z_.][\w.$-]*"
_NUMBER = r"-?(?:0[xX][0-9a-fA-F]+|\d+)"
_LABEL_DEF_RE = re.compile(rf"^({_SYMBOL}):\s*(.*)$")
_REG_RE = re.compile(r"^%([a-z]+)$")
_IMM_RE = re.compile(rf"^\$?({_NUMBER}|{_SYMBOL})$")
_MEM_RE = re.compile(rf"^({_NUMBER}|{_SYMBOL})?\s*\(\s*(%[a-z]+)\s*\)$")
_NUMBER_RE = re.compile(rf"^{_NUMBER}$")

_REG_BY_NAME = {name: Register(i) for i, name in enumerate(REGISTER_NAMES)}


def _parse_number(token: str, lineno: int, low: int = -(1 << 31),
                  high: int = MASK32,
                  fault: str = "number {!r} does not fit in 32 bits") -> int:
    """A number in low..high, wrapped to 32 bits; else ParseError(fault)."""
    try:
        value = int(token, 0)
    except ValueError:
        raise ParseError(f"malformed number {token!r}", lineno) from None
    if not low <= value <= high:
        raise ParseError(fault.format(token), lineno)
    return value & MASK32


def _parse_reg(token: str, lineno: int) -> Register:
    m = _REG_RE.match(token)
    if not m or m.group(1) not in _REG_BY_NAME:
        raise ParseError(f"expected a register, got {token!r}", lineno)
    return _REG_BY_NAME[m.group(1)]


def _parse_imm(token: str, lineno: int) -> int | str:
    m = _IMM_RE.match(token)
    if not m:
        raise ParseError(f"malformed immediate {token!r}", lineno)
    body = m.group(1)
    if _NUMBER_RE.match(body):
        return _parse_number(body, lineno)
    return body  # label reference, resolved during assembly


def _parse_mem(token: str, lineno: int) -> MemRef:
    m = _MEM_RE.match(token)
    if not m:
        raise ParseError(f"malformed memory operand {token!r}", lineno)
    disp_tok, reg_tok = m.group(1), m.group(2)
    if not disp_tok:
        disp: int | str = 0
    elif _NUMBER_RE.match(disp_tok):
        disp = _parse_number(disp_tok, lineno)
    else:
        disp = disp_tok
    return MemRef(disp, _parse_reg(reg_tok, lineno))


def _parse_byte(token: str, lineno: int) -> int:
    return _parse_number(token, lineno, 0, 0xFF,
                         ".byte value {!r} is not in 0..255")


# operand slot (an `isa.OPERANDS` slot, or "byte" for .byte) -> parser
_PARSERS = {"ra": _parse_reg, "rb": _parse_reg, "imm": _parse_imm,
            "dest": _parse_imm, "mem": _parse_mem, "byte": _parse_byte}


def parse(text: str) -> Program:
    """Parse assembler source into a Program.

    Raises ParseError (with line number) for unknown mnemonics, malformed
    operands, or duplicate labels.
    """
    items: list = []
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        while True:
            m = _LABEL_DEF_RE.match(line)
            if not m:
                break
            name = m.group(1)
            if name in seen:
                raise ParseError(f"duplicate label {name!r}", lineno)
            seen.add(name)
            items.append(Label(name, lineno))
            line = m.group(2).strip()
        if not line:
            continue
        parts = line.split(None, 1)
        mnemonic = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if mnemonic == ".pos":
            if not rest.strip():
                raise ParseError(".pos needs an address", lineno)
            addr = _parse_number(rest.strip(), lineno, 0, MASK32,
                                 ".pos address {!r} is not in 0..0xffffffff")
            items.append(Pos(addr, lineno))
            continue
        if mnemonic == ".byte":
            slots = ("byte",)
        elif mnemonic in MNEMONICS:
            slots = OPERANDS[MNEMONICS[mnemonic][0]]
        else:
            raise ParseError(f"unknown mnemonic {mnemonic!r}", lineno)
        tokens = [t.strip() for t in rest.split(",")] if rest.strip() else []
        if len(tokens) != len(slots):
            raise ParseError(
                f"{mnemonic} takes {len(slots)} operand(s), got {len(tokens)}",
                lineno)
        operands = tuple(_PARSERS[slot](token, lineno)
                         for slot, token in zip(slots, tokens))
        items.append(SourceInstr(mnemonic, operands, lineno))
    return Program(tuple(items))


# ---------------------------------------------------------------------------
# assembly

def _size_of(instr: SourceInstr) -> int:
    if instr.mnemonic == ".byte":
        return 1
    return encoded_length(MNEMONICS[instr.mnemonic][0])


def _resolve(value: int | str, symbols: dict[str, int], lineno: int) -> int:
    if isinstance(value, int):
        return value
    try:
        addr = symbols[value]
    except KeyError:
        raise UnresolvedLabel(
            f"line {lineno}: undefined label {value!r}") from None
    if addr > MASK32:
        raise AddressOverflow(
            f"line {lineno}: label {value!r} is at {addr:#x}, past the "
            f"32-bit space")
    return addr


def _build(instr: SourceInstr, symbols: dict[str, int]) -> Instruction:
    kind, fn = MNEMONICS[instr.mnemonic]
    fields = {}
    for slot, op in zip(OPERANDS[kind], instr.operands):
        if slot == "mem":
            fields["rb"] = op.base
            fields["value"] = _resolve(op.disp, symbols, instr.line)
        elif slot in ("imm", "dest"):
            fields["value"] = _resolve(op, symbols, instr.line)
        else:
            fields[slot] = op
    return Instruction(kind, fn, **fields)


def assemble(program: Program) -> tuple["Image", dict[str, int]]:
    """Two passes: place every item and bind labels, then encode.

    A `.pos` may not go below the end of the bytes emitted so far, but it
    may move back into a gap above them.  Raises UnresolvedLabel,
    BackwardPos (a `.pos` below that end), or AddressOverflow (code past
    the 32-bit space, or a label bound at its end used as a constant).
    """
    symbols: dict[str, int] = {}
    placed: list[tuple[int, SourceInstr]] = []
    lc = high = 0  # location counter; end of the bytes emitted so far
    for item in program.items:
        if isinstance(item, Label):
            symbols[item.name] = lc
        elif isinstance(item, Pos):
            if item.addr < high:
                raise BackwardPos(
                    f"line {item.line}: .pos {item.addr:#x} moves back over "
                    f"emitted bytes")
            lc = item.addr
        else:
            placed.append((lc, item))
            lc += _size_of(item)
            if lc > MEM_SIZE:
                raise AddressOverflow(
                    f"line {item.line}: code runs past the 32-bit space")
            high = lc

    emitted: dict[int, int] = {}
    for addr, item in placed:
        raw = (item.operands if item.mnemonic == ".byte"  # its one byte
               else encode(_build(item, symbols)))
        for k, byte in enumerate(raw):
            emitted[addr + k] = byte
    return Image(emitted.items()), symbols


# ---------------------------------------------------------------------------
# binary image

_BYTE_LINE_RE = re.compile(r"^(0[xX][0-9a-fA-F]+):\s*([0-9a-fA-F]{1,2})$")
_SYMBOL_LINE_RE = re.compile(rf"^#\s*symbol\s+({_SYMBOL})\s+(0[xX][0-9a-fA-F]+)$")


class Image:
    """Loadable binary: (address, byte) pairs, addresses strictly increasing."""

    __slots__ = ("_pairs",)

    def __init__(self, pairs):
        ordered = sorted(pairs)
        for (a1, b1), (a2, _) in zip(ordered, ordered[1:]):
            if a1 == a2:
                raise ValueError(f"duplicate address {a1:#x}")
        for addr, byte in ordered:
            if not 0 <= addr < MEM_SIZE:
                raise ValueError(f"address {addr:#x} not 32-bit")
            if not 0 <= byte <= 0xFF:
                raise ValueError(f"byte {byte} out of range at {addr:#x}")
        self._pairs = tuple(ordered)

    def __iter__(self):
        return iter(self._pairs)

    def __len__(self):
        return len(self._pairs)

    def __eq__(self, other):
        if not isinstance(other, Image):
            return NotImplemented
        return self._pairs == other._pairs

    def load(self, mem):
        """Write every image byte into `mem` through its `write`; returns
        the loaded memory, for a sparse `mem` a new version of it."""
        for addr, byte in self._pairs:
            mem = mem.write(addr, byte)
        return mem

    def to_text(self, symbols: dict[str, int] | None = None) -> str:
        lines = [f"{addr:#010x}: {byte:02x}" for addr, byte in self._pairs]
        if symbols:
            lines += [f"# symbol {name} {addr:#010x}"
                      for name, addr in sorted(symbols.items())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> tuple["Image", dict[str, int]]:
        pairs: list[tuple[int, int]] = []
        symbols: dict[str, int] = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                m = _SYMBOL_LINE_RE.match(line)
                if m:
                    symbols[m.group(1)] = int(m.group(2), 16)
                continue
            m = _BYTE_LINE_RE.match(line)
            if not m:
                raise ParseError("malformed image line", lineno)
            pairs.append((int(m.group(1), 16), int(m.group(2), 16)))
        return cls(pairs), symbols

    def __repr__(self):
        return f"Image({len(self._pairs)} bytes)"


def save_image(path, image: Image, symbols: dict[str, int] | None = None) -> None:
    Path(path).write_text(image.to_text(symbols), encoding="utf-8")


def load_image(path) -> tuple[Image, dict[str, int]]:
    """Read a `.yim` file.  A file that is not UTF-8, or whose pairs do not
    form an `Image`, raises ParseError; OSError passes through."""
    try:
        return Image.from_text(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError
        raise ParseError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# disassembly

def disassemble(image: Image) -> str:
    """Greedy decode from the lowest address; `.byte` for undecodable bytes.

    Output is valid assembler source (numeric operands; labels are not
    reconstructed).
    """
    runs: list[tuple[int, bytearray]] = []
    for addr, byte in image:
        if runs and addr == runs[-1][0] + len(runs[-1][1]):
            runs[-1][1].append(byte)
        else:
            runs.append((addr, bytearray([byte])))
    lines: list[str] = []
    for start, data in runs:
        lines.append(f"    .pos {start:#x}")
        offset = 0
        while offset < len(data):
            try:
                instr, length = decode(data, offset)
            except InvalidInstruction:
                lines.append(f"    .byte {data[offset]:#04x}")
                offset += 1
            else:
                lines.append(f"    {format_instruction(instr)}")
                offset += length
    return "\n".join(lines) + "\n"

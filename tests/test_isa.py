"""Instruction encoding, decoding, ALU and condition semantics."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from y86sim.errors import InvalidInstruction
from y86sim.isa import (
    MASK32,
    AluFn,
    Cond,
    Instruction,
    Kind,
    Register,
    alu_bits,
    cond_holds,
    decode,
    encode,
    encoded_length,
    format_instruction,
)

REAL_REGS = [r for r in Register if r is not Register.NONE]


# ---------------------------------------------------------------------------
# instruction generation (all valid instructions, used as the encode table)

def all_instructions():
    """Every valid instruction shape, with a couple of constants each."""
    consts = (0, 1, 1023, 0xFFFFFFFF)
    out = [Instruction(Kind.HALT), Instruction(Kind.NOP), Instruction(Kind.RET)]
    for ra in REAL_REGS:
        out.append(Instruction(Kind.PUSHL, ra=ra))
        out.append(Instruction(Kind.POPL, ra=ra))
        for rb in REAL_REGS:
            for cond in Cond:
                out.append(Instruction(Kind.RRMOVL, fn=cond, ra=ra, rb=rb))
            for fn in AluFn:
                out.append(Instruction(Kind.ALU, fn=fn, ra=ra, rb=rb))
            for c in consts:
                out.append(Instruction(Kind.RMMOVL, ra=ra, rb=rb, value=c))
                out.append(Instruction(Kind.MRMOVL, ra=ra, rb=rb, value=c))
    for rb in REAL_REGS:
        for c in consts:
            out.append(Instruction(Kind.IRMOVL, rb=rb, value=c))
    for cond in Cond:
        for c in consts:
            out.append(Instruction(Kind.JMP, fn=cond, value=c))
    for c in consts:
        out.append(Instruction(Kind.CALL, value=c))
    return out


instruction_strategy = st.sampled_from(all_instructions())


# ---------------------------------------------------------------------------
# decode / encode

def test_decode_halt():
    assert decode(bytes([0x00])) == (Instruction(Kind.HALT), 1)


def test_decode_irmovl_paper_bytes():
    # 1023 = 0x000003FF, little-endian FF 03 00 00; checked against the
    # stdlib byte-order oracle before freezing.
    assert (1023).to_bytes(4, "little") == bytes([0xFF, 0x03, 0x00, 0x00])
    raw = bytes([0x30, 0xF0, 0xFF, 0x03, 0x00, 0x00])
    instr, length = decode(raw)
    assert instr == Instruction(Kind.IRMOVL, rb=Register.EAX, value=1023)
    assert length == 6
    assert encode(instr) == raw


def test_decode_undefined_alu_function():
    with pytest.raises(InvalidInstruction):
        decode(bytes([0x6F, 0x00]))


def test_encode_trivial():
    assert encode(Instruction(Kind.HALT)) == bytes([0x00])
    assert encode(Instruction(Kind.NOP)) == bytes([0x10])


@given(instruction_strategy)
def test_encode_decode_round_trip(instr):
    raw = encode(instr)
    assert len(raw) == encoded_length(instr.kind)
    assert decode(raw, 0) == (instr, len(raw))


def test_decode_mid_image_offset():
    raw = encode(Instruction(Kind.NOP)) + encode(Instruction(Kind.HALT))
    assert decode(raw, 1) == (Instruction(Kind.HALT), 1)


def test_first_byte_exhaustive_scan():
    # Oracle: the set of legal first bytes is derived from the encoder over
    # every valid instruction.  Any other first byte must be rejected no
    # matter what follows.
    legal_first = {encode(i)[0] for i in all_instructions()}
    for b0 in range(256):
        raw = bytes([b0, 0x00, 0x00, 0x00, 0x00, 0x00])
        if b0 not in legal_first:
            with pytest.raises(InvalidInstruction):
                decode(raw)
        else:
            try:
                decode(raw)
            except InvalidInstruction:
                # Legal opcode but the zero register byte may violate
                # register-slot rules (e.g. irmovl needs rA = 0xF).
                pass


@pytest.mark.parametrize("raw", [
    bytes([0x30, 0x00, 0, 0, 0, 0]),  # irmovl: rA must be 0xF
    bytes([0xA0, 0xFF]),              # pushl: rA must be real
    bytes([0xA0, 0x01]),              # pushl: rB must be 0xF
    bytes([0x60, 0xF0]),              # ALU: rA must be real
    bytes([0x20, 0x0F]),              # rrmovl: rB must be real
    bytes([0x40, 0x08, 0, 0, 0, 0]),  # register nibble 8..14 is no register
    bytes([0x01]),                    # nonzero function nibble on halt
    bytes([0xC0]),                    # undefined opcode
])
def test_decode_register_slot_violations(raw):
    with pytest.raises(InvalidInstruction):
        decode(raw)


@pytest.mark.parametrize("raw", [
    bytes([0x30, 0xF0, 0xFF, 0x03]),  # irmovl cut short
    bytes([0x70]),                    # jmp missing destination
    bytes([0x20]),                    # rrmovl missing register byte
    bytes([]),                        # empty image
])
def test_decode_truncated_image(raw):
    with pytest.raises(InvalidInstruction):
        decode(raw)


def test_decode_raises_only_invalid_instruction():
    # Every first byte x register byte, zero-padded to 6 bytes, and every
    # first byte with a few register bytes cut to 1..5 bytes: decode either
    # rejects the window with InvalidInstruction or returns an instruction
    # that encodes back to the window's prefix.  Any other exception fails.
    windows = [bytes([b0, b1, 0, 0, 0, 0])
               for b0 in range(256) for b1 in range(256)]
    windows += [bytes([b0, b1, 0x12, 0x34, 0x56, 0x78])[:cut]
                for b0 in range(256)
                for b1 in (0x00, 0x0F, 0xF0, 0xFF, 0x12, 0x8F)
                for cut in range(1, 6)]
    decoded = 0
    for raw in windows:
        try:
            instr, length = decode(raw)
        except InvalidInstruction:
            continue
        assert encode(instr) == raw[:length], raw.hex()
        decoded += 1
    assert decoded > 0


def test_instruction_invariants_rejected():
    with pytest.raises(ValueError):
        Instruction(Kind.IRMOVL, rb=Register.NONE, value=3)
    with pytest.raises(ValueError):
        Instruction(Kind.PUSHL, ra=Register.NONE)
    with pytest.raises(ValueError):
        Instruction(Kind.HALT, value=7)
    with pytest.raises(ValueError):
        Instruction(Kind.IRMOVL, rb=Register.EAX, value=1 << 32)


# ---------------------------------------------------------------------------
# condition evaluation

def _signed(x):
    return x - (1 << 32) if x & 0x80000000 else x


# Signed-comparison oracle: after the comparison b - a, each condition
# must agree with the mathematical comparison of b against a.
_COND_ORACLE = {
    Cond.ALWAYS: lambda b, a: True,
    Cond.LE: lambda b, a: b <= a,
    Cond.L: lambda b, a: b < a,
    Cond.E: lambda b, a: b == a,
    Cond.NE: lambda b, a: b != a,
    Cond.GE: lambda b, a: b >= a,
    Cond.G: lambda b, a: b > a,
}

_BOUNDARY = [0, 1, 2, 0x7FFFFFFE, 0x7FFFFFFF, 0x80000000, 0x80000001,
             0xFFFFFFFE, 0xFFFFFFFF]


def test_eval_cond_trivial():
    # cond_holds takes the raw flag bits (zf, sf, of).
    assert cond_holds(Cond.ALWAYS, 0, 1, 0)
    assert cond_holds(Cond.E, 1, 0, 0)
    assert not cond_holds(Cond.E, 0, 0, 0)


def test_eval_cond_g_with_overflow():
    # Derived via the signed oracle: sf=1 with of=1 means the true result
    # was positive, so "greater" holds.
    assert cond_holds(Cond.G, 0, 1, 1)


def test_eval_cond_against_signed_comparison_oracle():
    rng = random.Random(0xC04D)
    pairs = [(a, b) for a in _BOUNDARY for b in _BOUNDARY]
    pairs += [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(2000)]
    for a, b in pairs:
        _, zf, sf, of = alu_bits(AluFn.SUB, a, b)
        sa, sb = _signed(a), _signed(b)
        for cond, oracle in _COND_ORACLE.items():
            assert cond_holds(cond, zf, sf, of) == oracle(sb, sa), (cond, a, b)


# ---------------------------------------------------------------------------
# ALU

def _alu_oracle(fn, a, b):
    """Wide-arithmetic reference: exact signed result decides overflow."""
    sa, sb = _signed(a), _signed(b)
    if fn == AluFn.ADD:
        wide = sb + sa
    elif fn == AluFn.SUB:
        wide = sb - sa
    elif fn == AluFn.AND:
        wide = None
        r = b & a
    else:
        wide = None
        r = b ^ a
    if wide is None:
        of = 0
    else:
        r = wide & MASK32
        of = 0 if -(1 << 31) <= wide <= (1 << 31) - 1 else 1
    return r, 1 if r == 0 else 0, r >> 31, of


def test_alu_trivial():
    assert alu_bits(AluFn.ADD, 0, 0) == (0, 1, 0, 0)


def test_alu_add_overflow_example():
    # Frozen after computing with the 64-bit oracle below.
    assert _alu_oracle(AluFn.ADD, 1, 0x7FFFFFFF) == (0x80000000, 0, 1, 1)
    assert alu_bits(AluFn.ADD, 1, 0x7FFFFFFF) == (0x80000000, 0, 1, 1)


@given(st.integers(0, MASK32))
def test_alu_xor_self_inverse(x):
    assert alu_bits(AluFn.XOR, x, x) == (0, 1, 0, 0)


@settings(max_examples=200)
@given(st.sampled_from(list(AluFn)), st.integers(0, MASK32), st.integers(0, MASK32))
def test_alu_matches_oracle(fn, a, b):
    assert alu_bits(fn, a, b) == _alu_oracle(fn, a, b)


def test_alu_flag_correctness_bulk():
    # Module invariant: 10^5 random pairs plus boundary values against the
    # wide-arithmetic oracle, for every ALU function.
    rng = random.Random(0xA10)
    values = list(_BOUNDARY)
    pairs = [(a, b) for a in values for b in values]
    pairs += [(rng.getrandbits(32), rng.getrandbits(32)) for _ in range(100_000)]
    for a, b in pairs:
        for fn in AluFn:
            r, zf, sf, of = alu_bits(fn, a, b)
            assert (r, zf, sf, of) == _alu_oracle(fn, a, b)
            if fn is AluFn.ADD:
                sign = lambda x: x >> 31
                expected_of = 1 if (sign(a) == sign(b) and sign(r) != sign(a)) else 0
                assert of == expected_of


# ---------------------------------------------------------------------------
# formatting

def test_format_instruction_examples():
    assert format_instruction(Instruction(Kind.HALT)) == "halt"
    text = format_instruction(Instruction(Kind.IRMOVL, rb=Register.EAX, value=1023))
    assert text == "irmovl $0x3ff, %eax"
    text = format_instruction(
        Instruction(Kind.RMMOVL, ra=Register.EAX, rb=Register.EBX, value=8))
    assert text == "rmmovl %eax, 0x8(%ebx)"
    assert format_instruction(
        Instruction(Kind.JMP, fn=Cond.NE, value=0x50)) == "jne 0x50"
    assert format_instruction(Instruction(
        Kind.RRMOVL, fn=Cond.GE, ra=Register.ECX, rb=Register.EDX)) == "cmovge %ecx, %edx"
    assert format_instruction(Instruction(
        Kind.RRMOVL, ra=Register.ESP, rb=Register.EBP)) == "rrmovl %esp, %ebp"
    assert format_instruction(Instruction(
        Kind.MRMOVL, ra=Register.ESI, rb=Register.EBP, value=0x10)) == "mrmovl 0x10(%ebp), %esi"
    assert format_instruction(Instruction(
        Kind.ALU, fn=AluFn.XOR, ra=Register.EAX, rb=Register.EDI)) == "xorl %eax, %edi"
    assert format_instruction(
        Instruction(Kind.JMP, fn=Cond.ALWAYS, value=0)) == "jmp 0x0"
    assert format_instruction(
        Instruction(Kind.JMP, fn=Cond.LE, value=0x1234)) == "jle 0x1234"
    assert format_instruction(
        Instruction(Kind.CALL, value=0xFFFFFFFF)) == "call 0xffffffff"
    assert format_instruction(Instruction(Kind.PUSHL, ra=Register.EBP)) == "pushl %ebp"
    assert format_instruction(Instruction(Kind.POPL, ra=Register.EDI)) == "popl %edi"
    assert format_instruction(Instruction(Kind.NOP)) == "nop"
    assert format_instruction(Instruction(Kind.RET)) == "ret"

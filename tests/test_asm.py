"""Assembler: parsing, label binding, encoding, image format, disassembly."""

import random

import pytest

from y86sim import asm, isa
from y86sim.asm import Image, Label, MemRef, Pos, SourceInstr
from y86sim.errors import (
    AddressOverflow,
    BackwardPos,
    ParseError,
    UnresolvedLabel,
)
from y86sim.isa import Cond, Instruction, Kind, Register
from y86sim.mem_paged import PagedMemory
from y86sim.mem_sparse import SparseMemory


# ---------------------------------------------------------------------------
# parsing

def test_parse_five_items():
    text = ".pos 80\nmain:\n  irmovl $1023, %eax\nhalt-of-main:\n  halt"
    program = asm.parse(text)
    assert len(program.items) == 5
    assert program.items[0] == Pos(80)
    assert program.items[1] == Label("main")
    assert program.items[2] == SourceInstr("irmovl", (1023, Register.EAX))
    assert program.items[3] == Label("halt-of-main")
    assert program.items[4] == SourceInstr("halt", ())


def test_parse_empty_input():
    assert asm.parse("") == asm.Program(())
    assert asm.parse("# only a comment\n\n") == asm.Program(())


def test_parse_duplicate_label():
    with pytest.raises(ParseError) as err:
        asm.parse("a:\na:\n")
    assert err.value.line == 2


@pytest.mark.parametrize("text", [
    "bogus %eax",
    "irmovl %eax, %ebx",      # first operand must be an immediate
    "irmovl $1",              # missing operand
    "pushl $3",
    "rmmovl %eax, 4(%nope)",
    ".byte 256",
    ".pos",
])
def test_parse_errors_have_line_numbers(text):
    with pytest.raises(ParseError) as err:
        asm.parse(text)
    assert err.value.line == 1


@pytest.mark.parametrize("text, message", [
    (".byte -1", "line 2: .byte value '-1' is not in 0..255"),
    (".byte 0x100", "line 2: .byte value '0x100' is not in 0..255"),
    (".pos -1", "line 2: .pos address '-1' is not in 0..0xffffffff"),
    (".pos 0x100000000",
     "line 2: .pos address '0x100000000' is not in 0..0xffffffff"),
])
def test_byte_and_pos_reject_values_out_of_range(text, message):
    # Unlike an immediate, a .byte or .pos value does not wrap when negative.
    with pytest.raises(ParseError) as err:
        asm.parse("nop\n" + text)
    assert str(err.value) == message
    assert err.value.line == 2


@pytest.mark.parametrize("text, message", [
    (".pos abc", "line 1: malformed number 'abc'"),
    ("mrmovl 8[%ebp], %eax", "line 1: malformed memory operand '8[%ebp]'"),
])
def test_malformed_operands_are_named(text, message):
    with pytest.raises(ParseError) as err:
        asm.parse(text)
    assert str(err.value) == message


def test_byte_and_pos_accept_their_bounds():
    items = asm.parse(".byte 0\n.byte 255\n.pos 0\n.pos 0xffffffff\n"
                      "irmovl $-1, %eax").items
    assert [item.operands for item in items[:2]] == [(0,), (255,)]
    assert items[2:4] == (Pos(0), Pos(0xFFFFFFFF))
    assert items[4].operands == (0xFFFFFFFF, Register.EAX)


def test_parse_operand_forms():
    program = asm.parse(
        "mrmovl 8(%ebp), %eax\n"
        "rmmovl %ecx, (%esp)\n"
        "mrmovl tbl(%ebx), %edx\n"
        "cmovg %esi, %edi\n"
        "jne loop\n"
        ".byte 0xFF\n")
    items = program.items
    assert items[0].operands == (MemRef(8, Register.EBP), Register.EAX)
    assert items[1].operands == (Register.ECX, MemRef(0, Register.ESP))
    assert items[2].operands == (MemRef("tbl", Register.EBX), Register.EDX)
    assert items[3].operands == (Register.ESI, Register.EDI)
    assert items[4].operands == ("loop",)
    assert items[5].operands == (0xFF,)


def test_parse_label_followed_by_instruction_on_one_line():
    program = asm.parse("start: nop")
    assert program.items == (Label("start"), SourceInstr("nop", ()))


# ---------------------------------------------------------------------------
# assembly

def test_assemble_simple_program(simple_assembled):
    image, symbols = simple_assembled
    assert symbols == {
        "main": 80,
        "halt-of-main": 86,
        "end-of-code": 87,
        "stack": 8192,
    }
    # irmovl $1023, %eax followed by halt, starting at 80.
    assert list(image) == [
        (80, 0x30), (81, 0xF0), (82, 0xFF), (83, 0x03), (84, 0x00),
        (85, 0x00), (86, 0x00),
    ]


def test_forward_reference_resolution():
    image, symbols = asm.assemble(asm.parse(
        "jmp end\n"
        "nop\n"
        "end:\n"
        "halt\n"))
    assert symbols["end"] == 6  # jmp is 5 bytes, nop 1
    _, dest_bytes = list(image)[0], [b for _, b in list(image)[1:5]]
    assert int.from_bytes(bytes(dest_bytes), "little") == 6


def test_symbols_match_length_sum_oracle():
    # Independent oracle: instruction sizes summed by a table the assembler
    # does not use.
    sizes = {
        "halt": 1, "nop": 1, "ret": 1,
        "rrmovl": 2, "cmovle": 2, "cmovl": 2, "cmove": 2, "cmovne": 2,
        "cmovge": 2, "cmovg": 2,
        "addl": 2, "subl": 2, "andl": 2, "xorl": 2,
        "pushl": 2, "popl": 2,
        "jmp": 5, "jle": 5, "jl": 5, "je": 5, "jne": 5, "jge": 5, "jg": 5,
        "call": 5,
        "irmovl": 6, "rmmovl": 6, "mrmovl": 6,
        ".byte": 1,
    }
    two_reg = {"rrmovl", "cmovle", "cmovl", "cmove", "cmovne", "cmovge",
               "cmovg", "addl", "subl", "andl", "xorl"}
    one_reg = {"pushl", "popl"}
    rng = random.Random(0xA5E)
    for _ in range(1000):
        lines = []
        expected = {}
        lc = 0
        n_labels = 0
        for _ in range(rng.randrange(1, 25)):
            roll = rng.random()
            if roll < 0.2:
                name = f"lab{n_labels}"
                n_labels += 1
                expected[name] = lc
                lines.append(f"{name}:")
            elif roll < 0.3:
                lc += rng.randrange(0, 64)  # forward only
                lines.append(f".pos {lc}")
            else:
                mnemonic = rng.choice(list(sizes))
                if mnemonic == ".byte":
                    lines.append(".byte 7")
                elif mnemonic in two_reg:
                    lines.append(f"{mnemonic} %eax, %ecx")
                elif mnemonic in one_reg:
                    lines.append(f"{mnemonic} %eax")
                elif mnemonic == "irmovl":
                    lines.append("irmovl $5, %ecx")
                elif mnemonic == "rmmovl":
                    lines.append("rmmovl %eax, 4(%ebx)")
                elif mnemonic == "mrmovl":
                    lines.append("mrmovl 4(%ebx), %eax")
                elif mnemonic in ("jmp", "jle", "jl", "je", "jne", "jge",
                                  "jg", "call"):
                    lines.append(f"{mnemonic} 0")
                else:
                    lines.append(mnemonic)
                lc += sizes[mnemonic]
        _, symbols = asm.assemble(asm.parse("\n".join(lines)))
        assert symbols == expected


def test_single_instruction_images_match_encoder():
    cases = {
        "halt": Instruction(Kind.HALT),
        "irmovl $9, %esi": Instruction(Kind.IRMOVL, rb=Register.ESI, value=9),
        "addl %ecx, %edx": Instruction(
            Kind.ALU, fn=isa.AluFn.ADD, ra=Register.ECX, rb=Register.EDX),
        "jge 0x40": Instruction(Kind.JMP, fn=Cond.GE, value=0x40),
        "pushl %ebp": Instruction(Kind.PUSHL, ra=Register.EBP),
    }
    for text, instr in cases.items():
        image, _ = asm.assemble(asm.parse(text))
        assert bytes(b for _, b in image) == isa.encode(instr)


def test_labels_and_pos_only():
    image, symbols = asm.assemble(asm.parse(".pos 64\na:\nb:\n.pos 128\nc:\n"))
    assert len(image) == 0
    assert symbols == {"a": 64, "b": 64, "c": 128}


def test_unresolved_label():
    with pytest.raises(UnresolvedLabel):
        asm.assemble(asm.parse("jmp nowhere\n"))


def test_backward_pos_over_emitted_bytes():
    with pytest.raises(BackwardPos):
        asm.assemble(asm.parse(".pos 10\nnop\nnop\n.pos 11\nhalt\n"))
    # Backwards over empty space is allowed.
    image, _ = asm.assemble(asm.parse(".pos 100\na:\n.pos 50\nhalt\n"))
    assert list(image) == [(50, 0x00)]
    # So is moving back into a gap above the emitted bytes ...
    image, _ = asm.assemble(asm.parse(
        ".pos 100\nnop\n.pos 300\n.pos 150\nnop\n"))
    assert list(image) == [(100, 0x10), (150, 0x10)]
    # ... but not below their end, even with nothing emitted since.
    with pytest.raises(BackwardPos) as info:
        asm.assemble(asm.parse(".pos 100\nnop\n.pos 300\nnop\n.pos 200\n"))
    assert str(info.value) == "line 5: .pos 0xc8 moves back over emitted bytes"


def test_overlapping_emission_detected():
    text = ".pos 100\nnop\nnop\n.pos 10\n" + "\n".join(["nop"] * 95)
    with pytest.raises(BackwardPos):
        asm.assemble(asm.parse(text))


def test_address_overflow():
    with pytest.raises(AddressOverflow):
        asm.assemble(asm.parse(f".pos {2**32 - 3}\nirmovl $1, %eax\n"))


def test_label_past_the_address_space_used_as_constant():
    # jmp fills the last five bytes, so `end` is bound at 2**32.
    source = ".pos 0xfffffffb\njmp end\nend:\n"
    with pytest.raises(AddressOverflow) as info:
        asm.assemble(asm.parse(source))
    assert "line 2" in str(info.value) and "'end'" in str(info.value)
    # The same label, bound but never used, is legal.
    image, symbols = asm.assemble(asm.parse(".pos 0xfffffffb\njmp 0\nend:\n"))
    assert symbols["end"] == 2**32 and len(image) == 5


# ---------------------------------------------------------------------------
# image format and loading

def test_image_validation():
    with pytest.raises(ValueError):
        Image([(5, 1), (5, 2)])
    with pytest.raises(ValueError):
        Image([(1 << 32, 0)])
    with pytest.raises(ValueError):
        Image([(0, 300)])


def test_image_text_round_trip(simple_assembled):
    image, symbols = simple_assembled
    text = image.to_text(symbols)
    assert "0x00000050: 30" in text
    assert "# symbol main 0x00000050" in text
    image2, symbols2 = Image.from_text(text)
    assert image2 == image
    assert symbols2 == symbols


def test_image_text_skips_blank_and_comment_lines_and_compares_with_any_type():
    image, symbols = Image.from_text(
        "# not a symbol line\n\n  \n0x00000004: 10\n# symbol end 0x00000005\n")
    assert (image, symbols) == (Image([(4, 0x10)]), {"end": 5})
    assert repr(image) == "Image(1 bytes)"
    assert image != [(4, 0x10)] and not image == "0x00000004: 10"


def test_image_load_into_both_backends(simple_assembled):
    image, _ = simple_assembled
    paged = image.load(PagedMemory())
    sparse = image.load(SparseMemory())
    for addr, byte in image:
        assert paged.read(addr) == byte
        assert sparse.read(addr) == byte
    # Untouched addresses agree as well.
    for addr in (0, 79, 87, 8192):
        assert paged.read(addr) == sparse.read(addr) == 0


def test_image_load_into_sparse_copies_no_map(counted_sparse):
    image = Image([(a, a % 255 + 1) for a in range(1200)])
    assert image.load(SparseMemory()) == SparseMemory(dict(image))
    # Loading into a large memory reads none of it whole, and the memory
    # it was given keeps its bytes, the byte it already held included.
    held = {0x5000 + a: 9 for a in range(5000)}
    base, data = counted_sparse(held)
    image = Image([(0x5000, 9), (0x5001, 0), (0x5002, 4), (0x9000, 5)])
    loaded = image.load(base)
    assert data.scans == 0
    assert loaded == SparseMemory({**held, 0x5001: 0, 0x5002: 4, 0x9000: 5})
    assert base == SparseMemory(held)


# ---------------------------------------------------------------------------
# disassembly

def test_disassemble_round_trip(simple_assembled):
    image, _ = simple_assembled
    text = asm.disassemble(image)
    reimage, _ = asm.assemble(asm.parse(text))
    assert reimage == image


def test_disassemble_corpus_round_trip(popcount_assembled, stress_assembled):
    for image, _ in (popcount_assembled, stress_assembled):
        reimage, _ = asm.assemble(asm.parse(asm.disassemble(image)))
        assert reimage == image


def test_disassemble_junk_bytes():
    image = Image([(0, 0xC0), (1, 0xFF), (2, 0x10)])
    text = asm.disassemble(image)
    assert ".byte 0xc0" in text
    assert ".byte 0xff" in text
    assert "nop" in text
    reimage, _ = asm.assemble(asm.parse(text))
    assert reimage == image


def test_disassemble_gap_emits_pos():
    image = Image([(0, 0x10), (100, 0x00)])
    text = asm.disassemble(image)
    assert ".pos 0x0" in text
    assert ".pos 0x64" in text


# ---------------------------------------------------------------------------
# corpus sanity

def test_popcount_symbols(popcount_assembled):
    _, symbols = popcount_assembled
    assert symbols["call-popcount"] == 0
    assert "halt-of-main" in symbols
    assert symbols["stack"] == 8192


def test_stress_assembles(stress_assembled):
    image, symbols = stress_assembled
    assert symbols["main"] == 0
    assert len(image) > 50

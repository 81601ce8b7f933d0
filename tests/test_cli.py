"""CLI surface: exit codes, output anchors, determinism."""

import hashlib
import json
from pathlib import Path

import pytest

from y86sim.cli import bundled_program, main, verify_popcount
from y86sim.isa import AluFn, alu_bits
from y86sim.lockstep import (
    DemoCases,
    check_obligations,
    const_spec,
    demo_spec,
)
from y86sim.machine import Machine
from y86sim.mem_paged import PagedMemory

from conftest import StrayPaged


@pytest.fixture()
def simple_yim(tmp_path):
    source = tmp_path / "simple.ys"
    source.write_text(bundled_program("simple.ys"))
    out = tmp_path / "simple.yim"
    assert main(["asm", str(source), "-o", str(out)]) == 0
    return out


def test_asm_writes_image_with_symbols(simple_yim):
    text = simple_yim.read_text()
    assert "0x00000050: 30" in text
    assert "# symbol main 0x00000050" in text
    assert "# symbol stack 0x00002000" in text


def test_asm_bad_source(tmp_path, capsys):
    bad = tmp_path / "bad.ys"
    bad.write_text("bogus operand\n")
    assert main(["asm", str(bad)]) == 1
    assert "line 1" in capsys.readouterr().err


def test_asm_label_past_the_address_space_is_one_line(tmp_path, capsys):
    bad = tmp_path / "end.ys"
    bad.write_text(".pos 0xfffffffb\njmp end\nend:\n")
    assert main(["asm", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "line 2" in err and "'end'" in err


def test_asm_empty_source(tmp_path):
    empty = tmp_path / "empty.ys"
    empty.write_text("")
    assert main(["asm", str(empty)]) == 0
    assert (tmp_path / "empty.yim").read_text() == "\n"


@pytest.mark.parametrize("backend", ["paged", "sparse"])
def test_run_simple(simple_yim, capsys, backend):
    code = main(["run", str(simple_yim), "--backend", backend])
    out = capsys.readouterr().out
    assert code == 0
    assert "status=HLT" in out
    assert "eip=0x56" in out
    assert "eax=0x3ff" in out


def test_run_zero_steps_is_failure(simple_yim, capsys):
    assert main(["run", str(simple_yim), "--steps", "0"]) == 1
    assert "status=AOK" in capsys.readouterr().out


def test_run_lockstep_reports_correspondence(simple_yim, capsys):
    code = main(["run", str(simple_yim), "--backend", "lockstep"])
    out = capsys.readouterr().out
    assert code == 0
    assert "correspondence verified at 2 steps" in out
    assert "eax=0x3ff" in out


def test_run_lockstep_trace_runs_the_program_once(tmp_path, capsys,
                                                 monkeypatch):
    source = tmp_path / "stress.ys"
    source.write_text(bundled_program("stress.ys"))
    image = tmp_path / "stress.yim"
    assert main(["asm", str(source), "-o", str(image)]) == 0
    capsys.readouterr()
    assert main(["run", str(image), "--backend", "sparse", "--trace"]) == 0
    sparse_lines = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("step=")]
    calls = 0
    step = Machine.step

    def counted_step(machine):
        nonlocal calls
        calls += 1
        return step(machine)

    monkeypatch.setattr(Machine, "step", counted_step)
    assert main(["run", str(image), "--backend", "lockstep", "--trace"]) == 0
    out = capsys.readouterr().out
    assert "correspondence verified at 22 steps" in out
    # One step per side per step: no third machine replays the program.
    assert calls == 2 * 22
    assert [line for line in out.splitlines()
            if line.startswith("step=")] == sparse_lines
    assert len(sparse_lines) == 22


def test_run_lockstep_divergence_is_one_error_line(tmp_path, capsys,
                                                   monkeypatch):
    source = tmp_path / "stress.ys"
    source.write_text(bundled_program("stress.ys"))
    image = tmp_path / "stress.yim"
    assert main(["asm", str(source), "-o", str(image)]) == 0
    capsys.readouterr()
    writes = 0
    write = PagedMemory.write

    def flip_bit_after_load(self, addr, value):
        # The first 127 writes load the image; every later one is flipped.
        nonlocal writes
        writes += 1
        return write(self, addr, value ^ 1 if writes > 127 else value)

    monkeypatch.setattr(PagedMemory, "write", flip_bit_after_load)
    assert main(["run", str(image), "--backend", "lockstep"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith("error: lockstep diverged at step 3: memory at "
                          "0x1000010 is 0xee concrete vs 0xef abstract; ")


# The store at step 3 strays to 0x1000, below every stray of the image.
UPPER_HALF_STORE = (
    "main:\n"
    "  irmovl $0x5a, %eax\n"
    "  irmovl $0x801000, %ebx\n"
    "  rmmovl %eax, 0(%ebx)\n"
    "  halt\n")


def test_run_lockstep_names_the_step_of_a_stray_byte(tmp_path, capsys,
                                                     monkeypatch):
    source = tmp_path / "upper.ys"
    source.write_text(UPPER_HALF_STORE)
    image = tmp_path / "upper.yim"
    assert main(["asm", str(source), "-o", str(image)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("y86sim.cli.PagedMemory", StrayPaged)
    assert main(["run", str(image), "--backend", "lockstep"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "error: lockstep diverged in the final sweep after step 4: "
        "memory at 0x1000 is 0x5a concrete vs 0x00 abstract; eips of "
        "the last 4 steps: 0x0 0x6 0xc 0x12",
        "replay: memory at 0x1000 first differs after step 3, "
        "rmmovl %eax, 0x0(%ebx) at 0xc"]


def test_run_lockstep_replay_says_when_no_step_made_the_difference(
        tmp_path, capsys, monkeypatch):
    # The image's first byte strays to 0x800000 as it loads, before step 1.
    source = tmp_path / "simple.ys"
    source.write_text(bundled_program("simple.ys"))
    image = tmp_path / "simple.yim"
    assert main(["asm", str(source), "-o", str(image)]) == 0
    capsys.readouterr()
    monkeypatch.setattr("y86sim.cli.PagedMemory", StrayPaged)
    assert main(["run", str(image), "--backend", "lockstep"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    assert "in the final sweep after step 2: memory at 0x80" in err[0]
    assert err[1].startswith("replay: no step made memory at 0x80")
    assert err[1].endswith(" differ; it differs from the start")


def test_run_takes_no_seed(simple_yim, capsys, monkeypatch):
    # Nothing in `run` draws a random number, so it has no --seed and does
    # not read the seed variable.
    with pytest.raises(SystemExit) as info:
        main(["run", str(simple_yim), "--backend", "lockstep", "--seed", "5"])
    assert info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    monkeypatch.setenv("Y86_LOCKSTEP_SEED", "abc")
    for backend in ("paged", "lockstep"):
        assert main(["run", str(simple_yim), "--backend", backend]) == 0
    assert "status=HLT" in capsys.readouterr().out


def test_run_trace(simple_yim, capsys):
    main(["run", str(simple_yim), "--trace"])
    out = capsys.readouterr().out
    assert "step=1 eip=0x00000050 instr=irmovl $0x3ff, %eax" in out
    assert "step=2" in out and "instr=halt" in out


def test_run_numeric_entry(simple_yim, capsys):
    # Entering at the halt directly: one step, still a clean halt.
    assert main(["run", str(simple_yim), "--entry", "86"]) == 0
    assert "steps=1" in capsys.readouterr().out


def test_run_entry_label(simple_yim, capsys):
    assert main(["run", str(simple_yim), "--entry", "halt-of-main"]) == 0
    assert "status=HLT steps=1 eip=0x56" in capsys.readouterr().out


def test_run_without_main_starts_at_lowest_address(tmp_path, capsys):
    source = tmp_path / "nomain.ys"
    source.write_text(".pos 0x40\nirmovl $5, %eax\nhalt\n")
    assert main(["asm", str(source)]) == 0
    assert main(["run", str(tmp_path / "nomain.yim")]) == 0
    out = capsys.readouterr().out
    assert "status=HLT steps=2 eip=0x46" in out and "eax=0x5" in out


def test_run_unknown_entry(simple_yim, capsys):
    assert main(["run", str(simple_yim), "--entry", "nowhere"]) == 1
    assert "nowhere" in capsys.readouterr().err


@pytest.mark.parametrize("option", [["--entry", "0x100000000"],
                                    ["--entry", "-1"],
                                    ["--esp", "-4"]])
def test_run_rejects_out_of_range_address(simple_yim, capsys, option):
    assert main(["run", str(simple_yim), *option]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1


def assert_one_error_line(capsys):
    """Assert that stderr is one `error:` line; returns stdout."""
    out, err = capsys.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1, err
    return out


@pytest.mark.parametrize("content", [b"0x100000000: 00\n",
                                     b"0x00000010: 10\n0x00000010: 00\n",
                                     b"\xff\xfe0x0: 00\n",
                                     b"0x10: zz\n"],
                         ids=["address-past-32-bits", "duplicate-address",
                              "not-utf8", "malformed-line"])
def test_run_bad_image_file_is_one_error_line(tmp_path, capsys, content):
    image = tmp_path / "bad.yim"
    image.write_bytes(content)
    assert main(["run", str(image)]) == 1
    assert_one_error_line(capsys)


def test_asm_non_utf8_source_is_one_error_line(tmp_path, capsys):
    source = tmp_path / "bad.ys"
    source.write_bytes(b"main:\n  halt # \xff\n")
    assert main(["asm", str(source)]) == 1
    assert_one_error_line(capsys)


def test_asm_unwritable_output_is_one_error_line(tmp_path, capsys):
    source = tmp_path / "simple.ys"
    source.write_text(bundled_program("simple.ys"))
    out = tmp_path / "missing" / "simple.yim"
    assert main(["asm", str(source), "-o", str(out)]) == 1
    assert_one_error_line(capsys)


def test_check_unwritable_report_is_one_error_line(tmp_path, capsys):
    report = tmp_path / "missing" / "report.jsonl"
    assert main(["check", "demo-st", "--cases", "10",
                 "--report", str(report)]) == 1
    # The path is opened before the suite runs: no report is printed.
    assert assert_one_error_line(capsys) == ""


@pytest.mark.parametrize("argv", [["check", "demo-st", "--cases", "-5"],
                                  ["popcount", "--samples", "-3"],
                                  ["run", "unused.yim", "--steps", "-1"]])
def test_negative_counts_are_rejected(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "not a natural number" in capsys.readouterr().err


def test_check_obligations_rejects_negative_case_count():
    spec = demo_spec()
    for bad in (-1, True, 1.0):
        with pytest.raises(ValueError, match="natural number"):
            check_obligations(spec, DemoCases(spec), bad)


def test_check_demo_st(capsys, tmp_path):
    report = tmp_path / "report.jsonl"
    code = main(["check", "demo-st", "--cases", "300", "--seed", "9",
                 "--report", str(report)])
    out = capsys.readouterr().out
    assert code == 0
    assert "total failures: 0" in out
    records = [json.loads(line) for line in report.read_text().splitlines()]
    assert all(r["failures"] == 0 for r in records)
    assert any(r["obligation"] == "update{CORRESPONDENCE}" for r in records)


def test_check_y86(capsys):
    assert main(["check", "y86", "--cases", "60", "--seed", "3"]) == 0
    assert "total failures: 0" in capsys.readouterr().out


def test_check_const_stobj(capsys):
    assert main(["check", "const-stobj"]) == 0
    out = capsys.readouterr().out
    assert "unprotected-double-update: 1 cases, ok" in out
    assert "protected-abort-poisons: 1 cases, ok" in out
    assert "unsound-demo: 1 cases, ok" in out


@pytest.mark.parametrize("misbehaviour, failed", [
    # Every export is protected, so an unprotected double update passes.
    (lambda protect=True, fault=None: const_spec(True, fault),
     "  unprotected-double-update: 1 cases, 1 FAILED\n"
     "    case 0 seed=0 args=(): no AtomicityViolation\n"),
    # The armed abort never fires, so nothing poisons the state.
    (lambda protect=True, fault=None: const_spec(protect),
     "  protected-abort-poisons: 1 cases, 1 FAILED\n"
     "    case 0 seed=0 args=(): fault did not propagate\n"),
], ids=["double-update-admitted", "abort-not-raised"])
def test_check_const_stobj_reports_a_protocol_that_misbehaves(
        monkeypatch, capsys, misbehaviour, failed):
    monkeypatch.setattr("y86sim.cli.const_spec", misbehaviour)
    assert main(["check", "const-stobj"]) == 1
    out = capsys.readouterr().out
    assert failed in out and out.endswith("total failures: 1\n"), out


def test_check_determinism(capsys, monkeypatch):
    main(["check", "demo-st", "--cases", "200", "--seed", "4"])
    first = capsys.readouterr().out
    main(["check", "demo-st", "--cases", "200", "--seed", "4"])
    assert capsys.readouterr().out == first
    # Seed fallback through the environment changes nothing else.
    monkeypatch.setenv("Y86_LOCKSTEP_SEED", "4")
    main(["check", "demo-st", "--cases", "200"])
    assert capsys.readouterr().out == first


def test_popcount_cli(capsys):
    assert main(["popcount", "--width", "4", "--samples", "10"]) == 0
    assert "0 mismatches" in capsys.readouterr().out


@pytest.mark.parametrize("width", ["33", "-1"])
def test_popcount_width_out_of_range_is_a_usage_error(capsys, width):
    assert main(["popcount", "--width", width]) == 2
    assert capsys.readouterr() == ("", "error: width must be in 0..32\n")


def test_verify_popcount_counts():
    cases, mismatches = verify_popcount(width=4, samples=5, seed=1)
    assert cases == 16 + 5
    assert mismatches == 0


@pytest.mark.parametrize("samples", [-1, 1.5, True])
def test_verify_popcount_refuses_a_sample_count_that_is_not_natural(samples):
    # Without the check, -1 ran no random input, True one, and 1.5 raised
    # TypeError from `range`.
    with pytest.raises(ValueError, match="^samples must be a natural number$"):
        verify_popcount(2, samples, 0)


def test_popcount_verification_can_fail(monkeypatch, capsys):
    def add_off_by_one(fn, a, b):
        r, zf, sf, of = alu_bits(fn, a, b)
        return (r + 1 if fn == AluFn.ADD else r), zf, sf, of

    monkeypatch.setattr("y86sim.machine.alu_bits", add_off_by_one)
    assert verify_popcount(4, 0, 0) == (16, 16)
    assert main(["popcount", "--width", "4", "--samples", "0"]) == 1
    assert "16 mismatches" in capsys.readouterr().out


def test_bench_command_is_gone():
    with pytest.raises(SystemExit) as info:
        main(["bench"])
    assert info.value.code == 2


def test_protect_debug_option_is_gone():
    with pytest.raises(SystemExit) as info:
        main(["check", "const-stobj", "--protect-debug"])
    assert info.value.code == 2


def test_bad_seed_variable_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("Y86_LOCKSTEP_SEED", "abc")
    with pytest.raises(SystemExit) as info:
        main(["popcount", "--width", "2", "--samples", "1"])
    assert info.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err
    # An explicit --seed never reads the variable; asm has no --seed.
    assert main(["popcount", "--width", "2", "--samples", "1",
                 "--seed", "3"]) == 0
    source = tmp_path / "simple.ys"
    source.write_text(bundled_program("simple.ys"))
    assert main(["asm", str(source)]) == 0


# sha256 of each command's stdout followed by its report file (R), first 16
# hex digits.  A change that means to alter one of these outputs updates
# its digest and says so.
PINNED_OUTPUTS = {
    "check y86 --cases 300 --seed 7 --report R": "20cff6d341377812",
    "check demo-st --cases 600 --seed 3 --report R": "ec98949876e5bd9d",
    "check const-stobj --report R": "8e2969034b94dd5b",
    "run stress.yim --backend sparse --trace": "69531d62d43bb9b6",
    "run stress.yim --backend lockstep --trace": "b91eef22e02c79bb",
    "popcount --width 4 --samples 5 --seed 1": "1a3a1ab8fbf601ef",
}


def test_cli_outputs_are_pinned(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("Y86_LOCKSTEP_SEED", raising=False)
    Path("stress.ys").write_text(bundled_program("stress.ys"))
    assert main(["asm", "stress.ys"]) == 0
    capsys.readouterr()
    digests = {}
    for command in PINNED_OUTPUTS:
        assert main(command.split()) == 0, command
        output = capsys.readouterr().out.encode()
        if command.endswith("--report R"):
            output += Path("R").read_bytes()
        digests[command] = hashlib.sha256(output).hexdigest()[:16]
    assert digests == PINNED_OUTPUTS

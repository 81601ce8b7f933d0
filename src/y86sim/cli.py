"""Command-line driver: assemble, run, obligation checks and popcount
verification.

Exit codes are a function of results only; with the same seed, reports
are byte-identical across runs.  The seed falls back to the
Y86_LOCKSTEP_SEED environment variable; a value that is not an integer
is a usage error (exit 2) for the commands that take `--seed`.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import random
import re
import sys
from importlib import resources
from pathlib import Path

from . import asm
from .errors import (
    AtomicityViolation,
    CorrespondenceFailure,
    InjectedFault,
    PoisonedState,
    Y86Error,
)
from .isa import REGISTER_NAMES, Status, format_instruction, is_nat, is_word
from .lockstep import (
    DemoCases,
    DualState,
    FailureRecord,
    ObligationOutcome,
    ObligationReport,
    Y86Cases,
    check_obligations,
    const_spec,
    demo_spec,
    raise_injected_fault,
    unsound_const_demo,
    y86_spec,
)
from .machine import Machine, run_in_lockstep
from .mem_paged import PagedMemory
from .mem_sparse import SparseMemory

DEFAULT_STEPS = 300
DEFAULT_ESP = 8192
EAX, EDX = 0, 2
# The address a memory difference found by a lockstep final sweep names.
_SWEPT_ADDRESS = re.compile(
    r"in the final sweep after step \d+: memory at (0x[0-9a-f]+) ")


def bundled_program(name: str) -> str:
    return resources.files(__package__).joinpath("programs", name).read_text()


def natural(text: str) -> int:
    """argparse type for counts: a decimal integer that is not negative."""
    value = int(text)
    if not is_nat(value):
        raise argparse.ArgumentTypeError(f"{text} is not a natural number")
    return value


# ---------------------------------------------------------------------------
# asm

def cmd_asm(source_path: str, out_path: str | None = None) -> int:
    try:
        text = Path(source_path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        image, symbols = asm.assemble(asm.parse(text))
    except Y86Error as exc:
        print(f"{source_path}: {exc}", file=sys.stderr)
        return 1
    if out_path is None:
        root = source_path[:-3] if source_path.endswith(".ys") else source_path
        out_path = root + ".yim"
    try:
        asm.save_image(out_path, image, symbols)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"{out_path}: {len(image)} bytes, {len(symbols)} symbols")
    return 0


# ---------------------------------------------------------------------------
# run

def _resolve_entry(entry: str | None, symbols: dict[str, int],
                   image: asm.Image) -> int:
    if entry is None:
        if "main" in symbols:
            return symbols["main"]
        pairs = list(image)
        return pairs[0][0] if pairs else 0
    if entry in symbols:
        return symbols[entry]
    try:
        return int(entry, 0)
    except ValueError:
        raise Y86Error(f"entry {entry!r} is neither a symbol nor an address")


def _print_final(machine: Machine, steps: int) -> None:
    print(f"status={machine.status.value} steps={steps} "
          f"eip={machine.eip:#x}")
    print(" ".join(f"{name}={value:#x}"
                   for name, value in zip(REGISTER_NAMES, machine.regs)))


def _replay(image: asm.Image, eip: int, esp: int, steps: int,
            addr: int) -> str:
    """Run a paged and a sparse machine from `image` again, as a lockstep
    run does, reading `addr` on both after each step; returns the line
    naming the first step after which the two differ there."""
    concrete = Machine(PagedMemory(), eip=eip, esp=esp, image=image)
    abstract = Machine(SparseMemory(), eip=eip, esp=esp, image=image)
    where = f"memory at {addr:#x}"
    if concrete.read_byte(addr) != abstract.read_byte(addr):
        return (f"replay: no step made {where} differ; it differs from the "
                f"start")
    for k in range(1, steps + 1):
        if abstract.status is not Status.AOK:
            break
        eip0 = abstract.eip
        instr = abstract.step()
        concrete.step()
        if concrete.read_byte(addr) != abstract.read_byte(addr):
            text = "(invalid)" if instr is None else format_instruction(instr)
            return (f"replay: {where} first differs after step {k}, "
                    f"{text} at {eip0:#x}")
    return f"replay: no step made {where} differ"


def cmd_run(image_path: str, backend: str, steps: int, entry: str | None,
            esp: int, trace: bool) -> int:
    try:
        image, symbols = asm.load_image(image_path)
        eip = _resolve_entry(entry, symbols, image)
    except (OSError, Y86Error) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, value in (("entry", eip), ("esp", esp)):
        if not is_word(value):
            print(f"error: {name} {value:#x} is not a 32-bit address",
                  file=sys.stderr)
            return 2
    trace = print if trace else None
    if backend == "lockstep":
        machine = Machine(PagedMemory(), eip=eip, esp=esp, image=image)
        abstract = Machine(SparseMemory(), eip=eip, esp=esp, image=image)
        try:
            report = run_in_lockstep(machine, abstract, steps, trace=trace)
        except CorrespondenceFailure as exc:
            # A divergence is a result of the run, like not halting.  When
            # the final sweep names an address, a replay names the step.
            print(f"error: {exc}", file=sys.stderr)
            swept = _SWEPT_ADDRESS.search(str(exc))
            if swept:
                print(_replay(image, eip, esp, steps, int(swept[1], 16)),
                      file=sys.stderr)
            return 1
        _print_final(machine, report.steps)
        print(f"correspondence verified at {report.steps} steps, "
              f"{report.addresses_checked} addresses compared")
    else:
        memory = {"paged": PagedMemory, "sparse": SparseMemory}[backend]
        machine = Machine(memory(), eip=eip, esp=esp, image=image)
        _print_final(machine, machine.run(steps, trace=trace))
    return 0 if machine.status is Status.HLT else 1


# ---------------------------------------------------------------------------
# obligation checking

def _const_scenarios() -> ObligationReport:
    """Scripted protocol behaviors for the abort fixture; each scenario is
    an expected-failure check that passes when the protocol reacts as
    specified."""
    outcomes = []

    def record(name: str, ok: bool, message: str):
        outcome = ObligationOutcome(name, 1)
        if not ok:
            outcome.failures.append(FailureRecord(name, 0, 0, "()", message))
        outcomes.append(outcome)

    # 1. Unprotected completion of a double update is rejected by name.
    dual = DualState(const_spec(protect=False))
    try:
        dual.invoke("change-fld")
        record("unprotected-double-update", False, "no AtomicityViolation")
    except AtomicityViolation as exc:
        record("unprotected-double-update", "change-fld" in str(exc),
               f"violation does not name the export: {exc}")

    # 2. Protected abort poisons the state; the next invoke fails.
    dual = DualState(const_spec(protect=True, fault=raise_injected_fault))
    try:
        dual.invoke("change-fld")
        record("protected-abort-poisons", False, "fault did not propagate")
    except InjectedFault:
        if not dual.poisoned:
            record("protected-abort-poisons", False, "state not poisoned")
        else:
            try:
                dual.invoke("get-fld")
                record("protected-abort-poisons", False,
                       "poisoned state accepted an invoke")
            except PoisonedState:
                record("protected-abort-poisons", True, "")

    # 3. Quarantined demonstration of the unsoundness the protocol prevents.
    dual = unsound_const_demo()
    try:
        dual.invoke("change-fld")
        record("unsound-demo", False, "fault did not propagate")
    except InjectedFault:
        observed = dual.invoke("get-fld")
        record("unsound-demo", observed == 1,
               f"expected stale value 1, observed {observed!r}")

    return ObligationReport("const-stobj", 0, outcomes)


def _run_suite(target: str, n_cases: int, seed: int) -> ObligationReport:
    if target == "demo-st":
        spec = demo_spec()
        return check_obligations(spec, DemoCases(spec), n_cases, seed)
    if target == "y86":
        return check_obligations(y86_spec(), Y86Cases(), n_cases, seed)
    return _const_scenarios()


def cmd_check(target: str, n_cases: int, seed: int,
              report_path: str | None = None) -> int:
    # The report file is opened before the suite runs, so an unwritable
    # path costs no cases.
    try:
        with (open(report_path, "w", encoding="utf-8") if report_path
              else contextlib.nullcontext()) as records:
            report = _run_suite(target, n_cases, seed)
            sys.stdout.write(report.to_text())
            if records:
                records.write(report.to_jsonl())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# popcount verification

def verify_popcount(width: int, samples: int, seed: int) -> tuple[int, int]:
    """Run the bundled popcount program exhaustively for n < 2^width plus
    `samples` random 32-bit inputs; returns (cases, mismatches) against
    the host bit-count oracle."""
    if not is_nat(width, 33):
        raise ValueError("width must be in 0..32")
    if not is_nat(samples):
        raise ValueError("samples must be a natural number")
    image, symbols = asm.assemble(asm.parse(bundled_program("popcount.ys")))
    base = image.load(SparseMemory())
    entry = symbols["call-popcount"]
    halt_addr = symbols["halt-of-main"]
    rng = random.Random(seed)
    machine = Machine(SparseMemory())
    cases = 0
    mismatches = 0

    def run_one(n: int) -> None:
        nonlocal cases, mismatches
        machine.reload(base, eip=entry, esp=DEFAULT_ESP, keep_icache=True)
        machine.regs[EDX] = n
        machine.run(DEFAULT_STEPS)
        cases += 1
        if not (machine.status is Status.HLT
                and machine.eip == halt_addr
                and machine.regs[EAX] == bin(n).count("1")):
            mismatches += 1

    for n in range(1 << width):
        run_one(n)
    for _ in range(samples):
        run_one(rng.getrandbits(32))
    return cases, mismatches


def cmd_popcount(width: int, samples: int, seed: int) -> int:
    try:
        cases, mismatches = verify_popcount(width, samples, seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"popcount: {cases} inputs (exhaustive width {width} + "
          f"{samples} random), {mismatches} mismatches")
    return 0 if mismatches == 0 else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="y86sim",
        description="Y86 simulator: assembler, dual-backend runner, "
                    "lockstep verification harness")
    sub = parser.add_subparsers(dest="command", required=True)
    # argparse runs a string default through `type`, so a bad value is a
    # usage error, and only where --seed exists and is not given.
    seed = os.environ.get("Y86_LOCKSTEP_SEED", "0")

    p = sub.add_parser("asm", help="assemble a .ys source into a .yim image")
    p.add_argument("source")
    p.add_argument("-o", "--output", default=None)

    p = sub.add_parser("run", help="load a .yim image and run it")
    p.add_argument("image")
    p.add_argument("--backend", choices=("paged", "sparse", "lockstep"),
                   default="paged")
    p.add_argument("--steps", type=natural, default=DEFAULT_STEPS)
    p.add_argument("--entry", default=None,
                   help="entry label or numeric address (default: 'main' "
                        "or the lowest image address)")
    p.add_argument("--esp", type=lambda s: int(s, 0), default=DEFAULT_ESP)
    p.add_argument("--trace", action="store_true")

    p = sub.add_parser("check", help="run the obligation suites")
    p.add_argument("target", choices=("demo-st", "const-stobj", "y86"))
    p.add_argument("--cases", type=natural, default=10_000)
    p.add_argument("--seed", type=int, default=seed)
    p.add_argument("--report", default=None,
                   help="also write machine-readable records (JSON lines)")

    p = sub.add_parser("popcount", help="verify the bundled popcount program")
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--samples", type=natural, default=1000)
    p.add_argument("--seed", type=int, default=seed)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "asm":
        return cmd_asm(args.source, args.output)
    if args.command == "run":
        return cmd_run(args.image, args.backend, args.steps, args.entry,
                       args.esp, args.trace)
    if args.command == "check":
        return cmd_check(args.target, args.cases, args.seed,
                         report_path=args.report)
    return cmd_popcount(args.width, args.samples, args.seed)


if __name__ == "__main__":
    sys.exit(main())

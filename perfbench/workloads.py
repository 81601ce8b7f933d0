"""The three benchmark workloads: popcount, memwalk and obligations.

Each workload is built from a seed (its set-up) and then runs in rounds.
A round runs every leg of the workload once on the same seeded inputs and
returns a `Round`: the work each leg did with its time, the time of every
case, the correctness checks made, and a canonical record of everything
simulated.  The record of round 0 is hashed into the digest that
`digests.json` pins for the documented seeds.

Work is timed in slices: one popcount input, one obligation case, or
RUN_SLICE steps of a longer run; only a lockstep run is timed whole.
Each slice goes through the workload's pacer.  The runner's pacer times
a reference loop between slices and scales each slice to the reference
speed; the default one keeps host seconds.

Every leg reports the same three execution rates (paged, sparse and
lockstep) and one case rate, so each workload fills every end-to-end
metric:

  leg          popcount                 memwalk                  obligations
  paged        popcount.ys, reloaded    walk, fresh machine      soup program
  sparse       criterion-2 reload path  walk, fresh machine      soup program
  lockstep     popcount inputs          small walk               soup, first steps
  cases        sparse-leg inputs        paged + sparse walk      y86 obligation cases

Only public calls into y86sim are made, and always through the module
attribute (`asm.parse`, `machine.run_in_lockstep`, ...) so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from importlib import resources
from time import perf_counter

from y86sim import asm, lockstep, machine
from y86sim.errors import CorrespondenceFailure
from y86sim.isa import MASK32, Status
from y86sim.machine import Machine
from y86sim.mem_paged import PAGE_SIZE, PagedMemory
from y86sim.mem_sparse import SparseMemory

EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI = range(8)
STACK_TOP = 8192
STEP_BUDGET = 300          # popcount's worst case is 198 steps
WALK_BUDGET = 1 << 20
RUN_SLICE = 512            # steps timed as one slice of a long run


def _no_case():
    pass


class Book:
    """Work per metric and time per case, in one kind of seconds."""

    def __init__(self):
        self.work: dict[str, tuple[int, float]] = {}   # metric -> (units, s)
        self.cases: dict[int, float] = {}              # case -> s

    def credit(self, seconds: float, metric: str | None, units: int,
               case: int | None) -> None:
        if metric is not None:
            done, spent = self.work.get(metric, (0, 0.0))
            self.work[metric] = (done + units, spent + seconds)
        if case is not None:
            self.cases[case] = self.cases.get(case, 0.0) + seconds

    def rates(self) -> dict[str, float]:
        """Units per second of each metric, and cases per second."""
        out = {m: u / s for m, (u, s) in self.work.items() if s > 0}
        if self.cases:
            out["cases_per_s"] = len(self.cases) / sum(self.cases.values())
        return out


class Unpaced:
    """Keeps host seconds."""

    def push(self, out: "Round", *slice_) -> None:
        out.scaled.credit(*slice_)


@dataclass
class Round:
    """What one round of a workload did and found."""

    pacer: Unpaced
    raw: Book = field(default_factory=Book)      # host seconds
    scaled: Book = field(default_factory=Book)   # seconds from the pacer
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    record: list = field(default_factory=list)

    def add(self, seconds: float, metric: str | None = None, units: int = 0,
            case: int | None = None) -> None:
        """Credit a timed slice to `units` of `metric` and to case `case`;
        a case's time is the sum of its slices."""
        self.raw.credit(seconds, metric, units, case)
        self.pacer.push(self, seconds, metric, units, case)

    def check(self, ok: bool, message: str) -> None:
        self.checks += 1
        if not ok:
            self.failures.append(message)


def machine_state(m: Machine, addrs) -> tuple:
    """Everything simulated about `m`: registers, flags, status, eip and
    the bytes at `addrs`."""
    return (tuple(m.regs), m.zf, m.sf, m.of, m.status.value, m.eip,
            bytes(m.read_byte(a) for a in addrs))


def digest(record) -> str:
    return hashlib.sha256(repr(record).encode()).hexdigest()[:16]


def run_sliced(out: Round, metric: str, m: Machine, budget: int,
               case: int | None = None) -> int:
    """`m.run(budget)`, timed in slices of RUN_SLICE steps."""
    steps = 0
    while steps < budget and m.status is Status.AOK:
        t0 = perf_counter()
        n = m.run(min(RUN_SLICE, budget - steps))
        out.add(perf_counter() - t0, metric, n, case)
        steps += n
    return steps


# ---------------------------------------------------------------------------
# popcount

class Popcount:
    name = "popcount"
    why = ("compute-bound, read-heavy, hot decode cache, no page allocation: "
           "dispatch, decode and memory reads dominate")
    size = ("popcount.ys over 256 seeded 32-bit inputs per round on the "
            "paged and sparse legs, the first 16 of them under lockstep")
    INPUTS = 256
    LOCKSTEP_INPUTS = 16

    def __init__(self, seed: int, on_case=_no_case, pacer=Unpaced()):
        self.on_case = on_case
        self.pacer = pacer
        text = resources.files("y86sim").joinpath(
            "programs", "popcount.ys").read_text()
        image, symbols = asm.assemble(asm.parse(text))
        self.entry = symbols["call-popcount"]
        self.halt = symbols["halt-of-main"]
        self.sparse_base = SparseMemory(dict(image))
        self.paged_base = image.load(PagedMemory())
        self.addrs = sorted({a for a, _ in image}
                            | set(range(STACK_TOP - 4, STACK_TOP)))
        rng = random.Random(seed)
        self.inputs = [rng.getrandbits(32) for _ in range(self.INPUTS)]
        self.paged = Machine(PagedMemory())
        self.sparse = Machine(SparseMemory())
        self.lock_c = Machine(PagedMemory())
        self.lock_a = Machine(SparseMemory())

    def _start(self, m: Machine, mem, n: int) -> None:
        m.reload(mem, eip=self.entry, esp=STACK_TOP, keep_icache=True)
        m.regs[EDX] = n

    def _verify(self, out: Round, leg: str, m: Machine, n: int, steps: int):
        out.check(m.status is Status.HLT and m.eip == self.halt
                  and m.regs[EAX] == bin(n).count("1"),
                  f"popcount {leg}: input {n:#x} gave eax={m.regs[EAX]} "
                  f"status={m.status.value} eip={m.eip:#x}")
        return (n, steps, machine_state(m, self.addrs))

    def round(self, r: int) -> Round:
        out = Round(self.pacer)
        legs = {}
        for leg, m, mem in (("paged", self.paged, self.paged_base),
                            ("sparse", self.sparse, self.sparse_base)):
            records = []
            for i, n in enumerate(self.inputs):
                self.on_case()
                t0 = perf_counter()
                self._start(m, mem, n)
                steps = m.run(STEP_BUDGET)
                out.add(perf_counter() - t0, f"{leg}.instr_per_s", steps,
                        i if leg == "sparse" else None)
                records.append(self._verify(out, leg, m, n, steps))
            legs[leg] = records
        records = []
        for i, n in enumerate(self.inputs[:self.LOCKSTEP_INPUTS]):
            self.on_case()
            c, a = self.lock_c, self.lock_a
            self._start(c, self.paged_base, n)
            self._start(a, self.sparse_base, n)
            t0 = perf_counter()
            try:
                report = machine.run_in_lockstep(c, a, STEP_BUDGET, seed=i)
            except CorrespondenceFailure as exc:
                out.check(False, f"popcount lockstep: input {n:#x}: {exc}")
                continue
            out.add(perf_counter() - t0, "lockstep.steps_per_s", report.steps)
            records.append(self._verify(out, "lockstep", a, n, report.steps))
        out.check(legs["paged"] == legs["sparse"]
                  and records == legs["sparse"][:len(records)],
                  "popcount: paged, sparse and lockstep legs disagree")
        out.record = legs["sparse"]
        return out


# ---------------------------------------------------------------------------
# memwalk

@dataclass(frozen=True)
class Walk:
    """A generated store-then-load walk and what the host expects of it."""

    source: str
    steps: int
    regs: tuple
    written: dict   # address -> byte
    blocks: int     # distinct 16MB blocks written, code included


def make_walk(rng: random.Random, regions: int, words: int) -> Walk:
    """Store `words` pattern words into each of `regions` distinct 16MB
    blocks, then load them back and sum them into %ebp."""
    blocks = rng.sample(range(1, 256), regions)
    plan = []
    for block in blocks:
        stride = 4 * rng.randint(1, 16)
        offset = 4 * rng.randrange((PAGE_SIZE - words * stride) // 4)
        plan.append(((block << 24) + offset, stride,
                     rng.getrandbits(32), rng.getrandbits(32) | 1))
    lines = ["    .pos 0", "main:", "    irmovl $1, %edi",
             "    xorl %ebp, %ebp"]
    for k, (base, stride, first, inc) in enumerate(plan):
        lines += [f"    irmovl ${base:#x}, %ebx", f"    irmovl ${words}, %ecx",
                  f"    irmovl ${first:#x}, %eax", f"    irmovl ${stride}, %edx",
                  f"    irmovl ${inc:#x}, %esi", f"store{k}:",
                  "    rmmovl %eax, 0(%ebx)", "    addl %edx, %ebx",
                  "    addl %esi, %eax", "    subl %edi, %ecx",
                  f"    jne store{k}"]
    for k, (base, stride, _, _) in enumerate(plan):
        lines += [f"    irmovl ${base:#x}, %ebx", f"    irmovl ${words}, %ecx",
                  f"    irmovl ${stride}, %edx", f"load{k}:",
                  "    mrmovl 0(%ebx), %eax", "    addl %eax, %ebp",
                  "    addl %edx, %ebx", "    subl %edi, %ecx",
                  f"    jne load{k}"]
    lines.append("    halt")

    written = {}
    checksum = 0
    for base, stride, first, inc in plan:
        for i in range(words):
            word = (first + i * inc) & MASK32
            checksum = (checksum + word) & MASK32
            for b in range(4):
                written[base + i * stride + b] = (word >> (8 * b)) & 0xFF
    base, stride, first, inc = plan[-1]
    last_word = (first + (words - 1) * inc) & MASK32
    regs = [0] * 8
    regs[EAX] = last_word
    regs[EBX] = (base + words * stride) & MASK32
    regs[EDX] = stride
    regs[ESI] = inc
    regs[EDI] = 1
    regs[EBP] = checksum
    steps = 2 + regions * (5 + 5 * words) + regions * (3 + 5 * words) + 1
    return Walk("\n".join(lines) + "\n", steps, tuple(regs), written,
                1 + len(set(blocks)))


class Memwalk:
    name = "memwalk"
    why = ("write-heavy walk over 3 fresh 16MB blocks with a hot loop: "
           "sparse writes, page zero-fill and the lockstep check dominate")
    size = ("3 regions x 256 words (3 KB) per walk on fresh paged and sparse "
            "machines, 3 x 16 words under lockstep")
    REGIONS = 3
    WORDS = 256
    LOCKSTEP_WORDS = 16

    def __init__(self, seed: int, on_case=_no_case, pacer=Unpaced()):
        self.on_case = on_case
        self.pacer = pacer
        rng = random.Random(seed)
        self.walk = make_walk(rng, self.REGIONS, self.WORDS)
        self.small = make_walk(rng, self.REGIONS, self.LOCKSTEP_WORDS)
        self.image, self.symbols = asm.assemble(asm.parse(self.walk.source))
        self.small_image, _ = asm.assemble(asm.parse(self.small.source))
        self.addrs = sorted(set(self.walk.written) | {a for a, _ in self.image})
        self.small_addrs = sorted(set(self.small.written)
                                  | {a for a, _ in self.small_image})

    def _verify(self, out: Round, leg: str, m: Machine, walk: Walk,
                steps: int, addrs) -> tuple:
        state = machine_state(m, addrs)
        ok = (steps == walk.steps and m.status is Status.HLT
              and tuple(m.regs) == walk.regs
              and all(m.read_byte(a) == v for a, v in walk.written.items()))
        out.check(ok, f"memwalk {leg}: steps={steps}/{walk.steps} "
                      f"status={m.status.value} ebp={m.regs[EBP]:#x}/"
                      f"{walk.regs[EBP]:#x} or a written byte differs")
        return (steps, state)

    def round(self, r: int) -> Round:
        out = Round(self.pacer)
        main = self.symbols["main"]
        legs = {}
        for leg, mem_type in (("paged", PagedMemory), ("sparse", SparseMemory)):
            self.on_case()
            t0 = perf_counter()
            m = Machine(mem_type(), eip=main, image=self.image)
            out.add(perf_counter() - t0, f"{leg}.instr_per_s", 0, case=0)
            steps = run_sliced(out, f"{leg}.instr_per_s", m, WALK_BUDGET, 0)
            legs[leg] = self._verify(out, leg, m, self.walk, steps, self.addrs)
            if leg == "paged":
                out.check(m.mem.pages_allocated() == self.walk.blocks,
                          f"memwalk: {m.mem.pages_allocated()} pages "
                          f"allocated for {self.walk.blocks} blocks written")
            del m
        out.check(legs["paged"] == legs["sparse"],
                  "memwalk: paged and sparse legs end in different states")

        self.on_case()
        c = Machine(PagedMemory(), eip=main, image=self.small_image)
        a = Machine(SparseMemory(), eip=main, image=self.small_image)
        t0 = perf_counter()
        try:
            report = machine.run_in_lockstep(c, a, WALK_BUDGET, seed=r)
        except CorrespondenceFailure as exc:
            out.check(False, f"memwalk lockstep: {exc}")
            small = None
        else:
            out.add(perf_counter() - t0, "lockstep.steps_per_s", report.steps)
            small = self._verify(out, "lockstep", a, self.small, report.steps,
                                 self.small_addrs)
        out.record = [legs["sparse"], small]
        return out


# ---------------------------------------------------------------------------
# obligations

SOUP_DATA = 0x00100000   # %ebp, the base of every soup memory operand
SOUP_STACK = 0x00080000
_SOUP_DESTS = ("eax", "ecx", "edx", "ebx", "esi", "edi")   # never esp/ebp
_SOUP_REGS = ("eax", "ecx", "edx", "ebx", "esp", "ebp", "esi", "edi")
_CONDS = ("le", "l", "e", "ne", "ge", "g")
# (kind, sixteenths of a soup program)
_SOUP_MIX = (("irmovl", 3), ("rrmovl", 2), ("alu", 4), ("rmmovl", 2),
             ("mrmovl", 2), ("pushl", 1), ("popl", 1), ("jxx", 1))


def make_soup(rng: random.Random, length: int) -> str:
    """Straight-line random instruction soup ending in halt.

    Every instruction runs once, so each step decodes afresh.  The mix of
    kinds is fixed and only their order and operands are drawn, so every
    seed does the same amount of each kind of work.  Memory operands stay
    in one 64 KB window and the stack below it, all in block 0, because
    %ebp and %esp are never a destination; a conditional jump skips one
    nop.
    """
    def reg():
        return "%" + rng.choice(_SOUP_REGS)

    def dest():
        return "%" + rng.choice(_SOUP_DESTS)

    ops = [op for op, share in _SOUP_MIX for _ in range(length * share // 16)]
    rng.shuffle(ops)
    lines = ["    .pos 0", f"    irmovl ${SOUP_DATA:#x}, %ebp"]
    for k, op in enumerate(ops):
        disp = 4 * rng.randrange(1, 1 << 14)
        if op == "irmovl":
            lines.append(f"    irmovl ${rng.getrandbits(32):#x}, {dest()}")
        elif op == "rrmovl":
            move = rng.choice(("rrmovl",) + tuple("cmov" + c for c in _CONDS))
            lines.append(f"    {move} {reg()}, {dest()}")
        elif op == "alu":
            fn = rng.choice(("addl", "subl", "andl", "xorl"))
            lines.append(f"    {fn} {reg()}, {dest()}")
        elif op == "rmmovl":
            lines.append(f"    rmmovl {reg()}, {disp}(%ebp)")
        elif op == "mrmovl":
            lines.append(f"    mrmovl {disp}(%ebp), {dest()}")
        elif op == "pushl":
            lines.append(f"    pushl {reg()}")
        elif op == "popl":
            lines.append(f"    popl {dest()}")
        else:
            lines += [f"    j{rng.choice(_CONDS)} skip{k}", "    nop",
                      f"skip{k}:"]
    lines.append("    halt")
    return "\n".join(lines) + "\n"


class Obligations:
    name = "obligations"
    why = ("criterion-3 obligation suites and random instruction soup: cold "
           "decode cache, state copies, correspondence and recognizer scans")
    size = ("per round: y86 suite 40 cases x 8 exports, demo-st suite 64 "
            "cases x 4 exports, a new 2048-instruction soup program on each "
            "backend, its first 256 steps under lockstep")
    Y86_CASES = 40
    DEMO_CASES = 64
    SOUP_LENGTH = 2048
    SOUP_LOCKSTEP_STEPS = 256

    def __init__(self, seed: int, on_case=_no_case, pacer=Unpaced()):
        self.on_case = on_case
        self.pacer = pacer
        self.seed = seed
        self.y86 = lockstep.y86_spec()
        self.y86_cases = lockstep.Y86Cases()
        self.demo = lockstep.demo_spec()
        self.demo_cases = lockstep.DemoCases(self.demo)
        self.first_soup = self._soup(0)

    def _soup(self, r: int):
        """Round r's soup program, loaded into a paged and a sparse base.

        Each round runs a new program, so a run's median averages over
        many programs rather than over one seed's mix of operands."""
        rng = random.Random(self.seed * 1_000_003 + r)
        image, _ = asm.assemble(asm.parse(make_soup(rng, self.SOUP_LENGTH)))
        return image.load(PagedMemory()), SparseMemory(dict(image))

    def _suite(self, out: Round, metric: str | None, spec, source, n: int,
               suite_seed: int) -> list:
        """Run one obligation suite, timing every case from outside: a case
        runs from its draw to the next draw or the suite's end.  With
        `metric` None, the suite's cases are the workload's cases."""
        starts = []
        draw = source.draw

        def end_case():
            if starts:
                case = None if metric else len(starts)
                out.add(perf_counter() - starts[-1], metric, 1, case)

        def timed_draw(export_name, rng):
            end_case()
            self.on_case()
            starts.append(perf_counter())
            return draw(export_name, rng)

        source.draw = timed_draw
        try:
            report = lockstep.check_obligations(spec, source, n, suite_seed)
            end_case()
        finally:
            del source.draw
        out.checks += len(starts)
        out.failures += [f"{spec.name}: {f.obligation} case {f.case} "
                         f"seed={f.seed}: {f.message}"
                         for o in report.outcomes for f in o.failures]
        return report.to_records()

    def _soup_machines(self, bases):
        self.on_case()
        paged_base, sparse_base = bases
        return (Machine(paged_base.copy(), esp=SOUP_STACK),
                Machine(sparse_base, esp=SOUP_STACK))

    def round(self, r: int) -> Round:
        out = Round(self.pacer)
        suite_seed = (self.seed * 1_000_003 + r) & MASK32
        records = [
            self._suite(out, None, self.y86, self.y86_cases,
                        self.Y86_CASES, suite_seed),
            self._suite(out, "demo.cases_per_s", self.demo, self.demo_cases,
                        self.DEMO_CASES, suite_seed),
        ]
        soup = self.first_soup if r == 0 else self._soup(r)
        c, a = self._soup_machines(soup)
        for leg, m in (("paged", c), ("sparse", a)):
            run_sliced(out, f"{leg}.instr_per_s", m, WALK_BUDGET)
            out.check(m.status is Status.HLT,
                      f"soup {leg}: stopped with status {m.status.value}")
        addrs = sorted(a.mem.touched())
        state = machine_state(a, addrs)
        out.check(state == machine_state(c, addrs),
                  "soup: paged and sparse legs disagree")
        records.append(state)
        del c, a

        c, a = self._soup_machines(soup)
        t0 = perf_counter()
        try:
            report = machine.run_in_lockstep(c, a, self.SOUP_LOCKSTEP_STEPS,
                                             seed=r)
        except CorrespondenceFailure as exc:
            out.check(False, f"soup lockstep: {exc}")
        else:
            out.add(perf_counter() - t0, "lockstep.steps_per_s", report.steps)
            out.check(report.steps == self.SOUP_LOCKSTEP_STEPS,
                      f"soup lockstep: halted after {report.steps} steps")
        out.record = records
        return out


WORKLOADS = {w.name: w for w in (Popcount, Memwalk, Obligations)}

"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import time

from y86sim import asm
from y86sim.cli import bundled_program, verify_popcount
from y86sim.errors import (
    AtomicityViolation,
    InjectedFault,
    PoisonedState,
)
from y86sim.isa import Status
from y86sim.lockstep import (
    DemoCases,
    DualState,
    Y86Cases,
    check_obligations,
    const_spec,
    demo_spec,
    raise_injected_fault,
    unsound_const_demo,
    y86_spec,
)
from y86sim.machine import Machine
from y86sim.mem_paged import MEM_SIZE, PagedMemory
from y86sim.mem_sparse import SparseMemory

EAX = 0


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# ---------------------------------------------------------------------------

def test_criterion_1_simple_program():
    t0 = time.perf_counter()
    image, symbols = asm.assemble(asm.parse(bundled_program("simple.ys")))
    exact = (symbols["main"] == 80 and symbols["halt-of-main"] == 86
             and symbols["end-of-code"] == 87)
    results = []
    for backend in (PagedMemory, SparseMemory):
        m = Machine(backend(), eip=symbols["main"], esp=8192, image=image)
        consumed = m.run(300)
        results.append(m.regs[EAX] == 1023 and m.eip == 86
                       and m.status is Status.HLT and consumed <= 300)
    elapsed = time.perf_counter() - t0
    ok = exact and all(results) and elapsed < 1.0
    _verdict(1, ok,
             f"simple program: symbols main=80/halt=86/end=87 exact={exact}, "
             f"eax=1023 eip=0x56 on both backends={all(results)}, "
             f"{elapsed:.3f}s (< 1s)")


def test_criterion_2_popcount_exhaustive_and_random():
    t0 = time.perf_counter()
    cases, mismatches = verify_popcount(width=16, samples=10_000, seed=0)
    elapsed = time.perf_counter() - t0
    ok = cases == (1 << 16) + 10_000 and mismatches == 0 and elapsed < 60.0
    _verdict(2, ok,
             f"popcount: {cases} inputs (exhaustive n < 2^16 + 10^4 random), "
             f"{mismatches} mismatches, {elapsed:.1f}s (< 60s)")


def test_criterion_3_obligation_suites_and_mutations():
    t0 = time.perf_counter()
    spec = demo_spec()
    demo_report = check_obligations(spec, DemoCases(spec), 10_000, seed=0)
    y86_report = check_obligations(y86_spec(), Y86Cases(), 10_000, seed=0)

    detected = []
    blind = demo_spec(corrupt="blind-corr")
    report = check_obligations(blind, DemoCases(blind), 1000, seed=1)
    detected.append(bool(report.outcome("lookup{CORRESPONDENCE}").failures))
    odd = demo_spec(corrupt="odd-logic")
    report = check_obligations(odd, DemoCases(odd), 1000, seed=1)
    detected.append(bool(report.outcome("update{PRESERVED}").failures))
    wide = demo_spec(corrupt="wide-guard")
    report = check_obligations(wide, DemoCases(wide), 1000, seed=1)
    detected.append(bool(report.outcome("update{GUARD-THM}").failures
                         or report.outcome("lookup{GUARD-THM}").failures))

    elapsed = time.perf_counter() - t0
    ok = (demo_report.ok and y86_report.ok and all(detected)
          and elapsed < 120.0)
    _verdict(3, ok,
             f"obligations: demo-st failures={demo_report.total_failures}, "
             f"y86 failures={y86_report.total_failures} (10^4 cases/export), "
             f"mutations detected={detected}, {elapsed:.1f}s (< 120s)")


def test_criterion_4_read_over_write():
    # Sparse: hypothesis-free, fully random 32-bit addresses and bytes.
    rng = random.Random(4)
    sparse = SparseMemory({123: 45, 0x01000000: 1})
    sparse_failures = 0
    for _ in range(100_000):
        i = rng.getrandbits(32)
        j = i if rng.random() < 0.2 else rng.getrandbits(32)
        v = rng.getrandbits(8)
        before = sparse.read(i)
        written = sparse.write(j, v)
        if written.read(i) != (v if i == j else before):
            sparse_failures += 1
        if rng.random() < 0.3:
            sparse = written  # evolve the base state
    # Paged: guard-satisfying triples (valid addresses, byte values, a
    # wellformed memory), same- and cross-block pairs.
    blocks = (0, 1, 2, 3, 64, 65, 254, 255)
    paged = PagedMemory()
    paged_failures = 0
    for _ in range(100_000):
        i = (rng.choice(blocks) << 24) | rng.getrandbits(24)
        j = i if rng.random() < 0.2 else (rng.choice(blocks) << 24) | rng.getrandbits(24)
        v = rng.getrandbits(8)
        before = paged.read(j)
        paged.write(i, v)
        if paged.read(j) != (v if i == j else before):
            paged_failures += 1
    ok = sparse_failures == 0 and paged_failures == 0 and paged.wellformed()
    _verdict(4, ok,
             f"read-over-write: sparse {sparse_failures} failures, paged "
             f"{paged_failures} failures (10^5 triples each)")


def test_criterion_5_atomicity_protocol():
    # Unprotected double update is rejected by name.
    dual = DualState(const_spec(protect=False))
    named = False
    try:
        dual.invoke("change-fld")
    except AtomicityViolation as exc:
        named = "change-fld" in str(exc)
    # Protected abort poisons; the next invoke fails.
    dual = DualState(const_spec(protect=True, fault=raise_injected_fault))
    poisoned_then_blocked = False
    try:
        dual.invoke("change-fld")
    except InjectedFault:
        if dual.poisoned:
            try:
                dual.invoke("get-fld")
            except PoisonedState:
                poisoned_then_blocked = True
    # Quarantined unsound demo observes the stale 1.
    demo = unsound_const_demo()
    stale = None
    try:
        demo.invoke("change-fld")
    except InjectedFault:
        stale = demo.invoke("get-fld")
    ok = named and poisoned_then_blocked and stale == 1
    _verdict(5, ok,
             f"atomicity: violation-named={named}, "
             f"poison-blocks={poisoned_then_blocked}, unsound demo "
             f"observed={stale} (expected 1)")


def test_criterion_6_fresh_state_recognizers():
    def timed_best(fn, repeat=5):
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            result = fn()
            best = min(best, time.perf_counter() - t0)
            assert result
        return best

    paged_time = timed_best(lambda: PagedMemory().wellformed())
    sparse_time = timed_best(lambda: SparseMemory().wellformed())
    ok = paged_time < 1e-3 and sparse_time < 1e-3
    _verdict(6, ok,
             f"fresh-state recognizers hold by direct evaluation: paged "
             f"{paged_time * 1e6:.0f}us, sparse {sparse_time * 1e6:.0f}us "
             f"(< 1ms each)")


class RecordingMemory:
    """Independent reference backend: plain dict plus a write log."""

    def __init__(self):
        self.store = {}
        self.writes = []

    def read(self, addr):
        assert 0 <= addr < MEM_SIZE
        return self.store.get(addr, 0)

    def read_span(self, addr, n):
        return bytes(self.read((addr + k) % MEM_SIZE) for k in range(n))

    def write(self, addr, value):
        assert 0 <= addr < MEM_SIZE and 0 <= value <= 0xFF
        self.writes.append((addr, value))
        self.store[addr] = value
        return self


def test_criterion_7_space_property():
    image, symbols = asm.assemble(asm.parse(bundled_program("stress.ys")))
    # Oracle run: record every write (including the image load) through a
    # backend independent of both production memories.
    recorder = RecordingMemory()
    oracle = Machine(recorder, eip=symbols["main"], esp=8192, image=image)
    oracle.run(300)
    assert oracle.status is Status.HLT
    k = len({addr >> 24 for addr, _ in recorder.writes})
    nonzero = sum(1 for v in recorder.store.values() if v)

    paged = Machine(PagedMemory(), eip=symbols["main"], esp=8192, image=image)
    paged.run(300)
    sparse = Machine(SparseMemory(), eip=symbols["main"], esp=8192, image=image)
    sparse.run(300)

    pages = paged.mem.pages_allocated()
    entries = len(sparse.mem.touched())
    ok = k <= 8 and pages == k and entries == nonzero
    _verdict(7, ok,
             f"space: {k} distinct blocks written (<= 8), pages_allocated="
             f"{pages} (= k), sparse entries={entries} "
             f"(= {nonzero} nonzero addresses)")


def test_criterion_8_symbolic_execution_substitute():
    # No symbolic-execution engine ships with this package, so there is no
    # analogue of proving the popcount property for all 2^32 inputs at
    # once; criterion 2's exhaustive-plus-random sweep is the designated
    # substitute.
    _verdict(8, True,
             "symbolic execution out of scope by design; criterion 2 is "
             "the designated substitute")

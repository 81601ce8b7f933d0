"""Dual-state container, obligation suites, and the protection protocol."""

import dataclasses
import random

import pytest

from y86sim.errors import (
    AtomicityViolation,
    CorrespondenceFailure,
    GuardViolation,
    InjectedFault,
    PoisonedState,
)
from y86sim.lockstep import (
    DemoCases,
    DualState,
    EvenMap,
    Export,
    LockstepSpec,
    OneField,
    SlotStore,
    Y86Cases,
    check_obligations,
    const_spec,
    demo_spec,
    raise_injected_fault,
    unsound_const_demo,
    y86_spec,
)
from y86sim.mem_paged import PagedMemory
from y86sim.mem_sparse import SparseMemory


# ---------------------------------------------------------------------------
# creation

def test_create_demo_dual():
    dual = DualState(demo_spec())
    assert dual.concrete.slots == [0] * 100
    assert dual.concrete.misc is None
    assert dual.abstract == EvenMap()
    assert dual.recognizer()
    assert dual.recognizer(audit=True)


def test_create_y86_dual():
    dual = DualState(y86_spec())
    assert isinstance(dual.concrete.mem, PagedMemory)
    assert isinstance(dual.abstract.mem, SparseMemory)
    for addr in (0, 5, 0x2000):
        assert dual.invoke("memi", addr) == 0


def test_broken_creator_fails_correspondence():
    spec = demo_spec()

    def bad_creator():
        store = SlotStore()
        store.set_slot(17, 1)
        return store

    broken = LockstepSpec(
        name="broken",
        recognizer_logic=spec.recognizer_logic,
        creator_logic=spec.creator_logic,
        creator_exec=bad_creator,
        corr=spec.corr,
        exports=spec.exports,
    )
    with pytest.raises(CorrespondenceFailure):
        DualState(broken)
    # fast mode skips the creator check by design
    DualState(broken, mode="fast")


# ---------------------------------------------------------------------------
# invoke semantics on the demo object

def test_demo_lookup_fresh_is_zero():
    dual = DualState(demo_spec())
    assert dual.invoke("lookup", 3) == 0


def test_demo_update_odd_value_guard_violation():
    dual = DualState(demo_spec())
    with pytest.raises(GuardViolation):
        dual.invoke("update", 3, 5)
    # Neither state was touched.
    assert dual.concrete.slots[3] == 0
    assert dual.abstract == EvenMap()


def test_demo_update_then_lookup():
    dual = DualState(demo_spec())
    dual.invoke("update", 3, 4)
    assert dual.invoke("lookup", 3) == 4
    assert dual.recognizer(audit=True)
    dual.invoke("update-misc", "x")
    assert dual.invoke("misc") == "x"


def test_guard_checked_in_fast_mode_too():
    dual = DualState(demo_spec(), mode="fast")
    with pytest.raises(GuardViolation):
        dual.invoke("update", 200, 2)
    with pytest.raises(GuardViolation):
        dual.invoke("lookup", -1)


def test_unknown_export():
    dual = DualState(demo_spec())
    with pytest.raises(KeyError):
        dual.invoke("no-such-op")


# ---------------------------------------------------------------------------
# atomicity protocol

def test_unprotected_double_update_raises():
    dual = DualState(const_spec(protect=False))
    with pytest.raises(AtomicityViolation) as err:
        dual.invoke("change-fld")
    assert "change-fld" in str(err.value)


def test_declared_multi_update_rejected_at_registration():
    with pytest.raises(AtomicityViolation):
        LockstepSpec(
            name="bad",
            recognizer_logic=lambda a: True,
            creator_logic=lambda: 0,
            creator_exec=OneField,
            corr=lambda c, a: True,
            exports=(Export(
                "double", "updater",
                logic_fn=lambda a: 0,
                exec_fn=lambda c: None,
                guard=lambda a: True,
                declared_updater_calls=2,
            ),),
        )


def test_protected_abort_poisons_state():
    dual = DualState(const_spec(protect=True, fault=raise_injected_fault))
    with pytest.raises(InjectedFault):
        dual.invoke("change-fld")
    assert dual.poisoned
    assert not dual.recognizer()
    with pytest.raises(PoisonedState) as err:
        dual.invoke("get-fld")
    assert "change-fld" in str(err.value)
    assert "InjectedFault" in str(err.value)
    assert "1 update(s) done" in str(err.value)


def test_poison_monotonic_until_reset():
    dual = DualState(const_spec(protect=True, fault=raise_injected_fault))
    with pytest.raises(InjectedFault):
        dual.invoke("change-fld")
    for _ in range(3):
        with pytest.raises(PoisonedState):
            dual.invoke("get-fld")
        with pytest.raises(PoisonedState):
            dual.invoke("change-fld")
    dual.reset()
    assert not dual.poisoned
    assert dual.invoke("get-fld") == 0


def test_protected_success_clears_poison():
    dual = DualState(const_spec(protect=True, fault=None))
    dual.invoke("change-fld")
    assert not dual.poisoned
    assert dual.invoke("get-fld") == 0


def test_unsound_demo_reproduces_stale_value():
    # Quarantined configuration: fast mode, unprotected, armed abort.  The
    # abort leaves the concrete field at 1 while the operation is
    # logically the constant 0; the next reader observes the stale 1.
    dual = unsound_const_demo()
    with pytest.raises(InjectedFault):
        dual.invoke("change-fld")
    assert dual.invoke("get-fld") == 1


def test_check_mode_detects_the_same_scenario():
    dual = DualState(const_spec(protect=False, fault=raise_injected_fault))
    with pytest.raises(InjectedFault):
        dual.invoke("change-fld")
    with pytest.raises(CorrespondenceFailure):
        dual.invoke("get-fld")


# ---------------------------------------------------------------------------
# fast mode vs check mode

def test_fast_and_check_modes_observably_equal():
    rng = random.Random(0xFA57)
    script = []
    for _ in range(300):
        roll = rng.random()
        if roll < 0.3:
            script.append(("update", (rng.randrange(100), rng.randrange(0, 500) & ~1)))
        elif roll < 0.4:
            script.append(("update-misc", (rng.randrange(5),)))
        elif roll < 0.8:
            script.append(("lookup", (rng.randrange(100),)))
        else:
            script.append(("misc", ()))

    def run(mode):
        dual = DualState(demo_spec(), mode=mode)
        results = []
        for name, args in script:
            value = dual.invoke(name, *args)
            if value is not None or name in ("lookup", "misc"):
                results.append(value)
        return results

    assert run("check") == run("fast")


# ---------------------------------------------------------------------------
# y86 registration

def test_y86_invoke_round_trip():
    dual = DualState(y86_spec())
    dual.invoke("!rgfi", 0, 1023)
    assert dual.invoke("rgfi", 0) == 1023
    dual.invoke("!eip", 0x50)
    assert dual.invoke("eip") == 0x50
    dual.invoke("!memi", 0x01000005, 7)
    assert dual.invoke("memi", 0x01000005) == 7
    assert dual.invoke("memi", 0x01000006) == 0
    assert dual.recognizer(audit=True)


def test_y86_step_through_dual():
    dual = DualState(y86_spec())
    # irmovl $9, %ecx at address 0, then halt
    for addr, byte in enumerate(b"\x30\xf1\x09\x00\x00\x00\x00"):
        dual.invoke("!memi", addr, byte)
    dual.invoke("step")
    assert dual.invoke("rgfi", 1) == 9
    assert dual.invoke("eip") == 6
    dual.invoke("run", 4)
    assert dual.invoke("eip") == 6  # halted at the halt instruction


def test_y86_guard_violations():
    dual = DualState(y86_spec())
    with pytest.raises(GuardViolation):
        dual.invoke("rgfi", 8)
    with pytest.raises(GuardViolation):
        dual.invoke("!memi", 1 << 32, 0)
    with pytest.raises(GuardViolation):
        dual.invoke("run", 65)


def test_y86_multi_update_exports_are_protected():
    # Machine.step and Machine.run tally no updates of their own; that is
    # sound only while the protocol never reads an update delta across them.
    exports = {e.name: e for e in y86_spec().exports}
    for name in ("step", "run", "!memi"):
        assert exports[name].protect, name


def test_y86_corr_compares_every_byte_the_sparse_memory_holds():
    spec = y86_spec()
    concrete, abstract = spec.creator_exec(), spec.creator_logic()
    for addr in range(0x100, 0x100 + 600):
        concrete.write_byte(addr, addr & 0x7F | 1)
        abstract.write_byte(addr, addr & 0x7F | 1)
    assert spec.corr(concrete, abstract)
    # Past 512 held bytes a stride sample would skip every other address.
    concrete.write_byte(0x101, concrete.read_byte(0x101) ^ 0x40)
    assert not spec.corr(concrete, abstract)


def test_y86_malformed_memory_is_caught_by_preservation_alone():
    # This !memi keeps a zero-valued entry, which a canonical sparse memory
    # never holds.  Both sides read 0 there, so the pair corresponds; the
    # recognizer, checked as the PRESERVED obligation, rejects the map.
    spec = y86_spec()

    def keep_zero_entry(a, i, v):
        m = a.copy()
        m.mem = SparseMemory._from_raw({**dict(m.mem.items()), i: 0})
        return m

    exports = tuple(
        dataclasses.replace(e, logic_fn=keep_zero_entry,
                            exec_fn=lambda c, i, v: c.write_byte(i, 0))
        if e.name == "!memi" else e
        for e in spec.exports)
    variant = dataclasses.replace(spec, name="y86[zero-entry]",
                                  exports=exports)
    report = check_obligations(variant, Y86Cases(), n_cases=40, seed=5)
    assert report.outcome("!memi{PRESERVED}").failures
    assert not report.outcome("!memi{CORRESPONDENCE}").failures


def test_dual_invariant_over_random_sequences():
    # Arbitrary guard-satisfying call sequences keep the pair in
    # correspondence (every invoke checks it) and the recognizer audited.
    for spec, source in ((demo_spec(), DemoCases(demo_spec())),
                         (y86_spec(), Y86Cases())):
        dual = DualState(spec)
        rng = random.Random(11)
        exports = list(spec.exports)
        for step in range(120):
            export = rng.choice(exports)
            _, _, args = source.draw(export.name, rng)
            dual.invoke(export.name, *args)
        assert dual.recognizer(audit=True)


# ---------------------------------------------------------------------------
# obligation suites

def test_demo_obligations_pass():
    spec = demo_spec()
    report = check_obligations(spec, DemoCases(spec), n_cases=1500, seed=42)
    assert report.ok, report.to_text()
    names = [o.name for o in report.outcomes]
    assert "create{CORRESPONDENCE}" in names
    assert "update{CORRESPONDENCE}" in names
    assert "update{PRESERVED}" in names
    assert "update{GUARD-THM}" in names
    assert "lookup{CORRESPONDENCE}" in names


def test_y86_obligations_pass_quick():
    spec = y86_spec()
    report = check_obligations(spec, Y86Cases(), n_cases=150,
                               seed=7)
    assert report.ok, report.to_text()


def test_mutation_blind_corr_detected():
    spec = demo_spec(corrupt="blind-corr")
    report = check_obligations(spec, DemoCases(spec), n_cases=1200, seed=3)
    assert not report.ok
    # The weakened correspondence lets updates through; the reader
    # obligation catches the corrupt slot.
    lookup_corr = report.outcome("lookup{CORRESPONDENCE}")
    assert lookup_corr.failures
    assert all(f.seed is not None for f in lookup_corr.failures)


def test_mutation_odd_logic_detected():
    spec = demo_spec(corrupt="odd-logic")
    report = check_obligations(spec, DemoCases(spec), n_cases=400, seed=3)
    assert report.outcome("update{PRESERVED}").failures


def test_mutation_wide_guard_detected():
    spec = demo_spec(corrupt="wide-guard")
    report = check_obligations(spec, DemoCases(spec), n_cases=400, seed=3)
    failures = report.outcome("update{GUARD-THM}").failures
    failures += report.outcome("lookup{GUARD-THM}").failures
    assert failures


def test_shrinking_minimizes_counterexample():
    spec = demo_spec(corrupt="odd-logic")
    report = check_obligations(spec, DemoCases(spec), n_cases=300, seed=9)
    shrunk = [f.shrunk_args for o in report.outcomes for f in o.failures
              if f.shrunk_args]
    assert shrunk
    # The minimal failing update is index 0, value 0.
    assert "(0, 0)" in shrunk


def test_report_determinism_and_serialization():
    spec = demo_spec()
    a = check_obligations(spec, DemoCases(spec), n_cases=300, seed=5)
    b = check_obligations(demo_spec(), DemoCases(demo_spec()), n_cases=300, seed=5)
    assert a.to_text() == b.to_text()

    lines = a.to_jsonl().splitlines()
    assert len(lines) == len(a.outcomes)
    import json
    record = json.loads(lines[0])
    assert record["spec"] == "demo-st"
    assert {"obligation", "cases", "failures", "seed"} <= set(record)


def test_case_source_contract_enforced():
    spec = demo_spec()

    class BadSource(DemoCases):
        def draw(self, export_name, rng):
            concrete, abstract, _ = super().draw(export_name, rng)
            return concrete, abstract, (-1,) if export_name == "lookup" else ()

    with pytest.raises(ValueError):
        check_obligations(spec, BadSource(spec), n_cases=5, seed=0)

"""Dual-state container, obligation suites, and the protection protocol."""

import dataclasses
import random
import re
import weakref

import pytest

from y86sim.errors import (
    AtomicityViolation,
    CorrespondenceFailure,
    GuardViolation,
    InjectedFault,
    PoisonedState,
    PreservationFailure,
)
from y86sim.isa import Register, alu_bits, cond_holds
from y86sim.lockstep import (
    CaseSource,
    DemoCases,
    DualState,
    EvenMap,
    Export,
    LockstepSpec,
    ObligationReport,
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
from y86sim.lockstep.fixtures import SLOT_COUNT
from y86sim.machine import Machine, correspondence
from y86sim.mem_paged import CHUNK, PagedMemory
from y86sim.mem_sparse import SparseMemory

from conftest import MalformedSparse, StrayPaged


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
    def store_with(update, *args):
        def bad_creator():
            store = SlotStore()
            update(store, *args)
            return store
        return bad_creator

    def field_of_one():
        one = OneField()
        one.set_fld(1)
        return one

    # Each correspondence names its first difference.
    for spec, bad_creator, difference in (
            (demo_spec(), store_with(SlotStore.set_slot, 17, 1),
             "slot 17 is 1 concrete vs 0 abstract"),
            (demo_spec(), store_with(SlotStore.set_misc, "x"),
             "misc is 'x' concrete vs None abstract"),
            (demo_spec(), OneField,
             "concrete side is not a 100-slot SlotStore"),
            (const_spec(), field_of_one, "fld is 1 concrete vs 0 abstract")):
        broken = LockstepSpec(
            name="broken",
            recognizer_logic=spec.recognizer_logic,
            creator_logic=spec.creator_logic,
            creator_exec=bad_creator,
            corr=spec.corr,
            exports=spec.exports,
        )
        with pytest.raises(CorrespondenceFailure) as info:
            DualState(broken)
        assert str(info.value).startswith(
            f"broken: creators do not produce corresponding states: "
            f"{difference}")
        # fast mode skips the creator check by design
        DualState(broken, mode="fast")


def test_corr_returning_a_bool_is_a_failure():
    # The contract is None or a text; a stale predicate never passes.
    for verdict in (True, False):
        stale = dataclasses.replace(demo_spec(), corr=lambda c, a: verdict)
        with pytest.raises(CorrespondenceFailure, match=f": {verdict}$"):
            DualState(stale)


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


# Arguments each export of the shipped specs accepts on a fresh state.
_VALID_ARGS = {
    "y86": {"rgfi": (1,), "!rgfi": (1, 5), "eip": (), "!eip": (0x100,),
            "memi": (0x10,), "!memi": (0x10, 7), "step": (), "run": (3,)},
    "demo-st": {"lookup": (3,), "update": (3, 4), "misc": (),
                "update-misc": ("x",)},
    "const-stobj": {"get-fld": (), "change-fld": ()},
}


@pytest.mark.parametrize("make", [y86_spec, demo_spec, const_spec])
def test_an_invoke_with_the_wrong_number_of_arguments_is_a_guard_violation(
        make):
    spec = make()
    dual = DualState(spec)
    valid_args = _VALID_ARGS[spec.name]
    assert set(valid_args) == {e.name for e in spec.exports}
    for name, valid in valid_args.items():
        for args in [valid + (0,)] + ([valid[:-1]] if valid else []):
            before = dual.concrete.update_count
            with pytest.raises(GuardViolation,
                               match=f"^export {re.escape(repr(name))}: "):
                dual.invoke(name, *args)
            assert dual.concrete.update_count == before and not dual.poisoned
        dual.invoke(name, *valid)
    assert dual.recognizer(audit=True)
    if spec.name == "y86":
        with pytest.raises(GuardViolation, match="^export 'rgfi': missing a "
                                                 "required argument: 'i'$"):
            dual.invoke("rgfi")


def test_a_guard_that_raises_type_error_on_arguments_that_fit_reraises_it():
    below = Export("below", "reader", logic_fn=lambda a, i: 0,
                   exec_fn=lambda c, i: 0, guard=lambda a, i: i < 3)
    dual = DualState(_spec_of(below))
    with pytest.raises(TypeError, match="'<' not supported"):
        dual.invoke("below", None)
    assert dual.invoke("below", 2) == 0


# ---------------------------------------------------------------------------
# atomicity protocol

def test_unprotected_double_update_raises():
    dual = DualState(const_spec(protect=False))
    with pytest.raises(AtomicityViolation) as err:
        dual.invoke("change-fld")
    assert "change-fld" in str(err.value)


def _demo_with_writing_reader(protect):
    """demo_spec() whose `lookup` stores the slot it reads back into it."""
    def lookup_exec(c, k):
        c.set_slot(k, c.slots[k])
        return c.slots[k]

    spec = demo_spec()
    return dataclasses.replace(spec, exports=tuple(
        dataclasses.replace(e, exec_fn=lookup_exec, protect=protect)
        if e.name == "lookup" else e for e in spec.exports))


@pytest.mark.parametrize("mode", ["check", "fast"])
def test_reader_is_held_to_no_updates_unless_protected(mode):
    dual = DualState(_demo_with_writing_reader(protect=False), mode=mode)
    with pytest.raises(AtomicityViolation,
                       match="export 'lookup' performed 1 primitive updates "
                             "but is not marked protect"):
        dual.invoke("lookup", 3)
    protected = DualState(_demo_with_writing_reader(protect=True), mode=mode)
    assert protected.invoke("lookup", 3) == 0
    assert not protected.poisoned


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


def test_guards_and_recognizers_share_one_range_rule():
    # A bool is refused by every guard and recognizer alike, so no guard
    # admits what the recognizer then rejects; 0, each bound minus 1 and
    # an IntEnum are admitted.
    demo = DualState(demo_spec())
    with pytest.raises(GuardViolation):
        demo.invoke("update", 3, False)
    with pytest.raises(GuardViolation):
        demo.invoke("lookup", True)
    demo.invoke("update", 0, 0)
    demo.invoke("update", SLOT_COUNT - 1, 2)
    assert demo.invoke("lookup", SLOT_COUNT - 1) == 2
    even = demo_spec().recognizer_logic
    assert not even(EvenMap(slots={True: 2}))
    assert not even(EvenMap(slots={1: False}))
    dual = DualState(y86_spec())
    for name, args in (("!memi", (0x10, True)), ("!rgfi", (True, 5)),
                       ("rgfi", (True,)), ("run", (True,))):
        with pytest.raises(GuardViolation):
            dual.invoke(name, *args)
    dual.invoke("!memi", 0xFFFFFFFF, 0xFF)
    dual.invoke("!memi", 0, 0)
    dual.invoke("!rgfi", Register.EDI, 0xFFFFFFFF)
    dual.invoke("!rgfi", 0, 5)
    assert dual.invoke("rgfi", Register.EDI) == 0xFFFFFFFF
    assert dual.invoke("rgfi", 0) == 5
    dual.invoke("run", 0)
    assert dual.recognizer(audit=True)


def test_y86_recognizer_refuses_a_flag_that_is_a_bool_or_a_float():
    recognizer = y86_spec().recognizer_logic
    m = Machine(SparseMemory())
    for zf in (0, 1):
        m.zf = zf
        assert recognizer(m)
    for bad in (True, False, 1.0, 2):
        m.zf = bad
        assert not recognizer(m)


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
    assert spec.corr(concrete, abstract) is None
    # Past 512 held bytes a stride sample would skip every other address.
    concrete.write_byte(0x101, concrete.read_byte(0x101) ^ 0x40)
    assert (spec.corr(concrete, abstract)
            == "memory at 0x101 is 0x41 concrete vs 0x01 abstract")


def test_y86_corr_finds_a_stray_byte_beside_a_zero_sparse_entry():
    # An entry of 0 must not cancel a stray paged byte in the nonzero-byte
    # count: the constructor drops it, so it is neither compared nor counted.
    concrete = Machine(PagedMemory())
    concrete.mem.write(0x200, 5)
    for mem in (SparseMemory({0x100: 0}), SparseMemory()):
        assert (correspondence(concrete, Machine(mem))
                == "memory at 0x200 is 0x05 concrete vs 0x00 abstract")
    abstract = Machine(SparseMemory({0x100: 0, 0x200: 5}))
    assert correspondence(concrete, abstract) is None


def test_y86_corr_fails_closed_when_the_counts_disagree(monkeypatch):
    # A pagemap that reads but names no page hides the stray byte at 0x5000
    # from every page walk; the counts still differ, and that is named.
    concrete, abstract = Machine(PagedMemory()), Machine(SparseMemory())
    for m in (concrete, abstract):
        m.write_byte(0x100, 7)
    concrete.mem.write(0x5000, 9)
    assert (correspondence(concrete, abstract)
            == "memory at 0x5000 is 0x09 concrete vs 0x00 abstract")
    monkeypatch.setattr("y86sim.mem_paged._mapped_pages",
                        lambda data: bytes(len(data) // CHUNK))
    assert (correspondence(concrete, abstract) == "nonzero byte count is 0 "
            "concrete vs 1 abstract, and no page named differs")


def test_y86_malformed_memory_is_caught_by_preservation_alone():
    # This !memi stores 1 on the concrete side, and on the abstract side an
    # entry that reads as 1 but is not an int, which neither the constructor
    # nor `write` of `SparseMemory` stores.  Both sides read 1 there, so the
    # pair corresponds; the recognizer, checked as the PRESERVED obligation,
    # rejects the map.  An entry of 0 would not do: a whole comparison, as
    # `DualState` makes, counts every entry as a held byte.
    spec = y86_spec()

    class ReadsAsOne:
        def __index__(self):
            return 1

    def keep_non_int_entry(a, i, v):
        m = a.copy()
        m.mem = MalformedSparse({**dict(m.mem.items()), i: ReadsAsOne()})
        return m

    exports = tuple(
        dataclasses.replace(e, logic_fn=keep_non_int_entry,
                            exec_fn=lambda c, i, v: c.write_byte(i, 1))
        if e.name == "!memi" else e
        for e in spec.exports)
    variant = dataclasses.replace(spec, name="y86[non-int-entry]",
                                  exports=exports)
    report = check_obligations(variant, Y86Cases(), n_cases=40, seed=5)
    assert report.outcome("!memi{PRESERVED}").failures
    assert not report.outcome("!memi{CORRESPONDENCE}").failures
    # DualState checks correspondence first, then the recognizer.
    with pytest.raises(PreservationFailure):
        DualState(variant).invoke("!memi", 0x10, 5)


def test_y86_flags_that_are_not_bits_are_caught_by_preservation_alone():
    # This !eip also sets zf to 2 on both sides.  The pair corresponds,
    # since both hold the same flags; the recognizer, checked as the
    # PRESERVED obligation, rejects a flag that is not a bit.
    spec = y86_spec()

    def set_eip_and_bad_zf(m, v):
        m.set_eip(v)
        m.zf = 2

    def logic(a, v):
        m = a.copy()
        set_eip_and_bad_zf(m, v)
        return m

    exports = tuple(
        dataclasses.replace(e, logic_fn=logic, exec_fn=set_eip_and_bad_zf)
        if e.name == "!eip" else e
        for e in spec.exports)
    variant = dataclasses.replace(spec, name="y86[zf-2]", exports=exports)
    report = check_obligations(variant, Y86Cases(), n_cases=40, seed=5)
    assert report.outcome("!eip{PRESERVED}").failures
    assert not report.outcome("!eip{CORRESPONDENCE}").failures


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


def test_y86_recognizer_scan_costs_later_stores_nothing(counted_sparse):
    spec = y86_spec()
    mem, data = counted_sparse({0x100 + i: 7 for i in range(3000)})
    a = Machine(mem)
    a.write_byte(0, 1)
    assert spec.recognizer_logic(a) and data.scans == 0
    for addr in range(1, 200):
        a.write_byte(addr, 2)
    assert spec.recognizer_logic(a) and data.scans == 0
    assert a.read_byte(0) == 1 and a.read_byte(199) == 2 and len(a.mem) == 3200


def test_y86_recognizer_reads_no_entry_of_a_history_sparsememory_began(
        counted_sparse):
    spec = y86_spec()
    mem, data = counted_sparse({0x100 + i: 7 for i in range(3000)})
    m = Machine(mem)
    m.write_byte(0x100, 0)
    assert spec.recognizer_logic(m) and spec.recognizer_logic(Machine(mem))
    assert spec.recognizer_logic(m) and data.scans == 0
    # A map that no constructor built is rejected for its entry of 0 alone.
    entries = {0x100 + i: 7 for i in range(3000)}
    assert spec.recognizer_logic(Machine(MalformedSparse(entries)))
    entries[0x101] = 0
    assert not spec.recognizer_logic(Machine(MalformedSparse(entries)))


def test_y86_pool_pairs_correspond_and_are_recognized():
    spec = y86_spec()
    source = Y86Cases()
    names = [e.name for e in spec.exports]
    rng = random.Random(3)
    for i in range(2000):
        c, a, _ = source.draw(names[i % len(names)], rng)
        c._step_writes = a._step_writes = None  # compare the pair whole
        assert correspondence(c, a) is None, i
        assert spec.recognizer_logic(a), i
        if i % 41 == 40:
            source.mark_failure()


def test_y86_suite_holds_no_machine_of_the_previous_case_at_the_next_draw():
    class WeakMachine(Machine):
        __slots__ = ("__weakref__",)

    class ResetEveryDraw(Y86Cases):
        """Drops its pool at each draw, then asserts that the previous
        case's two machines died with it."""

        previous = ()

        def _fresh(self):
            return [WeakMachine(PagedMemory()), WeakMachine(SparseMemory())]

        def draw(self, export_name, rng):
            self._pair = None
            assert all(ref() is None for ref in self.previous)
            concrete, abstract, args = super().draw(export_name, rng)
            self.previous = (weakref.ref(concrete), weakref.ref(abstract))
            return concrete, abstract, args

    source = ResetEveryDraw()
    report = check_obligations(y86_spec(), source, n_cases=20, seed=4)
    assert report.ok, report.to_text()
    assert source._drawn == 20 * len(y86_spec().exports)


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


def test_y86_suite_names_what_differs(monkeypatch):
    # A paged backend that drops every store whose address ends in 0x5c.
    write = PagedMemory.write

    def drop_5c(self, addr, value):
        return write(self, addr, 0 if addr & 0xFF == 0x5C else value)

    monkeypatch.setattr(PagedMemory, "write", drop_5c)
    report = check_obligations(y86_spec(), Y86Cases(), 300, seed=1)
    messages = [f.message for o in report.outcomes for f in o.failures
                if o.name.endswith("{CORRESPONDENCE}")]
    assert messages
    for message in messages:
        assert re.search(r": (%e[a-z]{2}|eip|flags|status|"
                         r"memory at 0x[0-9a-f]*5c) is ", message), message


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_y86_suite_finds_the_stray_write_mutant_in_the_pool_history(
        monkeypatch, seed):
    # Each stray store bypasses `Machine.write_byte`, so no case's write set
    # holds it; the whole check of a retiring pool pair names it.
    monkeypatch.setattr("y86sim.lockstep.fixtures.PagedMemory", StrayPaged)
    report = check_obligations(y86_spec(), Y86Cases(), 300, seed)
    history = [f for o in report.outcomes for f in o.failures
               if o.name.endswith("{CORRESPONDENCE}")
               and f.message.startswith("pool history: memory at ")]
    assert history, report.to_text()
    assert all(f.args == "()" for f in history)


def _write_byte_keeping_a_stale_cache(self, addr, value):
    # `Machine.write_byte` that never drops a decode cache holding `addr`.
    self.mem = self.mem.write(addr, value)
    if self._step_writes is not None:
        self._step_writes.add(addr)


@pytest.mark.parametrize("seed", [1, 2, 3, 7])
def test_y86_suite_finds_a_decode_cache_that_misses_a_store(monkeypatch,
                                                            seed):
    # Every machine runs the mutant, but each logic side is a copy that
    # starts with an empty decode cache, so it runs the bytes its memory
    # holds while the exec side runs what it decoded before a store.
    monkeypatch.setattr(Machine, "write_byte",
                        _write_byte_keeping_a_stale_cache)
    report = check_obligations(y86_spec(), Y86Cases(), 300, seed)
    failed = {o.name for o in report.outcomes if o.failures}
    assert failed, report.to_text()
    assert failed <= {"step{CORRESPONDENCE}", "run{CORRESPONDENCE}"}, (
        report.to_text())


def test_a_pool_history_failure_names_the_draws_of_its_pair(monkeypatch):
    # Draws run export by export, 300 each.  A failing retirement at draw
    # 250 drops the pair, so the next draw builds one, and so on.
    monkeypatch.setattr("y86sim.lockstep.fixtures.PagedMemory", StrayPaged)
    spec = y86_spec()
    names = [e.name for e in spec.exports]
    report = check_obligations(spec, Y86Cases(), 300, seed=1)
    draws = []
    for o in report.outcomes:
        for f in o.failures:
            match = re.fullmatch(r"pool history: memory at 0x[0-9a-f]+ is .*; "
                                 r"pair built at draw (\d+), retired at "
                                 r"draw (\d+)", f.message)
            assert match, f.message
            built, retired = int(match[1]), int(match[2])
            export = o.name.removesuffix("{CORRESPONDENCE}")
            assert retired == 300 * names.index(export) + f.case
            draws.append((built, retired))
    assert draws == [(0, 250)] + [(k + 1, k + 250)
                                  for k in range(250, 2250, 250)]


@pytest.mark.parametrize("mutant", ["stray-write", "stale-decode-cache"])
def test_a_y86_failure_replays_from_its_suite_seed_and_case(monkeypatch,
                                                            mutant):
    # A failure names its suite seed, obligation and case index.  One
    # generator per export and a pool built only from that stream make a
    # re-run on a fresh source reach each case from the same pre-state.
    if mutant == "stray-write":
        monkeypatch.setattr("y86sim.lockstep.fixtures.PagedMemory",
                            StrayPaged)
    else:
        monkeypatch.setattr(Machine, "write_byte",
                            _write_byte_keeping_a_stale_cache)
    first = check_obligations(y86_spec(), Y86Cases(), 300, seed=7)
    failures = [f for o in first.outcomes for f in o.failures]
    assert failures, first.to_text()
    again = check_obligations(y86_spec(), Y86Cases(), 300, failures[0].seed)
    assert again.to_records() == first.to_records()
    for f in failures:
        assert f.seed == 7
        assert [g.message for g in again.outcome(f.obligation).failures
                if g.case == f.case] == [f.message]


@pytest.mark.parametrize("make", [
    lambda: (y86_spec(), Y86Cases()),
    lambda: (demo_spec(), DemoCases(demo_spec())),
], ids=["y86", "demo-st"])
def test_a_suite_builds_one_generator_per_export(monkeypatch, make):
    seeds = []

    class CountingRandom(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr("y86sim.lockstep.core.Random", CountingRandom)
    spec, source = make()
    report = check_obligations(spec, source, 100, seed=1)
    assert report.ok, report.to_text()
    assert len(seeds) == len(set(seeds)) == len(spec.exports)


def test_y86_suite_names_the_store_a_logic_side_adds():
    # This !memi logic side also zeroes the byte at eip.  Its copy records
    # into the case's write set, so the case compares that address.
    def write_and_zero_eip(a, i, v):
        m = a.copy()
        m.write_byte(i, v)
        m.write_byte(m.eip, 0)
        return m

    variant = _with_export(y86_spec(), "!memi", logic_fn=write_and_zero_eip)
    report = check_obligations(variant, Y86Cases(), 300, seed=1)
    named = {re.search(r": memory at (0x[0-9a-f]+) is ", f.message)[1]
             for f in report.outcome("!memi{CORRESPONDENCE}").failures}
    assert named - {"0x0"}, report.to_text()


def test_a_y86_pair_that_evolve_leaves_half_updated_is_not_checked():
    # Each raise rebuilds the pair, which was not retired on schedule, so
    # its stray byte at 0x100 is never compared.
    class HalfEvolve(Y86Cases):
        def _evolve(self, concrete, abstract, rng):
            concrete.write_byte(0x100, 1)
            raise RuntimeError("seeded")

    report = check_obligations(y86_spec(), HalfEvolve(), 40, seed=1)
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


class _FixedArgs(CaseSource):
    """Every case of every export gets `args`, on an unchanging pair."""

    RESET_EVERY = 10

    def __init__(self, args):
        super().__init__()
        self.args = args

    def _fresh(self):
        return [0, 0]

    def _evolve(self, concrete, abstract, rng):
        return abstract

    def _args_for(self, name, rng, abstract):
        return self.args

    def snapshot(self, concrete, abstract):
        return concrete, abstract


def test_shrinking_minimizes_counterexample():
    spec = demo_spec(corrupt="odd-logic")
    report = check_obligations(spec, DemoCases(spec), n_cases=300, seed=9)
    shrunk = [f.shrunk_args for o in report.outcomes for f in o.failures
              if f.shrunk_args]
    assert shrunk
    # The minimal failing update is index 0, value 0.
    assert "(0, 0)" in shrunk
    # A negative argument shrinks by magnitude.  The exec side of `clamp`
    # returns 0 for a negative argument, so every negative argument fails
    # and no other does: -1 is the smallest failing one.
    clamp = LockstepSpec(
        name="clamp", recognizer_logic=lambda a: True,
        creator_logic=lambda: 0, creator_exec=lambda: 0,
        corr=lambda c, a: None,
        exports=(Export("clamp", "reader", logic_fn=lambda a, v: v,
                        exec_fn=lambda c, v: max(v, 0),
                        guard=lambda a, v: isinstance(v, int)),))
    for args, want in (((-5,), {"(-1,)"}), ((-64,), {"(-1,)"}), ((5,), set())):
        report = check_obligations(clamp, _FixedArgs(args), n_cases=3, seed=1)
        assert {f.shrunk_args for o in report.outcomes
                for f in o.failures} == want


def test_shrinking_skips_a_candidate_the_guard_rejects():
    # Every argument fails, 0 too, but the guard rejects 0, so the shrinker
    # never evaluates it and stops at 1.
    evaluated = []
    off_by_one = LockstepSpec(
        name="off-by-one", recognizer_logic=lambda a: True,
        creator_logic=lambda: 0, creator_exec=lambda: 0,
        corr=lambda c, a: None,
        exports=(Export("inc", "reader", logic_fn=lambda a, v: v,
                        exec_fn=lambda c, v: evaluated.append(v) or v + 1,
                        guard=lambda a, v: v != 0),))
    report = check_obligations(off_by_one, _FixedArgs((40,)), n_cases=1,
                               seed=1)
    assert [f.shrunk_args for o in report.outcomes
            for f in o.failures] == ["(1,)"]
    assert 0 not in evaluated and evaluated[:3] == [40, 20, 10]


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


def _with_export(spec, name, **changes):
    """`spec` with the fields `changes` of export `name` replaced."""
    return dataclasses.replace(spec, exports=tuple(
        dataclasses.replace(e, **changes) if e.name == name else e
        for e in spec.exports))


def _raise(exc):
    def fn(*args):
        raise exc("seeded")
    return fn


@pytest.mark.parametrize("side, exc, text", [
    ("exec_fn", RuntimeError, "exec raised RuntimeError: seeded"),
    ("logic_fn", KeyError, "logic raised KeyError: 'seeded'"),
])
def test_a_raising_export_is_recorded_not_raised(side, exc, text):
    # Pool evolution never calls lookup, so only its own cases meet it.
    spec = _with_export(demo_spec(), "lookup", **{side: _raise(exc)})
    report = check_obligations(spec, DemoCases(spec), 10, seed=1)
    failures = report.outcome("lookup{CORRESPONDENCE}").failures
    assert [f.message for f in failures] == [text] * 10
    assert report.total_failures == 10


def test_report_text_lists_five_failures_then_the_rest():
    spec = _with_export(demo_spec(), "lookup", exec_fn=_raise(RuntimeError))
    report = check_obligations(spec, DemoCases(spec), 8, seed=1)
    lines = report.to_text().splitlines()
    start = lines.index("  lookup{CORRESPONDENCE}: 8 cases, 8 FAILED") + 1
    for case, line in enumerate(lines[start:start + 5]):
        assert re.fullmatch(rf"    case {case} seed=\d+ args=\(\d+,\) "
                            r"shrunk=\(0,\): exec raised RuntimeError: seeded",
                            line), line
    assert lines[start + 5] == "    ... 3 more"


@pytest.mark.parametrize("side, exc", [("exec_fn", RuntimeError),
                                       ("logic_fn", KeyError)])
def test_a_raising_update_during_pool_evolution_ends_the_pair(side, exc):
    # Either way the concrete store happens before the raise, so the pair
    # left behind no longer corresponds.
    def store_then_raise(c, k, v):
        c.set_slot(k, v)
        raise exc("seeded")

    spec = _with_export(demo_spec(), "update", **{
        side: store_then_raise if side == "exec_fn" else _raise(exc)})
    report = check_obligations(spec, DemoCases(spec), 20, seed=1)
    failures = report.outcome("update{CORRESPONDENCE}").failures
    assert len(failures) == 20
    assert all(f.message.startswith(f"{side[:-3]} raised {exc.__name__}")
               for f in failures)
    for outcome in report.outcomes:
        if outcome.name.split("{")[0] in ("lookup", "misc", "update-misc"):
            assert not outcome.failures, report.to_text()


def test_y86_creators_of_two_sparse_machines_fail_correspondence():
    spec = dataclasses.replace(y86_spec(),
                               creator_exec=lambda: Machine(SparseMemory()))
    report = check_obligations(spec, Y86Cases(), 0)
    [failure] = report.outcome("create{CORRESPONDENCE}").failures
    assert failure.message.endswith(
        "the pair is not a paged machine and a sparse one")
    assert report.total_failures == 1


def test_created_value_the_recognizer_rejects_fails_preservation():
    # Slot 100 is past the store, so the correspondence never reads it.
    spec = dataclasses.replace(
        demo_spec(), creator_logic=lambda: EvenMap(slots={SLOT_COUNT: 0}))
    report = check_obligations(spec, DemoCases(spec), 0)
    [failure] = report.outcome("create{PRESERVED}").failures
    assert failure.message == "created abstract value fails the recognizer"
    assert report.total_failures == 1


def test_case_source_contract_enforced():
    spec = demo_spec()

    class BadSource(DemoCases):
        def draw(self, export_name, rng):
            concrete, abstract, _ = super().draw(export_name, rng)
            return concrete, abstract, (-1,) if export_name == "lookup" else ()

    with pytest.raises(ValueError):
        check_obligations(spec, BadSource(spec), n_cases=5, seed=0)


_GET = Export("get", "reader", logic_fn=lambda a: a, exec_fn=lambda c: c,
              guard=lambda a: True)


def _spec_of(*exports):
    return LockstepSpec("bad", lambda a: True, lambda: 0, lambda: 0,
                        lambda c, a: None, exports)


@pytest.mark.parametrize("call, error, match", [
    (lambda: _spec_of(_GET, _GET), ValueError, "duplicate export names"),
    (lambda: _spec_of(dataclasses.replace(_GET, kind="writer")), ValueError,
     "export 'get': bad kind 'writer'"),
    (lambda: DualState(demo_spec(), mode="x"), ValueError,
     "mode must be 'check' or 'fast'"),
    (lambda: demo_spec(corrupt="x"), ValueError, "unknown corruption 'x'"),
    (lambda: ObligationReport("s", 0, []).outcome("missing"), KeyError,
     "missing"),
    (lambda: cond_holds(7, 0, 0, 0), ValueError, "undefined condition 7"),
    (lambda: alu_bits(4, 0, 0), ValueError, "undefined ALU function 4"),
    (lambda: DemoCases(demo_spec())._args_for("nope", random.Random(0),
                                              EvenMap()), KeyError, "nope"),
    (lambda: Y86Cases()._args_for("nope", random.Random(0), None), KeyError,
     "nope"),
], ids=["duplicate-export", "writer-kind", "dualstate-mode",
        "demo-corruption", "missing-outcome", "cond-holds", "alu-bits",
        "demo-args-for", "y86-args-for"])
def test_registration_and_argument_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()

"""Built-in dual-representation objects and their case generators.

Three registrations ship with the package:

  demo_spec()    a 100-slot store with a misc field; concretely a plain
                 array, abstractly a finite map whose values must be even
                 naturals (a stronger invariant than the concrete side
                 imposes).  Supports seeded corruptions for mutation
                 testing of the obligation suites.

  const_spec()   a single-field object whose updater writes 1 and then 0
                 with an optional injected abort in between; the smallest
                 object that demonstrates why multi-update exports need
                 protection.

  y86_spec()     the machine itself: a paged-memory machine as the
                 concrete state, a sparse-memory machine as the abstract
                 one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

from ..errors import InjectedFault
from ..isa import (
    MASK32, MNEMONICS, OPERANDS, Flags, Instruction, Register, Status, encode,
    is_nat, is_word,
)
from ..machine import Machine, correspondence
from ..mem_paged import MEM_SIZE, PagedMemory
from ..mem_sparse import SparseMemory
from .core import CaseSource, DualState, Export, LockstepSpec

__all__ = [
    "SLOT_COUNT", "SlotStore", "EvenMap", "demo_spec", "DemoCases",
    "OneField", "const_spec", "raise_injected_fault",
    "unsound_const_demo",
    "y86_spec", "Y86Cases",
]


# ---------------------------------------------------------------------------
# demo object

SLOT_COUNT = 100


class SlotStore:
    """Concrete store: a fixed array of arbitrary values plus a misc field."""

    __slots__ = ("slots", "misc", "update_count")

    def __init__(self):
        self.slots = [0] * SLOT_COUNT
        self.misc = None
        self.update_count = 0

    def get_slot(self, k):
        return self.slots[k]

    def set_slot(self, k, v):
        self.slots[k] = v
        self.update_count += 1

    def get_misc(self):
        return self.misc

    def set_misc(self, v):
        self.misc = v
        self.update_count += 1

    def copy(self) -> "SlotStore":
        dup = SlotStore.__new__(SlotStore)
        dup.slots = list(self.slots)
        dup.misc = self.misc
        dup.update_count = self.update_count
        return dup


@dataclass(frozen=True)
class EvenMap:
    """Abstract store: misc value plus a finite map of slot values."""

    misc: Any = None
    slots: dict[int, int] = field(default_factory=dict)


def even_lookup(a: EvenMap, k: int):
    return a.slots.get(k, 0)


def even_update(a: EvenMap, k: int, v: int) -> EvenMap:
    new = dict(a.slots)
    new[k] = v
    return EvenMap(a.misc, new)


def even_misc(a: EvenMap):
    return a.misc


def even_update_misc(a: EvenMap, v) -> EvenMap:
    return EvenMap(v, dict(a.slots))


def even_recognizer(a) -> bool:
    return isinstance(a, EvenMap) and all(
        is_nat(k, SLOT_COUNT) and is_nat(v) and v % 2 == 0
        for k, v in a.slots.items()
    )


def _demo_corr(c, a, compared: int = SLOT_COUNT) -> str | None:
    """None when misc and the first `compared` slots agree, else the first
    difference.  Every caller checks the recognizer next, as PRESERVED."""
    if not (isinstance(c, SlotStore) and len(c.slots) == SLOT_COUNT):
        return f"concrete side is not a {SLOT_COUNT}-slot SlotStore"
    if c.misc != a.misc:
        return f"misc is {c.misc!r} concrete vs {a.misc!r} abstract"
    for i in range(compared):
        if c.slots[i] != even_lookup(a, i):
            return (f"slot {i} is {c.slots[i]!r} concrete vs "
                    f"{even_lookup(a, i)!r} abstract")
    return None


def demo_spec(corrupt: str | None = None) -> LockstepSpec:
    """The demo object, optionally with one seeded defect.

    corrupt="blind-corr": correspondence predicate ignores slot 99 while
    the concrete updater silently corrupts it (caught by the reader
    correspondence obligation).
    corrupt="odd-logic": logic update stores v+1 (caught by preservation).
    corrupt="wide-guard": abstract guard admits indexes past the concrete
    array (caught by the guard obligation).
    """
    if corrupt not in (None, "blind-corr", "odd-logic", "wide-guard"):
        raise ValueError(f"unknown corruption {corrupt!r}")

    index_bound = SLOT_COUNT
    corr = _demo_corr
    update_logic: Callable = even_update

    def update_exec(c, k, v):
        c.set_slot(k, v)

    if corrupt == "blind-corr":
        def corr(c, a):
            return _demo_corr(c, a, SLOT_COUNT - 1)

        def update_exec(c, k, v):
            c.set_slot(k, v)
            c.slots[99] = 1  # silent corruption, bypassing the counter
    elif corrupt == "odd-logic":
        def update_logic(a, k, v):
            return even_update(a, k, v + 1)
    elif corrupt == "wide-guard":
        index_bound = SLOT_COUNT + 20

    def index_ok(k):
        return is_nat(k, index_bound)

    exports = (
        Export(
            "lookup", "reader",
            logic_fn=even_lookup,
            exec_fn=SlotStore.get_slot,
            guard=lambda a, k: index_ok(k),
            exec_guard=lambda c, k: 0 <= k < len(c.slots),
        ),
        Export(
            "update", "updater",
            logic_fn=update_logic,
            exec_fn=update_exec,
            guard=lambda a, k, v: index_ok(k) and is_nat(v) and v % 2 == 0,
            exec_guard=lambda c, k, v: 0 <= k < len(c.slots),
        ),
        Export(
            "misc", "reader",
            logic_fn=even_misc,
            exec_fn=SlotStore.get_misc,
            guard=lambda a: True,
        ),
        Export(
            "update-misc", "updater",
            logic_fn=even_update_misc,
            exec_fn=SlotStore.set_misc,
            guard=lambda a, v: True,
        ),
    )
    return LockstepSpec(
        name="demo-st" if corrupt is None else f"demo-st[{corrupt}]",
        recognizer_logic=even_recognizer,
        creator_logic=EvenMap,
        creator_exec=SlotStore,
        corr=corr,
        exports=exports,
    )


class DemoCases(CaseSource):
    """Pooled pair evolved through the spec's own exports.

    Interleaving updates with reader cases lets a corruption planted by a
    defective updater surface in a later reader obligation, which is how
    the blind-corr mutation is caught.
    """

    _MISC_VALUES = (None, 0, 1, "tag", (1, 2))
    RESET_EVERY = 200

    def __init__(self, spec: LockstepSpec):
        super().__init__()
        self.spec = spec
        self._by_name = {e.name: e for e in spec.exports}

    # Defined on the class itself, so that it can be patched per source.
    draw = CaseSource.draw

    def _fresh(self):
        return [self.spec.creator_exec(), self.spec.creator_logic()]

    def _evolve(self, concrete, abstract, rng):
        name = rng.choice(("update", "update-misc"))
        export = self._by_name[name]
        args = self._args_for(name, rng, abstract)
        # Advancement must not crash on defective registrations whose
        # exec precondition is narrower than the guard.
        if export.exec_guard is not None and not export.exec_guard(concrete, *args):
            return abstract
        export.exec_fn(concrete, *args)
        return export.logic_fn(abstract, *args)

    def _args_for(self, name, rng, abstract):
        if name in ("lookup", "update"):
            export = self._by_name[name]
            for _ in range(200):
                k = rng.randrange(SLOT_COUNT + 40)
                probe = (k,) if name == "lookup" else (k, 0)
                if export.guard(abstract, *probe):
                    break
            else:
                raise RuntimeError("no guard-satisfying index found")
            if name == "lookup":
                return (k,)
            return (k, rng.randrange(0, 1000) & ~1)
        if name in ("misc", "update-misc"):
            args = () if name == "misc" else (rng.choice(self._MISC_VALUES),)
            return args
        raise KeyError(name)

    def snapshot(self, concrete, abstract):
        # The abstract value is immutable; sharing it is safe.
        return concrete.copy(), abstract


# ---------------------------------------------------------------------------
# abort-prone single-field object

class OneField:
    """Concrete side: one integer field, instrumented."""

    __slots__ = ("fld", "update_count")

    def __init__(self):
        self.fld = 0
        self.update_count = 0

    def get_fld(self):
        return self.fld

    def set_fld(self, v):
        self.fld = v
        self.update_count += 1


def raise_injected_fault():
    raise InjectedFault("armed abort between the two field stores")


def const_spec(protect: bool = True,
               fault: Callable[[], None] | None = None) -> LockstepSpec:
    """Single-field object whose updater stores 1, maybe aborts, stores 0.

    Logically the update leaves the abstract value at 0, so an abort
    between the two stores leaves the representations disagreeing; this is
    the scenario the protect/poison protocol exists for.  With
    protect=False, completing the double store trips the dynamic
    atomicity check instead.
    """

    def change_exec(c):
        c.set_fld(1)
        if fault is not None:
            fault()
        c.set_fld(0)

    exports = (
        Export(
            "get-fld", "reader",
            logic_fn=lambda a: 0,
            exec_fn=OneField.get_fld,
            guard=lambda a: True,
        ),
        Export(
            "change-fld", "updater",
            logic_fn=lambda a: 0,
            exec_fn=change_exec,
            guard=lambda a: True,
            protect=protect,
        ),
    )
    return LockstepSpec(
        name="const-stobj",
        recognizer_logic=lambda a: a == 0,
        creator_logic=lambda: 0,
        creator_exec=OneField,
        corr=lambda c, a: (
            None if isinstance(c, OneField) and c.fld == 0 and a == 0
            else f"fld is {getattr(c, 'fld', c)!r} concrete vs {a!r} "
                 f"abstract; both must be 0"),
        exports=exports,
    )


def unsound_const_demo() -> DualState:
    """Quarantined demonstration of what the protocol prevents.

    Fast mode, no protection, armed abort: invoking change-fld raises
    InjectedFault mid-update, and a following get-fld observes 1 even
    though the operation is logically the constant 0.  Never use this
    configuration outside demonstrations.
    """
    spec = const_spec(protect=False, fault=raise_injected_fault)
    return DualState(spec, mode="fast")


# ---------------------------------------------------------------------------
# the Y86 machine as a registered dual object

_RUN_CAP = 64


def _y86_recognizer(a) -> bool:
    return (
        isinstance(a, Machine)
        and isinstance(a.mem, SparseMemory)
        and a.mem.wellformed()
        and len(a.regs) == 8
        and all(map(is_word, a.regs))
        and is_word(a.eip)
        and is_nat(a.zf, 2) and is_nat(a.sf, 2) and is_nat(a.of, 2)
        and isinstance(a.status, Status)
    )


def _logic(mutate: Callable) -> Callable:
    """Lift an in-place machine mutation to an applicative logic function."""

    def fn(a, *args):
        m = a.copy()
        mutate(m, *args)
        return m

    return fn


def y86_spec() -> LockstepSpec:
    """The machine registration: paged concrete state, sparse abstract one.

    The memory updater is protected because a write into an unallocated
    block performs several primitive updates (table entry, growth, cursor,
    store).  Step and run mutate several machine fields per instruction
    and are protected for the same reason; being protected, they are never
    held to an update count, so `Machine.update_count` tallies only the
    single-field updaters and the memory, not the fields they change.
    """
    exports = (
        Export(
            "rgfi", "reader",
            logic_fn=lambda a, i: a.regs[i],
            exec_fn=lambda c, i: c.regs[i],
            guard=lambda a, i: is_nat(i, 8),
            exec_guard=lambda c, i: 0 <= i < len(c.regs),
        ),
        Export(
            "!rgfi", "updater",
            logic_fn=_logic(Machine.set_reg),
            exec_fn=Machine.set_reg,
            guard=lambda a, i, v: is_nat(i, 8) and is_word(v),
            exec_guard=lambda c, i, v: 0 <= i < len(c.regs),
        ),
        Export(
            "eip", "reader",
            logic_fn=lambda a: a.eip,
            exec_fn=lambda c: c.eip,
            guard=lambda a: True,
        ),
        Export(
            "!eip", "updater",
            logic_fn=_logic(Machine.set_eip),
            exec_fn=Machine.set_eip,
            guard=lambda a, v: is_word(v),
        ),
        Export(
            "memi", "reader",
            logic_fn=Machine.read_byte,
            exec_fn=Machine.read_byte,
            guard=lambda a, i: is_word(i),
            exec_guard=lambda c, i: 0 <= i < MEM_SIZE,
        ),
        Export(
            "!memi", "updater",
            logic_fn=_logic(Machine.write_byte),
            exec_fn=Machine.write_byte,
            guard=lambda a, i, v: is_word(i) and is_nat(v, 256),
            exec_guard=lambda c, i, v: 0 <= i < MEM_SIZE,
            protect=True,
        ),
        Export(
            "step", "updater",
            logic_fn=_logic(Machine.step),
            exec_fn=Machine.step,
            guard=lambda a: True,
            protect=True,
        ),
        Export(
            "run", "updater",
            logic_fn=_logic(Machine.run),
            exec_fn=Machine.run,
            guard=lambda a, k: is_nat(k, _RUN_CAP + 1),
            protect=True,
        ),
    )
    return LockstepSpec(
        name="y86",
        recognizer_logic=_y86_recognizer,
        creator_logic=lambda: Machine(SparseMemory()),
        creator_exec=lambda: Machine(PagedMemory()),
        corr=correspondence,
        exports=exports,
    )


# Kinds in opcode order; each kind's function nibbles in nibble order.
_KINDS = tuple(OPERANDS)
_KIND_FNS = {kind: [fn for k, fn in MNEMONICS.values() if k is kind]
             for kind in _KINDS}


def _random_instruction(rng: random.Random, value_dist) -> Instruction:
    kind = rng.choice(_KINDS)
    ra = rng.randrange(8)
    rb = rng.randrange(8)
    value = value_dist(rng) if rng.random() < 0.8 else rng.getrandbits(13)
    fns = _KIND_FNS[kind]
    fn = rng.choice(fns) if len(fns) > 1 else 0
    slots = set(OPERANDS[kind])
    return Instruction(
        kind, fn,
        ra=ra if "ra" in slots else Register.NONE,
        rb=rb if slots & {"rb", "mem"} else Register.NONE,
        value=value if slots & {"imm", "dest", "mem"} else 0)


class Y86Cases(CaseSource):
    """Pool of corresponding machine pairs.

    The pool advances by drawing each primitive update once and applying
    it to both sides, which preserves correspondence by construction
    regardless of export correctness.  Generated addresses and register
    values stay within a couple of 16MB blocks so executed instruction
    soup cannot allocate pages all over the 4GB space, and the periodic
    resets bound the blocks that arithmetic drift reaches.  A drawn pair
    and the logic side's copies share a fresh write set, so a case
    compares its own stores.  `_retire` compares a pair retired on
    schedule whole, so `draw` names a store no write set saw; the periodic
    resets bound the history one check covers.
    """

    BLOCKS = (0, 1)
    RESET_EVERY = 250

    def _addr(self, rng) -> int:
        return (rng.choice(self.BLOCKS) << 24) | rng.getrandbits(24)

    def _value(self, rng) -> int:
        # Register contents double as address bases during execution.
        return self._addr(rng) if rng.random() < 0.7 else rng.getrandbits(13)

    def draw(self, export_name, rng):
        concrete, abstract, args = super().draw(export_name, rng)
        concrete._step_writes = abstract._step_writes = set()
        return concrete, abstract, args

    def _fresh(self):
        return [Machine(PagedMemory()), Machine(SparseMemory())]

    def _retire(self, concrete, abstract):
        concrete._step_writes = abstract._step_writes = None
        return correspondence(concrete, abstract)

    def _evolve(self, concrete, abstract, rng):
        op = rng.randrange(8)
        if op <= 1:
            updates = [(Machine.write_byte,
                        (self._addr(rng), rng.getrandbits(8)))]
        elif op == 2:
            updates = [(Machine.set_reg, (rng.randrange(8), self._value(rng)))]
        elif op == 3:
            updates = [(Machine.set_eip, (self._addr(rng),))]
        elif op == 4:
            updates = [(Machine.set_flags, (Flags(
                rng.getrandbits(1), rng.getrandbits(1), rng.getrandbits(1)),))]
        elif op == 5:
            st = Status.AOK if rng.random() < 0.75 else rng.choice(
                (Status.HLT, Status.INS))
            updates = [(Machine.set_status, (st,))]
        else:
            # Plant a valid instruction at eip so step/run do real work.
            raw = encode(_random_instruction(rng, self._value))
            updates = [(Machine.write_byte, ((concrete.eip + k) & MASK32, b))
                       for k, b in enumerate(raw)]
            if rng.random() < 0.9:
                updates.append((Machine.set_status, (Status.AOK,)))
        for machine in (concrete, abstract):
            for update, args in updates:
                update(machine, *args)
        return abstract

    def _args_for(self, name, rng, abstract):
        if name == "rgfi":
            return (rng.randrange(8),)
        if name == "!rgfi":
            return (rng.randrange(8), self._value(rng))
        if name == "eip" or name == "step":
            return ()
        if name == "!eip":
            return (self._addr(rng),)
        if name == "memi":
            return (self._addr(rng),)
        if name == "!memi":
            return (self._addr(rng), rng.getrandbits(8))
        if name == "run":
            cap = 24 if rng.random() < 0.8 else _RUN_CAP
            return (rng.randrange(cap + 1),)
        raise KeyError(name)

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
)
from ..machine import Machine, memory_mismatch, state_mismatch
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

    def __init__(self, size: int = SLOT_COUNT):
        self.slots = [0] * size
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
        isinstance(k, int) and 0 <= k < SLOT_COUNT
        and isinstance(v, int) and not isinstance(v, bool)
        and v >= 0 and v % 2 == 0
        for k, v in a.slots.items()
    )


def _demo_corr(c, a) -> bool:
    return (
        isinstance(c, SlotStore) and len(c.slots) == SLOT_COUNT
        and even_recognizer(a)
        and c.misc == a.misc
        and all(c.slots[i] == even_lookup(a, i) for i in range(SLOT_COUNT))
    )


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
            return (
                isinstance(c, SlotStore) and len(c.slots) == SLOT_COUNT
                and even_recognizer(a)
                and c.misc == a.misc
                and all(c.slots[i] == even_lookup(a, i)
                        for i in range(SLOT_COUNT - 1))
            )

        def update_exec(c, k, v):
            c.set_slot(k, v)
            c.slots[99] = 1  # silent corruption, bypassing the counter
    elif corrupt == "odd-logic":
        def update_logic(a, k, v):
            return even_update(a, k, v + 1)
    elif corrupt == "wide-guard":
        index_bound = SLOT_COUNT + 20

    def index_ok(k):
        return isinstance(k, int) and 0 <= k < index_bound

    exports = (
        Export(
            "lookup", "reader",
            logic_fn=even_lookup,
            exec_fn=SlotStore.get_slot,
            guard=lambda a, k: index_ok(k),
            exec_guard=lambda c, k: 0 <= k < len(c.slots),
            declared_updater_calls=0,
        ),
        Export(
            "update", "updater",
            logic_fn=update_logic,
            exec_fn=update_exec,
            guard=lambda a, k, v: (index_ok(k) and isinstance(v, int)
                                   and v >= 0 and v % 2 == 0),
            exec_guard=lambda c, k, v: 0 <= k < len(c.slots),
            declared_updater_calls=1,
        ),
        Export(
            "misc", "reader",
            logic_fn=even_misc,
            exec_fn=SlotStore.get_misc,
            guard=lambda a: True,
            declared_updater_calls=0,
        ),
        Export(
            "update-misc", "updater",
            logic_fn=even_update_misc,
            exec_fn=SlotStore.set_misc,
            guard=lambda a, v: True,
            declared_updater_calls=1,
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
        self.spec = spec
        self._by_name = {e.name: e for e in spec.exports}
        self._pair: list | None = None
        self._drawn = 0
        self._dirty = True

    def draw(self, export_name, rng):
        if self._dirty or self._pair is None or self._drawn % self.RESET_EVERY == 0:
            self._pair = [self.spec.creator_exec(), self.spec.creator_logic()]
            self._dirty = False
        self._drawn += 1
        concrete, abstract = self._pair
        for _ in range(rng.randrange(3)):
            abstract = self._apply_update(concrete, abstract, rng)
        self._pair[1] = abstract
        return concrete, abstract, self._args_for(export_name, rng, abstract)

    def _apply_update(self, concrete, abstract, rng):
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

    def advance(self, new_abstract):
        if self._pair is not None:
            self._pair[1] = new_abstract

    def mark_failure(self):
        self._dirty = True

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

    def copy(self) -> "OneField":
        dup = OneField()
        dup.fld = self.fld
        dup.update_count = self.update_count
        return dup


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
            declared_updater_calls=0,
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
        corr=lambda c, a: isinstance(c, OneField) and c.fld == 0 and a == 0,
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
_FIXED_PROBES = (
    0, 1, 0x50, 0x56, 0xFF, 0xFFFFFF, 0x1000000, 0x1000001,
    8188, 8189, 8190, 8191, 8192, 0x7FFFFFFF, 0xFFFFFFFF,
)


def _n32(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and 0 <= x <= MASK32


def _y86_recognizer(a) -> bool:
    return (
        isinstance(a, Machine)
        and isinstance(a.mem, SparseMemory)
        and a.mem.wellformed()
        and len(a.regs) == 8
        and all(_n32(v) for v in a.regs)
        and _n32(a.eip)
        and isinstance(a.status, Status)
    )


def _y86_corr(concrete, abstract) -> bool:
    """Paged and sparse machines agree on every field, on every address
    the sparse memory holds and on `_FIXED_PROBES`.

    The abstract recognizer is not re-run here: every caller checks it
    right after `corr`, as the separate PRESERVED obligation.
    """
    return (isinstance(concrete, Machine)
            and isinstance(concrete.mem, PagedMemory)
            and concrete.mem.wellformed()
            and isinstance(abstract, Machine)
            and isinstance(abstract.mem, SparseMemory)
            and state_mismatch(concrete, abstract) is None
            and memory_mismatch(concrete, abstract,
                                abstract.mem.touched()) is None
            and memory_mismatch(concrete, abstract, _FIXED_PROBES) is None)


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
            guard=lambda a, i: isinstance(i, int) and 0 <= i < 8,
            exec_guard=lambda c, i: 0 <= i < len(c.regs),
            declared_updater_calls=0,
        ),
        Export(
            "!rgfi", "updater",
            logic_fn=_logic(Machine.set_reg),
            exec_fn=Machine.set_reg,
            guard=lambda a, i, v: isinstance(i, int) and 0 <= i < 8 and _n32(v),
            exec_guard=lambda c, i, v: 0 <= i < len(c.regs),
            declared_updater_calls=1,
        ),
        Export(
            "eip", "reader",
            logic_fn=lambda a: a.eip,
            exec_fn=lambda c: c.eip,
            guard=lambda a: True,
            declared_updater_calls=0,
        ),
        Export(
            "!eip", "updater",
            logic_fn=_logic(Machine.set_eip),
            exec_fn=Machine.set_eip,
            guard=lambda a, v: _n32(v),
            declared_updater_calls=1,
        ),
        Export(
            "memi", "reader",
            logic_fn=Machine.read_byte,
            exec_fn=Machine.read_byte,
            guard=lambda a, i: _n32(i),
            exec_guard=lambda c, i: 0 <= i < MEM_SIZE,
            declared_updater_calls=0,
        ),
        Export(
            "!memi", "updater",
            logic_fn=_logic(Machine.write_byte),
            exec_fn=Machine.write_byte,
            guard=lambda a, i, v: _n32(i) and isinstance(v, int) and 0 <= v <= 0xFF,
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
            guard=lambda a, k: (isinstance(k, int) and not isinstance(k, bool)
                                and 0 <= k <= _RUN_CAP),
            protect=True,
        ),
    )
    return LockstepSpec(
        name="y86",
        recognizer_logic=_y86_recognizer,
        creator_logic=lambda: Machine(SparseMemory()),
        creator_exec=lambda: Machine(PagedMemory()),
        corr=_y86_corr,
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

    The pool advances through identical primitive updates applied to both
    sides, which preserves correspondence by construction regardless of
    export correctness.  Generated addresses and register values stay
    within a couple of 16MB blocks so executed instruction soup cannot
    allocate pages all over the 4GB space; a page-count valve rebuilds the
    pool if arithmetic drift escapes the domain anyway, and periodic
    resets bound the touched-set size (the recognizer is a genuine O(n)
    scan).
    """

    BLOCKS = (0, 1)
    PAGE_VALVE = 6
    RESET_EVERY = 250

    def __init__(self):
        self._pair: list[Machine] | None = None
        self._drawn = 0
        self._dirty = True

    def _addr(self, rng) -> int:
        return (rng.choice(self.BLOCKS) << 24) | rng.getrandbits(24)

    def _value(self, rng) -> int:
        # Register contents double as address bases during execution.
        return self._addr(rng) if rng.random() < 0.7 else rng.getrandbits(13)

    def draw(self, export_name, rng):
        if (self._dirty or self._pair is None
                or self._drawn % self.RESET_EVERY == 0
                or self._pair[0].mem.pages_allocated() > self.PAGE_VALVE):
            self._pair = [Machine(PagedMemory()), Machine(SparseMemory())]
            self._dirty = False
        self._drawn += 1
        concrete, abstract = self._pair
        for _ in range(rng.randrange(3)):
            self._advance_raw(concrete, abstract, rng)
        return concrete, abstract, self._args_for(export_name, rng)

    def _advance_raw(self, concrete, abstract, rng):
        op = rng.randrange(8)
        if op <= 1:
            addr, v = self._addr(rng), rng.getrandbits(8)
            concrete.write_byte(addr, v)
            abstract.write_byte(addr, v)
        elif op == 2:
            i, v = rng.randrange(8), self._value(rng)
            concrete.set_reg(i, v)
            abstract.set_reg(i, v)
        elif op == 3:
            v = self._addr(rng)
            concrete.set_eip(v)
            abstract.set_eip(v)
        elif op == 4:
            fl = Flags(rng.getrandbits(1), rng.getrandbits(1), rng.getrandbits(1))
            concrete.set_flags(fl)
            abstract.set_flags(fl)
        elif op == 5:
            st = Status.AOK if rng.random() < 0.75 else rng.choice(
                (Status.HLT, Status.INS))
            concrete.set_status(st)
            abstract.set_status(st)
        else:
            # Plant a valid instruction at eip so step/run do real work.
            raw = encode(_random_instruction(rng, self._value))
            for k, byte in enumerate(raw):
                addr = (concrete.eip + k) & MASK32
                concrete.write_byte(addr, byte)
                abstract.write_byte(addr, byte)
            if rng.random() < 0.9:
                concrete.set_status(Status.AOK)
                abstract.set_status(Status.AOK)

    def _args_for(self, name, rng):
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

    def advance(self, new_abstract):
        if self._pair is not None:
            self._pair[1] = new_abstract

    def mark_failure(self):
        self._dirty = True

from importlib import resources

import pytest

from y86sim import asm
from y86sim.mem_paged import SENTINEL, PagedMemory
from y86sim.mem_sparse import MEM_SIZE, SparseMemory


def program_text(name: str) -> str:
    return resources.files("y86sim").joinpath("programs", name).read_text()


@pytest.fixture(autouse=True)
def no_seed_variable(monkeypatch):
    """Tests that read Y86_LOCKSTEP_SEED set it themselves; one exported
    in the calling shell must not reach the others."""
    monkeypatch.delenv("Y86_LOCKSTEP_SEED", raising=False)


@pytest.fixture(scope="session")
def simple_assembled():
    return asm.assemble(asm.parse(program_text("simple.ys")))


@pytest.fixture(scope="session")
def popcount_assembled():
    return asm.assemble(asm.parse(program_text("popcount.ys")))


@pytest.fixture(scope="session")
def stress_assembled():
    return asm.assemble(asm.parse(program_text("stress.ys")))


def allocated_blocks(mem: PagedMemory) -> list[int]:
    """The first address of each block `mem`'s table maps, lowest first."""
    return [top << 24 for top, base in enumerate(mem.table)
            if base != SENTINEL]


class StrayPaged(PagedMemory):
    """Stores each byte also at its address XOR 0x800000."""

    def write(self, addr, value):
        super().write(addr ^ 0x800000, value)
        return super().write(addr, value)


class CountingDict(dict):
    """A dict that counts its single-key updates, and the calls that read
    all of it, as any copy of it must."""

    def __init__(self, entries):
        super().__init__(entries)
        self.updates = self.scans = 0

    def __setitem__(self, key, value):
        self.updates += 1
        super().__setitem__(key, value)

    def __delitem__(self, key):
        self.updates += 1
        super().__delitem__(key)

    def _scanning(method):
        def counted(self, *args):
            self.scans += 1
            return method(self, *args)
        return counted

    __iter__ = _scanning(dict.__iter__)
    keys = _scanning(dict.keys)
    items = _scanning(dict.items)
    values = _scanning(dict.values)
    copy = _scanning(dict.copy)
    del _scanning


# Sparse entry maps, well-formed and not, for the constructor and `write`.
SPARSE_ENTRY_TABLE = (
    {}, {5: 9}, {0: 1, MEM_SIZE - 1: 255}, {5: 0}, {5: 256}, {5: -1},
    {-1: 3}, {MEM_SIZE: 3}, {1.5: 3}, {7: 2.5}, {5: 9, 6: 0, 7: 1})


def canonical(data) -> bool:
    """Whether every key of `data` is a 32-bit int and every value a nonzero
    byte int: the per-entry statement of a canonical sparse map."""
    return all(isinstance(k, int) and isinstance(v, int)
               and 0 <= k < MEM_SIZE and 1 <= v <= 0xFF
               for k, v in data.items())


class MalformedSparse(SparseMemory):
    """A sparse memory that adopts `data` unchecked, as no `SparseMemory`
    constructor or `write` would, and whose `wellformed()` reads it whole."""

    __slots__ = ()

    def __init__(self, data):
        self._data = data

    def wellformed(self):
        return canonical(self._reroot())


@pytest.fixture
def counted_sparse():
    """`counted_sparse(entries)` returns a SparseMemory of `entries` and the
    CountingDict that its history keeps, holding its nonzero entries."""
    def make(entries):
        mem = SparseMemory(entries)
        mem._data = data = CountingDict(mem._data)
        return mem, data
    return make

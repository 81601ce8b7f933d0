from importlib import resources

import pytest

from y86sim import asm
from y86sim.mem_paged import SENTINEL, PagedMemory
from y86sim.mem_sparse import SparseMemory


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


@pytest.fixture
def counted_sparse():
    """`counted_sparse(entries)` returns a SparseMemory of `entries` (each
    byte nonzero) and the CountingDict that its history keeps."""
    def make(entries):
        data = CountingDict(entries)
        return SparseMemory._from_raw(data), data
    return make

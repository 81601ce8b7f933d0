from importlib import resources

import pytest

from y86sim import asm
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


@pytest.fixture
def sparse_writes(monkeypatch):
    """The addresses of every `SparseMemory.write` call from here on."""
    write = SparseMemory.write
    calls = []

    def counting_write(mem, addr, value):
        calls.append(addr)
        return write(mem, addr, value)

    monkeypatch.setattr(SparseMemory, "write", counting_write)
    return calls

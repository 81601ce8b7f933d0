"""Sparse-map memory: canonicity, map laws, and a plain-dict oracle."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from y86sim.errors import AddressOutOfRange, ValueOutOfRange
from y86sim.mem_sparse import MEM_SIZE, SparseMemory

addrs = st.integers(0, MEM_SIZE - 1)
bytes_ = st.integers(0, 255)


def test_empty_reads_zero_everywhere():
    mem = SparseMemory()
    for addr in (0, 42, MEM_SIZE - 1):
        assert mem.read(addr) == 0
    assert mem.touched() == frozenset()
    assert mem.wellformed()
    assert len(mem) == 0


def test_write_read_back():
    mem = SparseMemory().write(42, 7)
    assert mem.read(42) == 7
    assert mem.read(41) == 0


def test_last_write_wins():
    mem = SparseMemory().write(5, 9).write(5, 3)
    assert mem == SparseMemory({5: 3})


def test_zero_write_deletes():
    base = SparseMemory().write(42, 7)
    mem = base.write(42, 0)
    assert mem.read(42) == 0
    assert 42 not in mem.touched()
    # Canonicity: structurally equal to empty, and extensionally equal in
    # the neighbourhood of the deleted key.
    assert mem == SparseMemory()
    for addr in (4, 5, 6):
        assert SparseMemory().write(5, 9).write(5, 0).read(addr) == 0


def test_write_is_persistent():
    base = SparseMemory().write(5, 9)
    derived = base.write(6, 1)
    assert base.read(6) == 0
    assert derived.read(5) == 9


def test_touched():
    mem = SparseMemory({5: 9, 8: 1})
    assert mem.touched() == frozenset({5, 8})
    assert mem.write(5, 0).touched() == frozenset({8})
    assert mem.items() == [(5, 9), (8, 1)]


def test_constructor_canonicalizes_and_validates():
    assert SparseMemory({7: 0}) == SparseMemory()
    with pytest.raises(AddressOutOfRange,
                       match="^address 0x100000000 not a 32-bit address$"):
        SparseMemory({MEM_SIZE: 1})
    with pytest.raises(ValueOutOfRange, match="^value 256 not a byte$"):
        SparseMemory({3: 256})


def test_range_errors():
    mem = SparseMemory()
    with pytest.raises(AddressOutOfRange):
        mem.read(MEM_SIZE)
    with pytest.raises(AddressOutOfRange):
        mem.write(-1, 0)
    with pytest.raises(ValueOutOfRange):
        mem.write(0, -1)


def test_store_checks_like_write_and_keeps_canonical_form():
    mem = SparseMemory().write(7, 1)
    with pytest.raises(AddressOutOfRange):
        mem._store(MEM_SIZE, 1)
    with pytest.raises(ValueOutOfRange):
        mem._store(0, 256)
    mem._store(7, 0)
    mem._store(9, 0)   # unbinding an unbound address is a no-op
    mem._store(8, 3)
    assert mem == SparseMemory({8: 3}) and mem.wellformed()


def test_wellformed_backdoor_violations():
    assert SparseMemory({5: 9}).wellformed()
    assert not SparseMemory._from_raw({5: 0}).wellformed()
    assert not SparseMemory._from_raw({MEM_SIZE: 3}).wellformed()


@given(addrs, addrs, bytes_)
def test_read_over_write_hypothesis_free(i, j, v):
    mem = SparseMemory({1: 3, 100: 200})
    got = mem.write(j, v).read(i)
    assert got == (v if i == j else mem.read(i))


@given(addrs, bytes_, bytes_)
def test_write_over_write(i, v1, v2):
    mem = SparseMemory({9: 9})
    assert mem.write(i, v1).write(i, v2) == mem.write(i, v2)


@given(addrs, addrs, bytes_, bytes_)
def test_write_commutes_at_distinct_keys(i, j, v, w):
    if i == j:
        return
    mem = SparseMemory({3: 1})
    assert mem.write(i, v).write(j, w) == mem.write(j, w).write(i, v)


@given(st.lists(st.tuples(addrs, bytes_), max_size=40))
def test_memp_preserved_by_write(ops):
    mem = SparseMemory()
    assert mem.wellformed()
    for addr, value in ops:
        mem = mem.write(addr, value)
        assert mem.wellformed()


def test_against_plain_dict_oracle():
    rng = random.Random(0x5EED)
    mem = SparseMemory()
    oracle: dict[int, int] = {}
    hot = [rng.getrandbits(32) for _ in range(50)]
    for _ in range(5000):
        addr = rng.choice(hot) if rng.random() < 0.7 else rng.getrandbits(32)
        if rng.random() < 0.5:
            value = rng.randrange(256)
            mem = mem.write(addr, value)
            oracle[addr] = value
        else:
            assert mem.read(addr) == oracle.get(addr, 0)
    for addr in hot:
        assert mem.read(addr) == oracle.get(addr, 0)
    assert mem.touched() == {a for a, v in oracle.items() if v}

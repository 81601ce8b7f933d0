"""Sparse-map memory: canonicity, map laws, a plain-dict oracle, and the
persistence of versions that share one history."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from y86sim.errors import AddressOutOfRange, ValueOutOfRange
from y86sim.mem_sparse import MEM_SIZE, SparseMemory

from conftest import SPARSE_ENTRY_TABLE, canonical

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
    # `len` and `repr` count what `touched()` names.
    assert len(mem) == 2 and len(mem.write(9, 2)) == 3
    assert repr(mem) == "SparseMemory(2 bytes set)"


def test_a_sparse_memory_is_unequal_to_another_type():
    assert SparseMemory() != {} and not SparseMemory({5: 9}) == {5: 9}


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


def test_write_on_any_version_checks_and_keeps_canonical_form():
    # A rejected write changes no version, whether it is made on the
    # newest version or on an older one.
    old = SparseMemory().write(7, 1)
    new = old.write(8, 3)
    for mem in (new, old, new):
        with pytest.raises(AddressOutOfRange):
            mem.write(MEM_SIZE, 1)
        with pytest.raises(ValueOutOfRange):
            mem.write(0, 256)
    assert old == SparseMemory({7: 1}) and new == SparseMemory({7: 1, 8: 3})
    cleared = new.write(7, 0)
    assert cleared.write(9, 0) is cleared   # unbinding an unbound address
    assert cleared == SparseMemory({8: 3}) and cleared.wellformed()
    assert old.write(7, 0) == SparseMemory() and len(new) == 2


def test_write_refuses_every_malformed_entry_on_any_version():
    # `write` makes every later version: each store it admits keeps the map
    # canonical, and one it refuses leaves every version reading as before,
    # whether it is made on the version holding the dict or on an older one.
    old = SparseMemory({7: 1})
    new = old.write(8, 3)
    for data in SPARSE_ENTRY_TABLE:
        for addr, value in data.items():
            for holder, mem in ((new, new), (new, old), (old, old), (old, new)):
                holder.read(0)   # reroot the history at `holder`
                try:
                    made = mem.write(addr, value)
                except (AddressOutOfRange, ValueOutOfRange):
                    # A store of 0 unbinds, so only its address can be bad.
                    assert not canonical({addr: value or 1}), (addr, value)
                else:
                    assert canonical(made._reroot()) and made.wellformed()
                    assert made.read(addr) == value, (addr, value)
                assert old.items() == [(7, 1)], (addr, value)
                assert new.items() == [(7, 1), (8, 3)], (addr, value)


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


# Three addresses drawn half the time and zero drawn half the time, so that
# writes often rewrite and unbind a bound address.
hot_addrs = st.one_of(st.sampled_from([0, 0x1000, MEM_SIZE - 1]), addrs)
hot_bytes = st.one_of(st.just(0), bytes_)
history_ops = st.lists(st.tuples(
    st.sampled_from(["write", "read"]), st.integers(0, 40), hot_addrs,
    hot_bytes), max_size=40)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(hot_addrs, bytes_, max_size=6), history_ops)
def test_memp_preserved_by_write(entries, ops):
    # Every history is canonical by construction, so `wellformed()` reads
    # nothing; here `canonical` reads the live dict at every version to
    # check that.  Operation k uses version k mod the number of versions,
    # so reads and writes on old versions reroot the history.
    versions = [SparseMemory(entries)]
    for op, k, addr, value in ops:
        mem = versions[k % len(versions)]
        if op == "write":
            mem = mem.write(addr, value)
            versions.append(mem)
        else:
            mem.read(addr)
        assert canonical(mem._reroot())
    for mem in versions:
        assert canonical(mem._reroot()) and mem.wellformed()


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


def test_versions_of_one_history_compare_in_both_orders():
    a = SparseMemory({1: 1})
    b = a.write(2, 2)
    c = b.write(2, 0)   # reads as `a` again
    d = c.write(1, 5)
    other = SparseMemory({1: 1})
    for x, y, equal in ((a, c, True), (a, a, True), (c, other, True),
                        (a, b, False), (b, c, False), (b, d, False),
                        (a, d, False), (d, other, False)):
        assert (x == y) is equal and (y == x) is equal, (x, y)
    assert [a.read(2), b.read(2), c.read(1), d.read(1)] == [0, 2, 1, 5]


def test_reading_the_oldest_of_a_long_history_does_not_recurse():
    for read_first in (True, False):
        oldest = mem = SparseMemory({0: 1})
        for k in range(100_000):
            mem = mem.write(k % 5000 + 1, k % 255 + 1)
        if read_first:
            assert oldest.read(0) == 1 and oldest.read(1) == 0
            assert len(oldest) == 1 and mem.read(5000) == 99_999 % 255 + 1
        del oldest, mem   # freeing the whole chain of records must not either


def test_reroot_steps_are_amortised_constant_over_criterion_4_writes(
        counted_sparse):
    # Criterion 4's pattern: read a base, write it, read the result, and
    # keep the result as the next base three times in ten.  A write that
    # changes a byte and a reroot step each make one dict update.
    rng = random.Random(4)
    sparse, data = counted_sparse({123: 45, 0x01000000: 1})
    writes = 0
    for _ in range(100_000):
        i = rng.getrandbits(32)
        j = i if rng.random() < 0.2 else rng.getrandbits(32)
        v = rng.getrandbits(8)
        before = sparse.read(i)
        written = sparse.write(j, v)
        writes += written is not sparse
        assert written.read(i) == (v if i == j else before)
        if rng.random() < 0.3:
            sparse = written
    steps = data.updates - writes
    assert 0 < steps <= writes and data.scans == 0


def test_a_copy_through_items_shares_no_state_with_its_source(
        counted_sparse):
    # Reading an old version updates the dict its whole history shares, so
    # one history is used from one thread at a time.  A copy made with
    # `SparseMemory(dict(mem.items()))` is a history of its own: using it
    # never updates the source's dict, whichever version that is rooted at.
    source, data = counted_sparse({a: 1 for a in range(64)})
    versions = [source]
    for a in range(64):
        versions.append(versions[-1].write(a, 2))
    copy = SparseMemory(dict(versions[32].items()))
    expected = [2] * 32 + [1] * 32
    for k in range(65):
        assert versions[k].read(0) == (1 if k == 0 else 2)
        updates = data.updates
        newer = copy.write(k % 64, 3)
        assert [copy.read(a) for a in range(64)] == expected
        assert newer.read(k % 64) == 3 and len(copy) == 64
        assert data.updates == updates
    assert versions[32] == copy and versions[0] == source

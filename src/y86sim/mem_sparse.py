"""Canonical sparse byte memory: a finite map from address to nonzero byte.

Values are persistent: `write` returns a new memory, and every memory a
caller holds reads as it did.  Zero-valued writes delete their key, so
structural equality coincides with extensional equality.

The versions that writes derive from one memory form a history sharing one
dict, by version-tree rerooting (Baker 1991; Conchon and Filliatre 2007).
The holder keeps the dict; each other version is an undo record: an
address, its byte there, and the next version towards the holder.
`write` on the holder is O(1); any other use of a version first reroots
the history at it, reversing the records on the way, at O(distance) cost.
So a held version keeps the record of every later write until it is
dropped or used, and one history is used from one thread at a time;
`SparseMemory(dict(mem.items()))` is an independent one.

`read_span` and `read_many` read the live dict in one pass: a run of
consecutive bytes, or a list of addresses.

Every history is canonical by construction: `__init__` checks every
entry and drops the zeros, `write` checks every store and deletes on
zero, and a reroot puts back only bytes those two stored.  They are the
only ways to make a version, so `wellformed()` reads nothing.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from itertools import repeat

from .errors import access_error
from .isa import MASK32, MEM_SIZE

__all__ = ["MEM_SIZE", "SparseMemory"]

_new = object.__new__


def _check(addr: int, value: int) -> None:
    try:
        if addr >> 32 or value >> 8:
            raise access_error(addr, value)
    except TypeError:  # one of them is not an int
        raise access_error(addr, value) from None


class SparseMemory:
    """Byte-addressed 2^32 memory storing only non-default (nonzero) bytes."""

    # `_data` is None on a record; `__weakref__` lets tests watch one die.
    __slots__ = ("_data", "_addr", "_old", "_next", "__weakref__")

    def __init__(self, entries: Mapping[int, int] = {}):
        for addr, value in entries.items():
            _check(addr, value)
        self._data = {addr: value for addr, value in entries.items() if value}

    def _reroot(self) -> dict[int, int]:
        """Make this version the holder of its history's dict; returns it."""
        path = []
        node = self
        while node._data is None:
            path.append(node)
            node = node._next
        data, node._data = node._data, None
        for prev in reversed(path):
            # `node` reads as `data`, and `prev` as `data` with one change.
            addr, old = prev._addr, prev._old
            node._addr, node._old, node._next = addr, data.get(addr, 0), prev
            if old:
                data[addr] = old
            else:
                del data[addr]
            node = prev
        self._data, self._next = data, None
        return data

    def read(self, addr: int) -> int:
        try:
            if addr >> 32:
                raise access_error(addr)
        except TypeError:  # not an int
            raise access_error(addr) from None
        data = self._data
        if data is None:
            data = self._reroot()
        return data.get(addr, 0)

    def read_span(self, addr: int, n: int) -> bytes:
        """The `n` bytes at `addr` onwards, wrapping past 0xFFFFFFFF, in one
        pass over the live dict; raises what `read` raises for `addr`.  A
        span that crosses 2^32 is one `read_many` of its masked addresses."""
        try:
            if addr >> 32:
                raise access_error(addr)
        except TypeError:  # not an int
            raise access_error(addr) from None
        if addr > MEM_SIZE - n:
            return self.read_many([a & MASK32 for a in range(addr, addr + n)])
        data = self._data
        if data is None:
            data = self._reroot()
        get = data.get
        if n == 4:  # a word: four lookups cost less than a range and a map
            return bytes((get(addr, 0), get(addr + 1, 0), get(addr + 2, 0),
                          get(addr + 3, 0)))
        return bytes(map(get, range(addr, addr + n), repeat(0)))

    def read_many(self, addrs) -> bytes:
        """`bytes(map(self.read, addrs))` for any iterable `addrs`, in one pass
        over the live dict; raises what `read` raises."""
        if iter(addrs) is addrs:  # a one-shot iterator: read it once
            addrs = list(addrs)
        try:
            array("I", addrs)  # every address a 32-bit int, checked in C
        except (TypeError, OverflowError):
            return bytes(map(self.read, addrs))
        data = self._data
        if data is None:
            data = self._reroot()
        return bytes(map(data.get, addrs, repeat(0)))

    def write(self, addr: int, value: int) -> "SparseMemory":
        """Return a memory with `addr` bound to `value` (unbound when 0)."""
        try:
            if addr >> 32 or value >> 8:
                raise access_error(addr, value)
        except TypeError:  # one of them is not an int
            raise access_error(addr, value) from None
        data = self._data
        if data is None:
            data = self._reroot()
        old = data.get(addr, 0)
        if old == value:
            return self
        if value:
            data[addr] = value
        else:
            del data[addr]
        new = _new(SparseMemory)
        new._data = data
        self._data = None
        self._addr = addr
        self._old = old
        self._next = new
        return new

    def wellformed(self) -> bool:
        """Executable invariant: all keys 32-bit ints, all values nonzero
        byte ints.  Every version holds it by construction (see the module
        docstring), so this reads none of the map.  The test
        `test_memp_preserved_by_write` checks that over random histories."""
        return True

    def touched(self) -> frozenset[int]:
        """Addresses currently holding a nonzero byte."""
        return frozenset(self._reroot())

    def items(self) -> list[tuple[int, int]]:
        """(address, byte) pairs in ascending address order."""
        return sorted(self._reroot().items())

    def copy(self) -> "SparseMemory":
        return self  # persistent

    def __len__(self) -> int:
        return len(self._reroot())

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMemory):
            return NotImplemented
        # A snapshot, since rerooting `other` may reuse this dict.
        return self is other or dict(self._reroot()) == other._reroot()

    def __repr__(self) -> str:
        return f"SparseMemory({len(self)} bytes set)"


"""Canonical sparse byte memory: a finite map from address to nonzero byte.

Values are immutable; `write` returns a new memory.  Because zero-valued
writes delete their key, structural equality coincides with extensional
equality: two memories reading the same everywhere are equal as values.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import AddressOutOfRange, ValueOutOfRange
from .isa import MEM_SIZE

__all__ = ["MEM_SIZE", "SparseMemory"]


class SparseMemory:
    """Byte-addressed 2^32 memory storing only non-default (nonzero) bytes."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict[int, int] = {}
        for addr, value in items:
            if not 0 <= addr < MEM_SIZE:
                raise AddressOutOfRange(f"address {addr:#x} not a 32-bit address")
            if not 0 <= value <= 0xFF:
                raise ValueOutOfRange(f"value {value} not a byte")
            if value:
                store[addr] = value
            else:
                store.pop(addr, None)
        self._entries = store

    @classmethod
    def _from_raw(cls, entries: dict[int, int]) -> "SparseMemory":
        # Unchecked adoption of a dict; internal fast path and test backdoor.
        mem = object.__new__(cls)
        mem._entries = entries
        return mem

    def read(self, addr: int) -> int:
        if not 0 <= addr < MEM_SIZE:
            raise AddressOutOfRange(f"address {addr:#x} not a 32-bit address")
        return self._entries.get(addr, 0)

    def write(self, addr: int, value: int) -> "SparseMemory":
        """Return a memory with `addr` bound to `value` (unbound when 0)."""
        if not 0 <= addr < MEM_SIZE:
            raise AddressOutOfRange(f"address {addr:#x} not a 32-bit address")
        if not 0 <= value <= 0xFF:
            raise ValueOutOfRange(f"value {value} not a byte")
        entries = self._entries
        if entries.get(addr, 0) == value:
            return self
        new = dict(entries)
        if value:
            new[addr] = value
        else:
            del new[addr]
        return SparseMemory._from_raw(new)

    def wellformed(self) -> bool:
        """Executable invariant: all keys 32-bit, all values nonzero bytes."""
        return all(
            0 <= k < MEM_SIZE and 1 <= v <= 0xFF
            for k, v in self._entries.items()
        )

    def touched(self) -> frozenset[int]:
        """Addresses currently holding a nonzero byte."""
        return frozenset(self._entries)

    def items(self) -> list[tuple[int, int]]:
        """(address, byte) pairs in ascending address order."""
        return sorted(self._entries.items())

    def copy(self) -> "SparseMemory":
        return self  # immutable

    def __len__(self) -> int:
        return len(self._entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMemory):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        return f"SparseMemory({len(self._entries)} bytes set)"

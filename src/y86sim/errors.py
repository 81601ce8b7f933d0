"""Exception types used across the simulator."""

__all__ = [
    "Y86Error",
    "InvalidInstruction",
    "AddressOutOfRange",
    "ValueOutOfRange",
    "AllocationFailure",
    "ParseError",
    "UnresolvedLabel",
    "BackwardPos",
    "AddressOverflow",
    "LockstepError",
    "GuardViolation",
    "PoisonedState",
    "CorrespondenceFailure",
    "PreservationFailure",
    "AtomicityViolation",
    "InjectedFault",
    "access_error",
]


class Y86Error(Exception):
    """Base class for all simulator errors."""


class InvalidInstruction(Y86Error):
    """Byte sequence does not encode a defined instruction."""


class AddressOutOfRange(Y86Error):
    """Memory address outside the 32-bit address space."""


class ValueOutOfRange(Y86Error):
    """Stored value outside its range: 0..255 for a byte, 0..2^32-1 for a
    word."""


def access_error(addr, value=0) -> Y86Error:
    """The error a memory raises for a byte access of `value` at `addr` that
    it refuses: AddressOutOfRange naming `addr`, in hex when it is an int,
    unless `addr` is an int in 0..2^32-1, else ValueOutOfRange for `value`."""
    if not (isinstance(addr, int) and 0 <= addr <= 0xFFFFFFFF):
        shown = f"{addr:#x}" if isinstance(addr, int) else repr(addr)
        return AddressOutOfRange(f"address {shown} not a 32-bit address")
    return ValueOutOfRange(f"value {value} not a byte")


class AllocationFailure(Y86Error):
    """The host could not provide backing storage."""


class ParseError(Y86Error):
    """Malformed assembler source."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


class UnresolvedLabel(Y86Error):
    """An operand refers to a label that is never defined."""


class BackwardPos(Y86Error):
    """A position directive would overlap already emitted bytes."""


class AddressOverflow(Y86Error):
    """The location counter ran past the 32-bit address space."""


class LockstepError(Y86Error):
    """Base class for dual-state protocol errors."""


class GuardViolation(LockstepError):
    """An export was invoked with arguments its guard rejects."""


class PoisonedState(LockstepError):
    """The dual state was abandoned mid-update and is unusable."""


class CorrespondenceFailure(LockstepError):
    """Concrete and abstract representations disagree."""


class PreservationFailure(LockstepError):
    """An update produced an abstract value the recognizer rejects."""


class AtomicityViolation(LockstepError):
    """An unprotected export performed more than one concrete update."""


class InjectedFault(Y86Error):
    """Deliberate mid-update abort used by test fixtures."""

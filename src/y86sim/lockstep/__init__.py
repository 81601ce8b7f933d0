"""Dual-representation discipline: registrations, differential container,
obligation suites, and the built-in fixture objects."""

from .core import (
    CaseSource,
    DualState,
    Export,
    FailureRecord,
    LockstepSpec,
    ObligationOutcome,
    ObligationReport,
    check_obligations,
)
from .fixtures import (
    DemoCases,
    EvenMap,
    OneField,
    SlotStore,
    Y86Cases,
    const_spec,
    demo_spec,
    raise_injected_fault,
    unsound_const_demo,
    y86_spec,
)

__all__ = [
    "CaseSource", "DualState", "Export", "FailureRecord", "LockstepSpec",
    "ObligationOutcome", "ObligationReport", "check_obligations",
    "DemoCases", "EvenMap", "OneField", "SlotStore",
    "Y86Cases", "const_spec", "demo_spec", "raise_injected_fault",
    "unsound_const_demo", "y86_spec",
]

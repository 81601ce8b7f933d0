"""Dual-representation state discipline.

A LockstepSpec registers an object with two representations: a concrete
one built for execution and an abstract one built for reasoning about,
related by a correspondence predicate.  Every exported operation carries
a logic function (abstract side) and an exec function (concrete side).

DualState holds one pair of states and, in check mode, verifies on every
invoke that readers agree across representations and that updates
preserve both the correspondence and the abstract recognizer.  The three
obligation families behind those checks can also be run wholesale as
randomized property suites via check_obligations.

Exports whose concrete function performs more than one primitive update
must be marked `protect`: the state is poisoned while such an export
runs, so an abort mid-update leaves it unusable instead of silently
inconsistent, and every later invoke raises PoisonedState naming the
export, the exception that aborted it and the number of primitive
updates it had done.  Unprotected exports are checked dynamically:
completing one with more than one primitive update raises
AtomicityViolation.
"""

from __future__ import annotations

import json
import random
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Literal

from ..errors import (
    AtomicityViolation,
    CorrespondenceFailure,
    GuardViolation,
    PoisonedState,
    PreservationFailure,
)

__all__ = [
    "Export", "LockstepSpec", "DualState",
    "CaseSource", "FailureRecord", "ObligationOutcome", "ObligationReport",
    "check_obligations",
]


@dataclass(frozen=True)
class Export:
    """One named operation on a dual-representation object.

    Readers return a value and leave both states unchanged; updaters
    mutate the concrete state in place while the logic function maps the
    abstract value to its successor.  `guard` is the operation's
    precondition over (abstract, *args); it is checked on every invoke,
    before either state is touched.  `exec_guard`, when given, states the
    concrete function's own precondition over (concrete, *args); the
    guard obligation asserts it follows from `guard` at corresponding
    states.  `declared_updater_calls` optionally documents how many
    primitive updates the exec function performs; declaring more than one
    without `protect` is rejected at registration time.
    """

    name: str
    kind: Literal["reader", "updater"]
    logic_fn: Callable
    exec_fn: Callable
    guard: Callable[..., bool]
    exec_guard: Callable[..., bool] | None = None
    protect: bool = False
    declared_updater_calls: int | None = None


@dataclass(frozen=True)
class LockstepSpec:
    """Registration record: recognizer, creators, correspondence, exports."""

    name: str
    recognizer_logic: Callable[[Any], bool]
    creator_logic: Callable[[], Any]
    creator_exec: Callable[[], Any]
    corr: Callable[[Any, Any], bool]
    exports: tuple[Export, ...]

    def __post_init__(self):
        names = [e.name for e in self.exports]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate export names in {self.name!r}")
        for e in self.exports:
            if e.kind not in ("reader", "updater"):
                raise ValueError(f"export {e.name!r}: bad kind {e.kind!r}")
            if (e.declared_updater_calls is not None
                    and e.declared_updater_calls > 1 and not e.protect):
                raise AtomicityViolation(
                    f"export {e.name!r} declares "
                    f"{e.declared_updater_calls} primitive updates; "
                    f"multi-update exports must set protect")

    def export(self, name: str) -> Export:
        for e in self.exports:
            if e.name == name:
                return e
        raise KeyError(f"{self.name!r} has no export {name!r}")


def _update_count(concrete) -> int:
    return getattr(concrete, "update_count", 0)


class DualState:
    """A paired concrete/abstract state driven through registered exports.

    mode="check" runs both sides of every invoke and verifies the
    obligations; mode="fast" runs only the concrete side (the abstract
    value is not maintained), keeping guards and the protection protocol
    active.  Guards should therefore not depend on abstract state beyond
    the (trusted) recognizer, mirroring how recognizer checks are elided
    on managed states.

    Creating a DualState runs the creators and, in check mode, asserts the
    creator obligations.  A protected export that raises poisons the
    state; the PoisonedState raised by every later invoke, until `reset`,
    reads "export 'NAME' aborted by EXC; N update(s) done".
    """

    def __init__(self, spec: LockstepSpec, mode: str = "check"):
        if mode not in ("check", "fast"):
            raise ValueError(f"mode must be 'check' or 'fast', got {mode!r}")
        self.spec = spec
        self.mode = mode
        self.poisoned = False
        self._exports = {e.name: e for e in spec.exports}
        self._poison_info: str | None = None
        self._create()

    def _create(self) -> None:
        abstract = self.spec.creator_logic()
        concrete = self.spec.creator_exec()
        if self.mode == "check":
            if not self.spec.corr(concrete, abstract):
                raise CorrespondenceFailure(
                    f"{self.spec.name}: creators do not produce "
                    f"corresponding states")
            if not self.spec.recognizer_logic(abstract):
                raise PreservationFailure(
                    f"{self.spec.name}: created abstract value fails "
                    f"the recognizer")
        self.abstract = abstract
        self.concrete = concrete

    def reset(self) -> None:
        """Re-run the creators and clear the poison flag."""
        self.poisoned = False
        self._poison_info = None
        self._create()

    def recognizer(self, audit: bool = False) -> bool:
        """Not poisoned, and, with `audit`, the logic recognizer accepts
        the abstract value.

        Without `audit` the answer is O(1) and trusts the state: in check
        mode every abstract value it has held already passed the recognizer.
        """
        if self.poisoned:
            return False
        return not audit or bool(self.spec.recognizer_logic(self.abstract))

    def invoke(self, name: str, *args):
        """Run one export under guard checks and the atomicity protocol.

        Returns the reader's value; updaters return None.  Raises
        GuardViolation, PoisonedState, AtomicityViolation, and (in check
        mode) CorrespondenceFailure / PreservationFailure.
        """
        export = self._exports.get(name)
        if export is None:
            raise KeyError(f"{self.spec.name!r} has no export {name!r}")
        if self.poisoned:
            detail = f": {self._poison_info}" if self._poison_info else ""
            raise PoisonedState(
                f"{self.spec.name} was abandoned mid-update{detail}")
        if not export.guard(self.abstract, *args):
            raise GuardViolation(f"guard of {name!r} rejects {args!r}")

        concrete = self.concrete
        before = _update_count(concrete)
        if export.protect:
            self.poisoned = True
        try:
            result = export.exec_fn(concrete, *args)
        except Exception as exc:
            if export.protect:
                self._poison_info = (
                    f"export {name!r} aborted by {type(exc).__name__}; "
                    f"{_update_count(concrete) - before} update(s) done")
            raise
        if export.protect:
            self.poisoned = False
        else:
            delta = _update_count(concrete) - before
            if delta > 1:
                raise AtomicityViolation(
                    f"export {name!r} performed {delta} primitive updates "
                    f"but is not marked protect")

        if export.kind == "reader":
            if self.mode == "check":
                expected = export.logic_fn(self.abstract, *args)
                if result != expected:
                    raise CorrespondenceFailure(
                        f"{name}: exec returned {result!r}, logic "
                        f"{expected!r}")
            return result

        if self.mode == "check":
            new_abstract = export.logic_fn(self.abstract, *args)
            if not self.spec.corr(concrete, new_abstract):
                raise CorrespondenceFailure(
                    f"{name}: updated states do not correspond")
            if not self.spec.recognizer_logic(new_abstract):
                raise PreservationFailure(
                    f"{name}: recognizer rejects the updated abstract value")
            self.abstract = new_abstract
        return None


# ---------------------------------------------------------------------------
# obligation suites

class CaseSource:
    """Produces guard-satisfying (concrete, abstract, args) cases.

    A source may evolve a shared pool of corresponding states: the harness
    hands back each updater's new abstract value via `advance` and flags
    failed cases via `mark_failure` so a corrupted pool can be rebuilt.
    `snapshot` returning independent copies enables counterexample
    shrinking; returning None disables it.
    """

    def draw(self, export_name: str, rng: random.Random):
        raise NotImplementedError

    def advance(self, new_abstract) -> None:
        pass

    def mark_failure(self) -> None:
        pass

    def snapshot(self, concrete, abstract):
        return None


@dataclass
class FailureRecord:
    obligation: str
    case: int
    seed: int
    args: str
    message: str
    shrunk_args: str | None = None


@dataclass
class ObligationOutcome:
    name: str
    cases: int
    failures: list[FailureRecord] = field(default_factory=list)


@dataclass
class ObligationReport:
    spec_name: str
    seed: int
    outcomes: list[ObligationOutcome]

    @property
    def total_failures(self) -> int:
        return sum(len(o.failures) for o in self.outcomes)

    @property
    def ok(self) -> bool:
        return self.total_failures == 0

    def outcome(self, name: str) -> ObligationOutcome:
        for o in self.outcomes:
            if o.name == name:
                return o
        raise KeyError(name)

    def to_text(self) -> str:
        lines = [f"obligation suite: {self.spec_name} (seed={self.seed})"]
        for o in self.outcomes:
            verdict = "ok" if not o.failures else f"{len(o.failures)} FAILED"
            lines.append(f"  {o.name}: {o.cases} cases, {verdict}")
            for f in o.failures[:5]:
                lines.append(
                    f"    case {f.case} seed={f.seed} args={f.args}"
                    + (f" shrunk={f.shrunk_args}" if f.shrunk_args else "")
                    + f": {f.message}")
            if len(o.failures) > 5:
                lines.append(f"    ... {len(o.failures) - 5} more")
        lines.append(f"total failures: {self.total_failures}")
        return "\n".join(lines) + "\n"

    def to_records(self) -> list[dict]:
        """One machine-readable record per obligation."""
        return [
            {
                "spec": self.spec_name,
                "obligation": o.name,
                "cases": o.cases,
                "failures": len(o.failures),
                "seed": self.seed,
                "failure_detail": [vars(f) for f in o.failures],
            }
            for o in self.outcomes
        ]

    def to_jsonl(self) -> str:
        """The records of `to_records`, one JSON line each."""
        return "".join(json.dumps(record, sort_keys=True) + "\n"
                       for record in self.to_records())


def _evaluate_case(spec, export, concrete, abstract, args):
    """Run one case; returns (new_abstract | None, [(family, message)]).

    family is one of "corr", "pres", "guard".  The guard obligation is
    checked before the exec function runs, so a failing precondition is
    reported rather than crashed on.
    """
    failures = []
    if export.exec_guard is not None and not export.exec_guard(concrete, *args):
        failures.append(("guard",
                         f"abstract guard admits {args!r} but the exec "
                         f"precondition rejects it"))
        return None, failures
    try:
        result = export.exec_fn(concrete, *args)
    except Exception as exc:  # exec must be total on guarded inputs
        failures.append(("corr", f"exec raised {type(exc).__name__}: {exc}"))
        return None, failures
    try:
        logic_result = export.logic_fn(abstract, *args)
    except Exception as exc:
        failures.append(("corr", f"logic raised {type(exc).__name__}: {exc}"))
        return None, failures
    if export.kind == "reader":
        if result != logic_result:
            failures.append(
                ("corr", f"exec {result!r} != logic {logic_result!r}"))
        return None, failures
    new_abstract = logic_result
    if not spec.corr(concrete, new_abstract):
        failures.append(("corr", "updated states do not correspond"))
    if not spec.recognizer_logic(new_abstract):
        failures.append(("pres", "recognizer rejects updated abstract value"))
    return new_abstract, failures


# Candidate argument tuples one shrink may try.
_SHRINK_ATTEMPTS = 60


def _shrink_args(spec, export, source, pristine, args):
    """Greedily shrink integer arguments toward 0 while the case still
    fails; returns the smaller tuple or None."""
    if pristine is None:
        return None

    def still_fails(candidate) -> bool:
        pair = source.snapshot(*pristine)
        if pair is None:
            return False
        c, a = pair
        if not export.guard(a, *candidate):
            return False
        _, failures = _evaluate_case(spec, export, c, a, candidate)
        return bool(failures)

    best = tuple(args)
    attempts = 0
    improved = True
    while improved and attempts < _SHRINK_ATTEMPTS:
        improved = False
        for idx, val in enumerate(best):
            if not isinstance(val, int) or isinstance(val, bool) or val == 0:
                continue
            for smaller in (0, val // 2, val - 1):
                if smaller >= val:
                    continue
                candidate = best[:idx] + (smaller,) + best[idx + 1:]
                attempts += 1
                if still_fails(candidate):
                    best = candidate
                    improved = True
                    break
                if attempts >= _SHRINK_ATTEMPTS:
                    break
            if attempts >= _SHRINK_ATTEMPTS:
                break
    return best if best != tuple(args) else None


def _case_seed(suite_seed: int, export_name: str, case: int) -> int:
    base = zlib.crc32(export_name.encode()) ^ (suite_seed & 0xFFFFFFFF)
    return (base * 0x9E3779B1 + case * 0x85EBCA77) & 0xFFFFFFFF


def check_obligations(spec: LockstepSpec, source: CaseSource, n_cases: int,
                      seed: int = 0) -> ObligationReport:
    """Run the three obligation families as randomized property suites.

    For each export, `n_cases` generated cases are checked for reader
    agreement or update correspondence, recognizer preservation, and the
    exec precondition following from the guard.  Failures are recorded
    with the reproducing case seed (and shrunk arguments when the source
    supports snapshots), never raised.
    """
    if n_cases < 0:
        raise ValueError("case count must be a natural number")
    outcomes: list[ObligationOutcome] = []

    creator_corr = ObligationOutcome("create{CORRESPONDENCE}", 1)
    creator_pres = ObligationOutcome("create{PRESERVED}", 1)
    abstract0 = spec.creator_logic()
    concrete0 = spec.creator_exec()
    if not spec.corr(concrete0, abstract0):
        creator_corr.failures.append(FailureRecord(
            creator_corr.name, 0, seed, "()",
            "creators do not produce corresponding states"))
    if not spec.recognizer_logic(abstract0):
        creator_pres.failures.append(FailureRecord(
            creator_pres.name, 0, seed, "()",
            "created abstract value fails the recognizer"))
    outcomes += [creator_corr, creator_pres]

    for export in spec.exports:
        corr_out = ObligationOutcome(f"{export.name}{{CORRESPONDENCE}}", n_cases)
        guard_out = ObligationOutcome(f"{export.name}{{GUARD-THM}}", n_cases)
        pres_out = (ObligationOutcome(f"{export.name}{{PRESERVED}}", n_cases)
                    if export.kind == "updater" else None)
        family_out = {"corr": corr_out, "guard": guard_out, "pres": pres_out}

        for case in range(n_cases):
            case_seed = _case_seed(seed, export.name, case)
            rng = random.Random(case_seed)
            concrete, abstract, args = source.draw(export.name, rng)
            if not export.guard(abstract, *args):
                raise ValueError(
                    f"case source produced guard-violating args {args!r} "
                    f"for export {export.name!r}")
            pristine = source.snapshot(concrete, abstract)
            new_abstract, failures = _evaluate_case(
                spec, export, concrete, abstract, args)
            if failures:
                shrunk = _shrink_args(spec, export, source, pristine, args)
                shrunk_text = repr(shrunk) if shrunk is not None else None
                for family, message in failures:
                    out = family_out[family]
                    out.failures.append(FailureRecord(
                        out.name, case, case_seed, repr(args), message,
                        shrunk_text))
                source.mark_failure()
            elif export.kind == "updater":
                source.advance(new_abstract)

        outcomes.append(corr_out)
        if pres_out is not None:
            outcomes.append(pres_out)
        outcomes.append(guard_out)

    return ObligationReport(spec.name, seed, outcomes)

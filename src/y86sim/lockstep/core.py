"""Dual-representation state discipline.

A LockstepSpec registers an object with two representations: a concrete
one built for execution and an abstract one built for reasoning about,
related by a correspondence that names their first difference, or
returns None when they correspond.  Every exported operation carries
a logic function (abstract side) and an exec function (concrete side).

Each obligation is stated once: `_check_invoke` checks the logic side of
an invoke against its exec result, and `_check_created` checks a created
pair.  DualState, in check mode, raises the first failure at creation
and on every invoke; check_obligations records every failure over
randomized cases drawn from a CaseSource pool.

An export's update budget follows from its kind: a reader may perform
no primitive update of the concrete state and an updater one.  An export
that needs more must be marked `protect`: the state is poisoned while
such an export runs, so an abort mid-update leaves it unusable instead
of silently inconsistent, and every later invoke raises PoisonedState
naming the export, the exception that aborted it and the number of
primitive updates it had done.  `DualState.invoke` counts the updates of
every call and raises AtomicityViolation when an unprotected export
exceeds its budget.
"""

from __future__ import annotations

import inspect
import json
import zlib
from dataclasses import dataclass, field
from random import Random
from typing import Any, Callable, Literal

from ..errors import (
    AtomicityViolation,
    CorrespondenceFailure,
    GuardViolation,
    PoisonedState,
    PreservationFailure,
)
from ..isa import is_nat

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
    states.  An unprotected reader may perform no primitive update and an
    unprotected updater one; `protect` lifts the budget (see the module
    docstring).
    """

    name: str
    kind: Literal["reader", "updater"]
    logic_fn: Callable
    exec_fn: Callable
    guard: Callable[..., bool]
    exec_guard: Callable[..., bool] | None = None
    protect: bool = False


@dataclass(frozen=True)
class LockstepSpec:
    """Registration record: recognizer, creators, correspondence, exports.

    `corr(concrete, abstract)` is None when the states correspond, else a
    text naming the first difference; a bool is a failure either way."""

    name: str
    recognizer_logic: Callable[[Any], bool]
    creator_logic: Callable[[], Any]
    creator_exec: Callable[[], Any]
    corr: Callable[[Any, Any], str | None]
    exports: tuple[Export, ...]

    def __post_init__(self):
        names = [e.name for e in self.exports]
        if len(names) != len(set(names)):
            raise ValueError(f"duplicate export names in {self.name!r}")
        for e in self.exports:
            if e.kind not in ("reader", "updater"):
                raise ValueError(f"export {e.name!r}: bad kind {e.kind!r}")


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
            _raise_first(self.spec.name,
                         _check_created(self.spec, concrete, abstract))
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
        With `audit` it costs one recognizer call.  For y86 that is O(1):
        every sparse history is canonical by construction, so its
        `wellformed()` reads none of the map.
        """
        if self.poisoned:
            return False
        return not audit or bool(self.spec.recognizer_logic(self.abstract))

    def invoke(self, name: str, *args):
        """Run one export under guard checks and the atomicity protocol.

        Returns the reader's value; updaters return None.  Raises
        GuardViolation (for arguments the guard rejects or that do not fit
        its signature, before either state is touched), PoisonedState,
        AtomicityViolation, and (in check mode) CorrespondenceFailure /
        PreservationFailure.
        """
        export = self._exports.get(name)
        if export is None:
            raise KeyError(f"{self.spec.name!r} has no export {name!r}")
        if self.poisoned:
            detail = f": {self._poison_info}" if self._poison_info else ""
            raise PoisonedState(
                f"{self.spec.name} was abandoned mid-update{detail}")
        try:
            admitted = export.guard(self.abstract, *args)
        except TypeError:
            # Bound only on this path, so an admitted invoke pays nothing.
            try:
                inspect.signature(export.guard).bind(self.abstract, *args)
            except TypeError as exc:
                raise GuardViolation(f"export {name!r}: {exc}") from None
            raise
        if not admitted:
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
            if delta > (export.kind == "updater"):
                raise AtomicityViolation(
                    f"export {name!r} performed {delta} primitive updates "
                    f"but is not marked protect")

        if self.mode == "check":
            new_abstract, failures = _check_invoke(
                self.spec, export, concrete, self.abstract, args, result)
            _raise_first(name, failures)
            self.abstract = new_abstract
        return result if export.kind == "reader" else None


def _check_invoke(spec, export, concrete, abstract, args, result):
    """Check the logic side of one invoke against its exec `result`.

    Returns (new abstract value, [(family, message)]), family "corr" or
    "pres": a reader's logic value must equal `result`; an updater's must
    correspond to `concrete`, then satisfy the recognizer.  An exception
    from the logic side propagates.
    """
    logic_result = export.logic_fn(abstract, *args)
    if export.kind == "reader":
        if result != logic_result:
            return abstract, [
                ("corr", f"exec {result!r} != logic {logic_result!r}")]
        return abstract, []
    difference = spec.corr(concrete, logic_result)
    failures = [] if difference is None else [
        ("corr", f"updated states do not correspond: {difference}")]
    if not spec.recognizer_logic(logic_result):
        failures.append(("pres", "recognizer rejects updated abstract value"))
    return logic_result, failures


def _check_created(spec, concrete, abstract):
    """The creator obligations over a new pair, as [(family, message)]."""
    difference = spec.corr(concrete, abstract)
    failures = [] if difference is None else [
        ("corr", "creators do not produce corresponding states: "
                 f"{difference}")]
    if not spec.recognizer_logic(abstract):
        failures.append(
            ("pres", "created abstract value fails the recognizer"))
    return failures


def _raise_first(where: str, failures) -> None:
    if failures:
        family, message = failures[0]
        error = (PreservationFailure if family == "pres"
                 else CorrespondenceFailure)
        raise error(f"{where}: {message}")


# ---------------------------------------------------------------------------
# obligation suites

class CaseSource:
    """Draws guard-satisfying (concrete, abstract, args) cases from a pool
    of one corresponding pair.

    A subclass sets `RESET_EVERY` and defines `_fresh()`, a new [concrete,
    abstract] list; `_evolve(concrete, abstract, rng)`, one update of the
    pair that returns its next abstract value; `_args_for(export_name,
    rng, abstract)`; and `_retire(concrete, abstract)`, a retired pair's
    first difference or None.  Only `draw` retires a pair, every
    `RESET_EVERY` draws, and raises a difference as "pool history: ..."
    naming the draws, numbered from 0, that built and retired the pair;
    `check_obligations` records it as that case's.  `draw` evolves the
    pair zero to two times, and it also builds a pair on the first draw,
    after `mark_failure` and after an `_evolve` that raises, dropping the
    old pair uncompared.  `advance` takes a passing updater's new abstract
    value.  `snapshot` returning independent copies enables counterexample
    shrinking; returning None disables it.
    """

    RESET_EVERY: int

    def __init__(self):
        self._pair: list | None = None
        self._drawn = 0
        self._built = None  # the number of the draw that built the pair

    def draw(self, export_name: str, rng: Random):
        drawn = self._drawn
        self._drawn = drawn + 1
        if self._pair is None or drawn % self.RESET_EVERY == 0:
            retired, self._pair = self._pair, None
            if retired is not None:
                difference = self._retire(*retired)
                del retired  # hold no retired machine past its check
                if difference is not None:
                    raise CorrespondenceFailure(
                        f"pool history: {difference}; pair built at draw "
                        f"{self._built}, retired at draw {drawn}")
            self._pair, self._built = self._fresh(), drawn
        concrete, abstract = self._pair
        try:
            for _ in range(rng.randrange(3)):
                abstract = self._evolve(concrete, abstract, rng)
        except Exception:  # the export's own cases record the raise
            self._pair, self._built = self._fresh(), drawn
            concrete, abstract = self._pair
        self._pair[1] = abstract
        return concrete, abstract, self._args_for(export_name, rng, abstract)

    def advance(self, new_abstract) -> None:
        if self._pair is not None:
            self._pair[1] = new_abstract

    def mark_failure(self) -> None:
        self._pair = None

    def _retire(self, concrete, abstract):
        return None

    def snapshot(self, concrete, abstract):
        return None


@dataclass
class FailureRecord:
    """One failed case, named by its obligation (and so its export), its
    case index and the suite seed; `check_obligations` with the same case
    count and seed, on a fresh source, fails it again."""

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
    """Run one case; returns (new abstract value | None, [(family, message)]).

    family is one of "corr", "pres", "guard".  The guard obligation is
    checked before the exec function runs, so a failing precondition is
    reported rather than crashed on.
    """
    if export.exec_guard is not None and not export.exec_guard(concrete, *args):
        return None, [("guard", f"abstract guard admits {args!r} but the "
                                f"exec precondition rejects it")]
    try:
        result = export.exec_fn(concrete, *args)
    except Exception as exc:  # exec must be total on guarded inputs
        return None, [("corr", f"exec raised {type(exc).__name__}: {exc}")]
    try:
        return _check_invoke(spec, export, concrete, abstract, args, result)
    except Exception as exc:
        return None, [("corr", f"logic raised {type(exc).__name__}: {exc}")]


# Candidate argument tuples one shrink may try.
_SHRINK_ATTEMPTS = 60


def _shrink_args(spec, export, source, pristine, args):
    """Greedily shrink integer arguments toward 0, by magnitude, while the
    case still fails; returns the smaller tuple or None."""
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

    original = best = tuple(args)
    attempts = 0
    improved = True
    while improved:
        improved = False
        for idx, val in enumerate(best):
            if not isinstance(val, int) or isinstance(val, bool) or val == 0:
                continue
            sign = 1 if val > 0 else -1
            for smaller in (0, sign * (abs(val) // 2), val - sign):
                if attempts == _SHRINK_ATTEMPTS:
                    return best if best != original else None
                attempts += 1
                candidate = best[:idx] + (smaller,) + best[idx + 1:]
                if still_fails(candidate):
                    best = candidate
                    improved = True
                    break
    return best if best != original else None


def _export_seed(suite_seed: int, export_name: str) -> int:
    base = zlib.crc32(export_name.encode()) ^ (suite_seed & 0xFFFFFFFF)
    return (base * 0x9E3779B1) & 0xFFFFFFFF


def check_obligations(spec: LockstepSpec, source: CaseSource, n_cases: int,
                      seed: int = 0) -> ObligationReport:
    """Run the three obligation families as randomized property suites.

    For each export, `n_cases` generated cases are checked for reader
    agreement or update correspondence, recognizer preservation, and the
    exec precondition following from the guard.  Each export draws its
    cases in order from one generator seeded by (`seed`, export name), from
    a pool that carries over from one export to the next, so the whole
    suite is one deterministic stream.  Failures are recorded, never
    raised, by obligation, case index and `seed` (with shrunk arguments
    when the source supports snapshots); the same `n_cases` and `seed` on
    a fresh source reproduce each one, its pre-state included.
    """
    if not is_nat(n_cases):
        raise ValueError("case count must be a natural number")
    outcomes: list[ObligationOutcome] = []

    created = {"corr": ObligationOutcome("create{CORRESPONDENCE}", 1),
               "pres": ObligationOutcome("create{PRESERVED}", 1)}
    abstract0 = spec.creator_logic()
    concrete0 = spec.creator_exec()
    for family, message in _check_created(spec, concrete0, abstract0):
        out = created[family]
        out.failures.append(FailureRecord(out.name, 0, seed, "()", message))
    outcomes += created.values()

    for export in spec.exports:
        corr_out = ObligationOutcome(f"{export.name}{{CORRESPONDENCE}}", n_cases)
        guard_out = ObligationOutcome(f"{export.name}{{GUARD-THM}}", n_cases)
        pres_out = (ObligationOutcome(f"{export.name}{{PRESERVED}}", n_cases)
                    if export.kind == "updater" else None)
        family_out = {"corr": corr_out, "guard": guard_out, "pres": pres_out}

        rng = Random(_export_seed(seed, export.name))
        for case in range(n_cases):
            try:
                concrete, abstract, args = source.draw(export.name, rng)
            except CorrespondenceFailure as exc:  # from a retired pair
                corr_out.failures.append(FailureRecord(
                    corr_out.name, case, seed, "()", str(exc)))
                continue
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
                        out.name, case, seed, repr(args), message,
                        shrunk_text))
                source.mark_failure()
            elif export.kind == "updater":
                source.advance(new_abstract)
            # The pool may rebuild on the next draw; hold no machine of
            # this case past it.
            del concrete, abstract, pristine, new_abstract

        outcomes.append(corr_out)
        if pres_out is not None:
            outcomes.append(pres_out)
        outcomes.append(guard_out)

    return ObligationReport(spec.name, seed, outcomes)

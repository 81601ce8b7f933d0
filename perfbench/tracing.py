"""Spans around the public entry points of each y86sim module.

`Tracer.installed()` replaces each entry point with a wrapper that records
a span (name, start, end, parent, case id) and restores the originals on
exit.  Counts, self times and inclusive times are aggregated exactly for
every call; the spans themselves are kept in memory, up to SPAN_CAP of
them, and written out as JSONL at the end of the run.

A span's self time is its duration minus the durations of its child
spans.  The lockstep check time is the duration of `run_in_lockstep`
minus its child `Machine.step` spans, so memory reads made by the check
count as check time there and as memory time in the memory layer.
"""

from __future__ import annotations

import dataclasses
import json
import time
from array import array
from contextlib import contextmanager

from y86sim import asm, isa, lockstep, machine
from y86sim.machine import Machine
from y86sim.mem_paged import PagedMemory
from y86sim.mem_sparse import SparseMemory

# Span name for every wrapped entry point, grouped by layer.
SPANS = {
    "asm": ("parse", "assemble"),
    "isa": ("decode",),
    "machine": ("step", "run", "reload", "copy", "run_in_lockstep"),
    "mem_paged": ("read", "write", "add_page", "wellformed"),
    "mem_sparse": ("read", "write", "touched", "wellformed"),
    "lockstep": ("check_obligations", "draw", "exec", "logic", "corr",
                 "recognizer"),
}
# Spans kept in memory and written out; the aggregates cover every call.
SPAN_CAP = 200_000


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.total_s: list[float] = []
        self.case = 0
        self.spans = 0
        self.lockstep_check_s = 0.0
        self.addresses_checked = 0
        self.icache_clears = 0
        self.entries_peak = 0
        self.pages_peak = 0
        self.failures = 0
        self._stack: list[list] = []
        self._ids: dict[str, int] = {}
        # Stored spans, one column per field.
        self._id = array("q")
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._case = array("q")
        self._step = self._name_id("machine.step")
        self._lockstep = self._name_id("machine.run_in_lockstep")

    def new_case(self) -> None:
        self.case += 1

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
            self.total_s.append(0.0)
        return nid

    def wrap(self, name: str, fn, after=None):
        """`fn` recording a span named `name`; `after(result)` runs once
        the span is closed."""
        nid = self._name_id(name)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self.spans
            self.spans = sid + 1
            parent = stack[-1][0] if stack else -1
            frame = [sid, 0.0, 0.0, clock()]   # id, child s, step child s, start
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self._close(nid, frame, parent, end)
            if after is not None:
                after(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, nid: int, frame: list, parent: int, end: float) -> None:
        sid, child, step_child, start = frame
        dur = end - start
        self.calls[nid] += 1
        self.total_s[nid] += dur
        self.self_s[nid] += dur - child
        if self._stack:
            up = self._stack[-1]
            up[1] += dur
            if nid == self._step:
                up[2] += dur
        if nid == self._lockstep:
            self.lockstep_check_s += dur - step_child
        if len(self._id) < SPAN_CAP:
            self._id.append(sid)
            self._name.append(nid)
            self._start.append(start)
            self._end.append(end)
            self._parent.append(parent)
            self._case.append(self.case)

    # -- installation --------------------------------------------------------

    def _wrap_spec(self, make_spec):
        def traced_spec(*args, **kwargs):
            spec = make_spec(*args, **kwargs)
            exports = tuple(
                dataclasses.replace(
                    e, exec_fn=self.wrap("lockstep.exec", e.exec_fn),
                    logic_fn=self.wrap("lockstep.logic", e.logic_fn))
                for e in spec.exports)
            return dataclasses.replace(
                spec, exports=exports,
                corr=self.wrap("lockstep.corr", spec.corr),
                recognizer_logic=self.wrap("lockstep.recognizer",
                                           spec.recognizer_logic))
        return traced_spec

    def _patches(self):
        """(owner, attribute, replacement) for every traced entry point."""
        w = self.wrap

        def clears(fn):
            def counted(m, *args, **kwargs):
                before = m.icache_clears
                try:
                    return fn(m, *args, **kwargs)
                finally:
                    self.icache_clears += m.icache_clears - before
            return counted

        def sparse_size(result):
            self.entries_peak = max(self.entries_peak, len(result))

        def pages(result):
            self.pages_peak = max(self.pages_peak, result.pages_allocated())

        def checked(report):
            self.addresses_checked += report.addresses_checked

        def failures(report):
            self.failures += report.total_failures

        traced_decode = w("isa.decode", isa.decode)
        traced_lockstep = w("machine.run_in_lockstep", machine.run_in_lockstep,
                            checked)
        return [
            (asm, "parse", w("asm.parse", asm.parse)),
            (asm, "assemble", w("asm.assemble", asm.assemble)),
            (isa, "decode", traced_decode),
            (machine, "decode", traced_decode),
            (Machine, "step", w("machine.step", Machine.step)),
            (Machine, "run", w("machine.run", Machine.run)),
            (Machine, "reload",
             clears(w("machine.reload", Machine.reload))),
            (Machine, "copy", w("machine.copy", Machine.copy)),
            (Machine, "write_byte", clears(Machine.write_byte)),
            (machine, "run_in_lockstep", traced_lockstep),
            (PagedMemory, "read", w("mem_paged.read", PagedMemory.read)),
            (PagedMemory, "write", w("mem_paged.write", PagedMemory.write)),
            (PagedMemory, "add_page",
             w("mem_paged.add_page", PagedMemory.add_page, pages)),
            (PagedMemory, "wellformed",
             w("mem_paged.wellformed", PagedMemory.wellformed)),
            (SparseMemory, "read", w("mem_sparse.read", SparseMemory.read)),
            (SparseMemory, "write",
             w("mem_sparse.write", SparseMemory.write, sparse_size)),
            (SparseMemory, "touched",
             w("mem_sparse.touched", SparseMemory.touched)),
            (SparseMemory, "wellformed",
             w("mem_sparse.wellformed", SparseMemory.wellformed)),
            (lockstep, "check_obligations",
             w("lockstep.check_obligations", lockstep.check_obligations,
               failures)),
            (lockstep, "y86_spec", self._wrap_spec(lockstep.y86_spec)),
            (lockstep, "demo_spec", self._wrap_spec(lockstep.demo_spec)),
            (lockstep.Y86Cases, "draw",
             w("lockstep.draw", lockstep.Y86Cases.draw)),
            (lockstep.DemoCases, "draw",
             w("lockstep.draw", lockstep.DemoCases.draw)),
        ]

    @contextmanager
    def installed(self):
        """Trace every entry point while the block runs."""
        saved = []
        try:
            for owner, attr, replacement in self._patches():
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, replacement)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- results ---------------------------------------------------------------

    def _get(self, table: list, name: str):
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and times; lockstep phase times are inclusive,
        every other time is self time."""
        calls = lambda n: self._get(self.calls, n)
        own = lambda n: self._get(self.self_s, n)
        incl = lambda n: self._get(self.total_s, n)
        steps = calls("machine.step")
        decodes = calls("isa.decode")
        out = {
            "machine.steps": steps,
            "machine.step_self_s": own("machine.step"),
            "machine.run_self_s": own("machine.run"),
            "machine.icache_hit_ratio": 1 - decodes / steps if steps else 0.0,
            "machine.icache_clears": self.icache_clears,
            "machine.reload_calls": calls("machine.reload"),
            "machine.reload_s": own("machine.reload"),
            "machine.copy_calls": calls("machine.copy"),
            "machine.copy_s": own("machine.copy"),
            "machine.lockstep_check_s": self.lockstep_check_s,
            "machine.lockstep_addresses_checked": self.addresses_checked,
            "isa.decode_calls": decodes,
            "isa.decode_s": own("isa.decode"),
        }
        for layer in ("mem_sparse", "mem_paged"):
            for fn in SPANS[layer]:
                out[f"{layer}.{fn}_calls"] = calls(f"{layer}.{fn}")
                out[f"{layer}.{fn}_s"] = own(f"{layer}.{fn}")
        out["mem_sparse.entries_peak"] = self.entries_peak
        out["mem_paged.pages_peak"] = self.pages_peak
        out["lockstep.cases"] = calls("lockstep.draw")
        for phase in ("draw", "exec", "logic", "corr", "recognizer"):
            out[f"lockstep.{phase}_s"] = incl(f"lockstep.{phase}")
        out["lockstep.self_s"] = sum(own(f"lockstep.{fn}")
                                     for fn in SPANS["lockstep"])
        out["lockstep.failures"] = self.failures
        out["asm.parse_s"] = own("asm.parse")
        out["asm.assemble_s"] = own("asm.assemble")
        out["trace.spans"] = self.spans
        return out

    def write_jsonl(self, path) -> int:
        """Write the stored spans, one JSON object a line; returns how many."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self._id)):
                fh.write(json.dumps({
                    "id": self._id[i], "name": names[self._name[i]],
                    "start": self._start[i], "end": self._end[i],
                    "parent": self._parent[i], "case": self._case[i],
                }) + "\n")
        return len(self._id)

"""y86sim benchmark: one workload per run, all metrics on one JSON line.

    python3 perfbench/run.py --workload popcount --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the simulator is imported from its
`src/` directory.  With `--trace 0` the workload runs in rounds, untraced,
for `--seconds` seconds after its set-up, and the end-to-end metrics are
the medians over the rounds.  With `--trace 1` a fixed number of rounds
runs once untraced and once with every module entry point traced; the
per-layer metrics come from the traced pass and the ratio of the two
passes' wall times is the tracing overhead.

Every run checks every output (see workloads.py) and the digest of what
round 0 simulated against `digests.json`.  Human-readable lines come
first; the last line of standard output is the result object.  The exit
code is 0 only when every check passed.  A report with the environment
and, when traced, the spans as JSONL are written under `.bench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
OUT_DIR = ROOT / ".bench_out"

DEFAULT_SEED = 1
HELD_OUT_SEED = 1009
SETUP_REPEATS = 25
MIN_ROUNDS = 3
PACE_S = 0.02   # host time between two timings of the reference loop
TRACE_ROUNDS = {"popcount": 2, "memwalk": 2, "obligations": 6}
# Time of the reference loop on the host the bounds were set on (2 vCPUs,
# Python 3.11), when that host ran at its fastest.
CAL_REFERENCE_S = 0.0012

# name -> unit; the order is the order of BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "paged.instr_per_s": "1/s",
    "sparse.instr_per_s": "1/s",
    "lockstep.steps_per_s": "1/s",
    "cases_per_s": "1/s",
    "case_p50_us": "us",
    "peak_rss_mb": "MB",
}
# Printed on every run but not gated: fail_rate is 0 on a correct run,
# and the others exist on some workloads only.
REPORTED_ONLY = {
    "case_p99_us": "us",
    "demo.cases_per_s": "1/s",
    "fail_rate": "ratio",
}


def per_layer_units() -> dict[str, str]:
    from tracing import Tracer
    units = {}
    for name in Tracer().layer_metrics():
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_ratio"):
            units[name] = "ratio"
        else:
            units[name] = "count"
    units["trace.overhead_ratio"] = "ratio"
    return units


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from `.git` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class _Toy:
    """A few registers and a byte map, stepped the way the simulator's
    interpreter loop steps a machine, without calling any of its code."""

    __slots__ = ("regs", "mem", "pc")

    def __init__(self):
        self.regs = [0] * 8
        self.mem = {}
        self.pc = 0

    def read(self, addr):
        return self.mem.get(addr & 0xFFFFFFFF, 0)

    def step(self, i):
        r = self.regs
        r[i & 7] = (r[(i + 3) & 7] + self.read(i & 1023) + i) & 0xFFFFFFFF
        if i & 3 == 0:
            self.mem[i & 1023] = r[i & 7] & 0xFF
        self.pc = (self.pc + 2) & 0xFFFFFFFF


def _reference_loop() -> None:
    toy = _Toy()
    for i in range(3000):
        toy.step(i)


def loop_seconds() -> float:
    """Seconds the reference loop takes now."""
    t0 = time.perf_counter()
    _reference_loop()
    return time.perf_counter() - t0


def calibrate() -> float:
    """Seconds the reference loop takes now; the faster of two tries."""
    return min(loop_seconds(), loop_seconds())


def bracketed(fn):
    """Run `fn` between two timings of the reference loop.

    Returns its result, its duration and the scale that turns host
    seconds into seconds at the reference speed."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - t0
    return result, seconds, CAL_REFERENCE_S / ((before + calibrate()) / 2)


class Pacer:
    """Scales the workload's timed slices to the reference loop's speed.

    The host switches between a fast and a slower state every few tens to
    hundreds of milliseconds, with load from outside the process.  Once
    PACE_S of host time has passed since the reference loop was last
    timed, it is timed again, between two slices; every slice in between
    is scaled by CAL_REFERENCE_S over the mean of those two timings.
    """

    def __init__(self):
        self.loop_s = loop_seconds()
        self.since = time.perf_counter()
        self.pending = []
        self.scales = []

    def push(self, out, *slice_) -> None:
        self.pending.append((out, slice_))
        if time.perf_counter() - self.since >= PACE_S:
            self.flush()

    def flush(self) -> None:
        now = loop_seconds()
        scale = CAL_REFERENCE_S / ((self.loop_s + now) / 2)
        for out, (seconds, *rest) in self.pending:
            out.scaled.credit(seconds * scale, *rest)
        self.pending.clear()
        self.scales.append(scale)
        self.loop_s = now
        self.since = time.perf_counter()


def timed_setup(cls, seed: int, pacer: Pacer):
    """Set the workload up SETUP_REPEATS times; returns the last instance
    and the median set-up time, raw and scaled to the reference speed."""
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        wl, seconds, scale = bracketed(lambda: cls(seed, pacer=pacer))
        raw.append(seconds)
        scaled.append(seconds * scale)
    return wl, statistics.median(raw), statistics.median(scaled)


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text())


def reference_digest(cls, seed: int) -> str:
    from workloads import digest
    return digest(cls(seed).round(0).record)


def check_digest(cls, seed: int, record, lines: list[str]) -> list[str]:
    """Compare round 0's digest with digests.json; returns the failures.

    On a seed that digests.json does not pin, round 0 of the default
    seed is run again and checked instead, so every run checks one."""
    from workloads import digest
    goldens = load_digests()[cls.name]
    got = digest(record)
    if str(seed) not in goldens:
        lines.append(f"digest {cls.name} seed={seed} = {got} (not pinned)")
        seed, got = DEFAULT_SEED, reference_digest(cls, DEFAULT_SEED)
    want = goldens[str(seed)]
    lines.append(f"digest {cls.name} seed={seed} = {got} (golden {want})")
    if got == want:
        return []
    return [f"digest of seed {seed} is {got}, digests.json has {want}"]


def measure(cls, seed: int, seconds: float, lines: list[str]):
    """Untraced run: set-up, warm-up round 0, then rounds until `seconds`.

    Every gated timing is scaled by a `Pacer`: it is what the host would
    have measured at the reference loop's speed.  Each rate is the median
    over the rounds; the unscaled medians are printed as well.
    """
    pacer = Pacer()
    wl, raw_setup_s, setup_s = timed_setup(cls, seed, pacer)
    first = wl.round(0)
    pacer.flush()
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(wl.round(len(rounds) + 1))
        pacer.flush()

    metrics = {"setup_s": setup_s}
    raw = {"setup_s": raw_setup_s}
    for values, books in ((metrics, [r.scaled for r in rounds]),
                          (raw, [r.raw for r in rounds])):
        per_round = [book.rates() for book in books]
        for name in list(END_TO_END) + list(REPORTED_ONLY):
            found = [rates[name] for rates in per_round if name in rates]
            if found:
                values[name] = statistics.median(found)
        latencies = [t for book in books for t in book.cases.values()]
        if latencies:
            values["case_p50_us"] = percentile(latencies, 0.50) * 1e6
        if len(latencies) >= 1000:   # ten samples beyond the 99th percentile
            values["case_p99_us"] = percentile(latencies, 0.99) * 1e6
    # Before the digest check, which may build a second instance.
    metrics["peak_rss_mb"] = peak_rss_mb()

    checks = first.checks + sum(r.checks for r in rounds) + 1
    failures = (first.failures + [f for r in rounds for f in r.failures]
                + check_digest(cls, seed, first.record, lines))
    metrics["fail_rate"] = len(failures) / checks
    lines.append(f"rounds: {len(rounds)} measured after 1 warm-up round; "
                 f"{len(latencies)} case latencies; host speed "
                 f"{statistics.median(pacer.scales):.3f} x reference (median "
                 f"of {len(pacer.scales)} timings)")
    units = {**END_TO_END, **REPORTED_ONLY}
    for name, value in raw.items():
        lines.append(f"raw {name} = {value:.6g} {units[name]}")
    return metrics, checks, failures


def trace(cls, seed: int, lines: list[str]):
    """Fixed rounds untraced, then the same rounds traced."""
    from tracing import Tracer
    n = TRACE_ROUNDS[cls.name]
    t0 = time.perf_counter()
    wl = cls(seed)
    for r in range(n):
        wl.round(r)
    plain_s = time.perf_counter() - t0

    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer.installed():
        wl = cls(seed, on_case=tracer.new_case)
        rounds = [wl.round(r) for r in range(n)]
    traced_s = time.perf_counter() - t0

    metrics = tracer.layer_metrics()
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{cls.name}-seed{seed}.jsonl"
    written = tracer.write_jsonl(path)
    lines.append(f"trace: {n} rounds, untraced {plain_s:.3f} s, traced "
                 f"{traced_s:.3f} s; {tracer.spans} spans, {written} written "
                 f"to {path.relative_to(ROOT)}")
    checks = sum(r.checks for r in rounds) + 1
    failures = ([f for r in rounds for f in r.failures]
                + check_digest(cls, seed, rounds[0].record, lines))
    return metrics, checks, failures


def run(workload: str, seed: int, seconds: float, traced: bool):
    """Run one workload; returns (human lines, result object, report)."""
    from workloads import WORKLOADS
    cls = WORKLOADS[workload]
    env = environment()
    lines = [
        f"perfbench workload={workload} seed={seed} seconds={seconds} "
        f"trace={int(traced)} (default seed {DEFAULT_SEED}, held-out seed "
        f"{HELD_OUT_SEED})",
        "env " + " ".join(f"{k}={v}" for k, v in env.items()),
        f"why: {cls.why}",
        f"input: {cls.size}",
    ]
    if traced:
        values, checks, failures = trace(cls, seed, lines)
        units = per_layer_units()
    else:
        values, checks, failures = measure(cls, seed, seconds, lines)
        units = {**END_TO_END, **REPORTED_ONLY}
    gated = units if traced else END_TO_END
    # A check that fails every unit of a leg's work leaves its metric
    # unmeasured; that every gated metric was measured is checked too.
    checks += len(gated)
    failures += [f"{name} was not measured" for name in gated
                 if name not in values]
    for name, unit in units.items():
        if name in values:
            lines.append(f"metric {name} = {values[name]:.6g} {unit}")
    for message in failures[:20]:
        lines.append(f"FAILED: {message}")
    result = {
        "correct": not failures,
        "attempted": checks,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in gated.items() if name in values},
    }
    report = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(traced), "environment": env, "why": cls.why,
              "input": cls.size, "metrics": values, "result": result,
              "failures": failures}
    return lines, result, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("popcount", "memwalk", "obligations"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "y86sim" / "__init__.py").is_file():
        print(f"error: no simulator source at {src}; run from the root of "
              f"a y86sim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    lines, result, report = run(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}"
               f".json").write_text(json.dumps(report, indent=2) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

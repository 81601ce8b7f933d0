"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, make_walk  # noqa: E402
from y86sim.mem_paged import PagedMemory  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_metric_lists_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == run.per_layer_units()
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_short_run_passes(workload):
    lines, result, _ = run.run(workload, run.DEFAULT_SEED, 0, False)
    assert result["correct"], lines
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any("(golden " in line and "None" not in line for line in lines)


def test_traced_run_reports_every_layer():
    lines, result, _ = run.run("obligations", run.DEFAULT_SEED, 0, True)
    assert result["correct"], lines
    values = {k: m["value"] for k, m in result["metrics"].items()}
    assert set(values) == set(run.per_layer_units())
    for name in ("machine.steps", "isa.decode_calls", "mem_paged.add_page_calls",
                 "mem_sparse.write_calls", "lockstep.cases", "asm.parse_s",
                 "machine.lockstep_check_s"):
        assert values[name] > 0, name
    assert values["trace.overhead_ratio"] > 1


def test_tracer_restores_entry_points():
    before = PagedMemory.write
    with Tracer().installed():
        assert PagedMemory.write is not before
    assert PagedMemory.write is before


def test_walk_model_matches_generator():
    import random
    walk = make_walk(random.Random(5), regions=2, words=3)
    assert walk.blocks == 3
    assert len(walk.written) == 2 * 3 * 4
    assert walk.steps == 2 + 2 * (5 + 15) + 2 * (3 + 15) + 1


def test_corrupted_backend_write_fails_the_run(monkeypatch):
    original = PagedMemory.write
    corrupted = []

    def corrupting_write(mem, addr, value):
        if not corrupted and addr >> 24:   # first byte outside block 0
            corrupted.append(addr)
            value ^= 0x01
        return original(mem, addr, value)

    monkeypatch.setattr(PagedMemory, "write", corrupting_write)
    lines, result, _ = run.run("memwalk", run.DEFAULT_SEED, 0, False)
    assert corrupted
    assert not result["correct"]
    assert result["failed"] >= 1


def test_unmeasured_metric_fails_the_run(monkeypatch):
    from y86sim import machine
    from y86sim.errors import CorrespondenceFailure

    def always_fails(*args, **kwargs):
        raise CorrespondenceFailure("injected")

    monkeypatch.setattr(machine, "run_in_lockstep", always_fails)
    lines, result, _ = run.run("memwalk", run.DEFAULT_SEED, 0, False)
    assert not result["correct"]
    assert "lockstep.steps_per_s" not in result["metrics"]
    assert "FAILED: lockstep.steps_per_s was not measured" in lines


def test_exits_nonzero_without_the_simulator(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "popcount",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout

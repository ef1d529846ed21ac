"""Self-tests of the benchmark: every correctness check fires.

Run from the repository root: ``python -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.apps import LEVEL_BUILDERS, reference_output
from repro.explore import ArchitectureConfig, FaultSpec, run_point
from repro.explore.runner import HAZARD_ENV
from repro.kernel import us
from repro.sweep import SweepEngine

from perfbench import ledger, parts
from perfbench import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SPARSE = wl.REGIMES["sparse"]


def test_truncated_point_is_a_failure():
    specs = wl.explore_specs(SPARSE)
    result = run_point(ArchitectureConfig(), specs, max_sim_time=us(5))
    checks = parts.Checks()
    checks.record("short", parts.point_problems(result, specs))
    assert checks.failed == 1 and checks.failed / checks.attempted > 0
    assert checks.failures[0][1][0].startswith("truncated_point")


def test_bus_error_is_a_failure():
    specs = wl.explore_specs(SPARSE)
    result = run_point(ArchitectureConfig(), specs,
                       faults=FaultSpec(seed=3, bus_error_rate=0.2))
    problems = parts.point_problems(result, specs)
    assert any(p.startswith("bus_error") for p in problems)


def test_clean_point_passes():
    specs = wl.explore_specs(SPARSE)
    result = run_point(ArchitectureConfig(), specs, seed=5)
    assert parts.point_problems(result, specs) == []


def test_tampered_flow_output_is_caught():
    name, builder = LEVEL_BUILDERS[0]
    system = parts.run_level(name, builder, 4)
    golden = reference_output(4)
    assert parts.level_problems(name, system, golden) == []
    system.sink.results[2][0] += 1
    problems = parts.level_problems(name, system, golden)
    assert problems and problems[0].startswith("flow_output_mismatch")


def test_sweep_parity_catches_a_differing_pooled_result():
    points = parts.sweep_points(SPARSE, seed=3)
    local = [parts.simulated_dict(run_point(
        p.config, list(p.specs), workload_name=p.workload,
        max_sim_time=p.max_sim_time, seed=p.seed, boot=p.boot))
        for p in points]
    checks = parts.Checks()
    parts.check_sweep_parity(points, local, 3, checks)
    assert checks.failed == 0
    for data in local:
        data["masters"][0]["completed"] += 1
    parts.check_sweep_parity(points, local, 3, checks)
    assert checks.failed == parts.SWEEP_SAMPLE
    assert checks.failures[0][1][0].startswith("sweep_mismatch")


def test_quarantined_point_is_a_failure(tmp_path, monkeypatch):
    points = parts.sweep_points(SPARSE, seed=3)[:3]
    monkeypatch.setenv(HAZARD_ENV,
                       json.dumps({points[1].config.name: "raise"}))
    engine = SweepEngine(workers=1, warm_start=True,
                         checkpoint_dir=str(tmp_path / "ckpt"))
    outcomes = engine.run(points)
    checks = parts.Checks()
    parts.check_sweep_round(outcomes, engine, list(points[0].specs),
                            "sweep", checks)
    assert checks.failed == 1
    assert checks.failures[0][1][0].startswith("quarantined")


def test_accuracy_reports_the_first_divergent_transaction():
    assert parts.first_divergence([[4, 8], [6, 9]],
                                  [[4, 9], [7, 9]]) == (1, 0, 6, 7)
    assert parts.first_divergence([[4, 8]], [[4, 8]]) is None
    plan = wl.accuracy_plans(1, SPARSE)[0]
    ccatb = parts.replay(plan, "ccatb")
    assert [len(c) for c in ccatb] == [len(m) for m in plan.masters]
    assert ccatb == parts.replay(plan, "ccatb")


def test_inputs_follow_the_seed():
    assert wl.accuracy_plans(4, SPARSE) == wl.accuracy_plans(4, SPARSE)
    assert wl.accuracy_plans(4, SPARSE) != wl.accuracy_plans(5, SPARSE)
    assert wl.explore_configs(4) == wl.explore_configs(4)


def test_tracing_wrappers_are_removed_and_change_no_result():
    from repro.cam.memory import MemorySlave

    specs = wl.explore_specs(SPARSE)
    config = ArchitectureConfig(fabric="crossbar")
    plain = run_point(config, specs, seed=2)
    access = MemorySlave.access
    timers = ledger.Timers()
    profiler = ledger.LayerProfiler()
    with ledger.instrumented(timers):
        traced = run_point(config, specs, seed=2, observer=profiler)
    assert MemorySlave.access is access
    assert parts.simulated_dict(traced) == parts.simulated_dict(plain)
    txns = sum(m.completed for m in traced.masters)
    assert timers.slave_calls == txns
    assert 0 < timers.socket_s < profiler.layer_s["explore"]
    assert set(profiler.layer_s) == {"explore", "cam"}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_names_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "contended",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()}

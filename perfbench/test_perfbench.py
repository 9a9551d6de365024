"""Self-tests of the benchmark (not part of the program's test suite).

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import bench  # noqa: E402
import checks  # noqa: E402
import tracer as tr  # noqa: E402
from fwrta import scenario, simulate  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SHORT_HORIZON = 1.0  # s; enough steps for every layer to be called


def short(name: str, seed: int = 0) -> dict:
    raw = generate(name, seed)
    raw["t_final"] = SHORT_HORIZON
    return raw


def traced_slice(name: str):
    tracer = tr.Tracer()
    out_dir = bench.RESULTS / "selftest"
    out_dir.mkdir(parents=True, exist_ok=True)
    with tr.installed(tracer, None):
        rec, _, log, _, _ = bench.run_slice(short(name), WORKLOADS[name], out_dir)
    return tracer, rec, log


def originals():
    names = [(owner, attr) for owner, attr, _ in tr.TARGETS] + [(simulate, "make_controller")]
    return {(owner.__name__, attr): getattr(owner, attr) for owner, attr in names}


def test_wrappers_are_removed_afterwards():
    before = originals()
    with tr.installed(tr.Tracer(), tr.StepTimer()):
        during = originals()
        assert all(during[k] is not before[k] for k in before)
    assert originals() == before
    with pytest.raises(RuntimeError):
        with tr.installed(tr.Tracer(), tr.StepTimer()):
            raise RuntimeError("boom")
    assert originals() == before


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_self_times_sum_within_traced_step_time(name):
    tracer, rec, _ = traced_slice(name)
    spans = tr.self_times(tracer.spans)[0]
    layers = bench.layer_values(spans, rec["steps"])
    per_step = [layers[k] for k in bench.LAYER_US_PER_STEP]
    assert all(v >= 0.0 for v in per_step)
    # the layers under integrate partition its span, so they sum to it
    assert sum(per_step) <= layers["trace.step_us"] * (1 + 1e-9)
    assert sum(per_step) == pytest.approx(layers["trace.step_us"], rel=1e-9)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_coverage_of_each_workload(name):
    tracer, _, _ = traced_slice(name)
    calls = {n: c for n, (_, c, _) in tr.self_times(tracer.spans)[0].items()}
    assert checks.layer_coverage(WORKLOADS[name], calls) == []


def test_coverage_guard_flags_missing_and_bypassed_layers():
    w = WORKLOADS["intruder-extended"]
    calls = {n: 10 for n in w.expected}
    calls.pop("tracking.track")  # as after a rename of simulate.track
    calls["backstepping.rta_backstepping"] = 3
    problems = checks.layer_coverage(w, calls)
    assert any(p.startswith("tracking.track:") for p in problems)
    assert any(p.startswith("backstepping.rta_backstepping:") for p in problems)


def test_traced_run_gives_the_untraced_csv():
    _, _, traced_log = traced_slice("fences-modelfree")
    raw = short("fences-modelfree")
    log = simulate.integrate(scenario.scenario_from_dict(raw))
    out_dir = bench.RESULTS / "selftest"
    assert bench.csv_bytes(log, out_dir / "a.csv") == bench.csv_bytes(traced_log, out_dir / "b.csv")


def test_step_timer_costs_under_one_percent_of_a_step():
    raw = short("intruder-extended")
    timer = tr.StepTimer()
    with tr.installed(None, timer):
        simulate.integrate(scenario.scenario_from_dict(raw))
    steps_ns = sorted(e - s for s, e in zip(timer.starts, timer.ends))
    median_control_ns = steps_ns[len(steps_ns) // 2]
    assert bench.step_timer_cost_ns() < 0.01 * median_control_ns


def test_generator_is_seeded_and_valid():
    for name in WORKLOADS:
        assert generate(name, 7) == generate(name, 7)
        assert generate(name, 7) != generate(name, 8)
        for seed in range(checks.REF_SEEDS):
            scenario.scenario_from_dict(generate(name, seed))  # validation passes


def test_reference_covers_every_workload_and_seed():
    doc = json.loads(checks.REFERENCE.read_text())
    for name in WORKLOADS:
        table = doc["workloads"][name]
        assert sorted(map(int, table)) == list(range(checks.REF_SEEDS))
        assert all(v["intervention_time"] > 0.0 for v in table.values())


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {n: w.why for n, w in WORKLOADS.items()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == bench.PER_LAYER


def test_refuses_to_run_without_the_program_sources():
    bare = bench.RESULTS / "selftest" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "intruder-extended", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

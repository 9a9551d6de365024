"""One benchmark run: set-up probes, a timed window of closed-loop runs,
output checks and the metrics line.

A *slice* is one closed-loop run of the generated scenario, from the
dict to the verdict: ``scenario_from_dict`` -> ``integrate`` ->
``metrics_from_log`` -> ``evaluate_checks`` (-> ``write_csv`` +
``write_json`` on the run-path workload).  The window repeats slices
for ``--seconds``.  With ``--trace 1`` every second slice is traced, so
the tracing overhead is a paired comparison of neighbouring slices.
"""

from __future__ import annotations

import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import tracer as tr
from fwrta import FwrtaError, export, scenario, simulate
from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 12
PROBE_LOOPS = 20000

# name -> (unit, better); the order is the print order
END_TO_END = {
    "steps_per_s": ("1/s", "higher"),
    "control_us_p50": ("us", "lower"),
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "checks_passed_frac": ("frac", "higher"),
}
# traced per-step self time of each layer
LAYER_US_PER_STEP = {
    "tracking.track.us_per_step": "tracking.track",
    "tracking.TrackContext.us_per_step": "tracking.TrackContext",
    "backstepping.rta_backstepping.us_per_step": "backstepping.rta_backstepping",
    "extended.rta_extended.us_per_step": "extended.rta_extended",
    "modelfree.safe_velocity_from_terms.us_per_step": "modelfree.safe_velocity_from_terms",
    "constraints.compose_h_p.us_per_step": "constraints.compose_h_p",
    "kernels.rk4_step.us_per_step": "kernels.rk4_step",
    "simulate.integrate.self_us_per_step": "simulate.integrate",
    "simulate.control.self_us_per_step": tr.CONTROL,
}
LAYER_MS_PER_CALL = {
    "simulate.metrics_from_log.ms": "simulate.metrics_from_log",
    "simulate.evaluate_checks.ms": "simulate.evaluate_checks",
    "scenario.scenario_from_dict.ms": "scenario.scenario_from_dict",
}
LAYER_US_PER_ROW = {
    "export.write_csv.us_per_row": "export.write_csv",
    "export.write_json.us_per_row": "export.write_json",
}
PER_LAYER = {
    # the tail of the replay's latencies moves with host noise more than any
    # bound allows, so it is reported here, without a bound
    "control_us_p99": ("us", "lower"),
    **{k: ("us", "lower") for k in LAYER_US_PER_STEP},
    "tracking.track.calls_per_step": ("count", "lower"),
    **{k: ("ms", "lower") for k in LAYER_MS_PER_CALL},
    **{k: ("us", "lower") for k in LAYER_US_PER_ROW},
    "simulate.steps": ("count", "higher"),
    "filter.intervening_steps": ("count", "lower"),
    "filter.intervening_frac": ("frac", "lower"),
    "filter.warn_steps": ("count", "lower"),
    "trace.step_us": ("us", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
    "bench.step_timer_frac": ("frac", "lower"),
    "host.probe_ms": ("ms", "lower"),
}


def host_probe() -> float:
    """Milliseconds for a fixed pure-Python loop; tracks host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def git_sha() -> str:
    """Commit of the checkout, read from ``.git`` when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "numba": importlib.util.find_spec("numba") is not None,
    }


def setup_time(raw: dict) -> float:
    """``setup_probe.py`` in a fresh interpreter; returns its seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py")],
        input=json.dumps(raw),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
        check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_slice(raw: dict, workload, out_dir: Path):
    """One closed-loop run from the dict to the verdict, timed by phase."""
    clock = time.perf_counter
    t0 = clock()
    scn = scenario.scenario_from_dict(raw, origin=raw["name"])
    t1 = clock()
    log = simulate.integrate(scn)
    t2 = clock()
    met = simulate.metrics_from_log(log, scn)
    _, lines = simulate.evaluate_checks(scn, log, met)
    if workload.export:
        export.write_csv(log, out_dir / f"{raw['name']}.csv")
        export.write_json(log, met, out_dir / f"{raw['name']}.json")
    t3 = clock()
    rec = {"steps": len(log.t), "integrate_s": t2 - t1, "run_s": t3 - t0}
    return rec, scn, log, met, lines


def csv_bytes(log, path: Path) -> bytes:
    export.write_csv(log, path)
    return path.read_bytes()


def step_timer_cost_ns(n: int = 20000) -> float:
    """Measured cost of the per-step timer pair, in ns per call."""

    def noop(x, t):
        return None

    timed = tr.StepTimer().wrap(noop)
    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter_ns()
        for _ in range(n):
            noop(None, 0.0)
        t1 = time.perf_counter_ns()
        for _ in range(n):
            timed(None, 0.0)
        t2 = time.perf_counter_ns()
        best = min(best, ((t2 - t1) - (t1 - t0)) / n)
    return max(best, 0.0)


def layer_values(spans: dict, steps: int) -> dict:
    """Per-layer metrics of one traced slice from its span totals."""

    def get(name):
        return spans.get(name, (0, 0, 0))

    out = {k: get(n)[0] / steps / 1e3 for k, n in LAYER_US_PER_STEP.items()}
    out["tracking.track.calls_per_step"] = get("tracking.track")[1] / steps
    for k, n in LAYER_MS_PER_CALL.items():
        ns, calls, _ = get(n)
        out[k] = ns / calls / 1e6 if calls else 0.0
    for k, n in LAYER_US_PER_ROW.items():
        out[k] = get(n)[0] / steps / 1e3
    out["trace.step_us"] = get("simulate.integrate")[2] / steps / 1e3
    return out


def quiet_replay(starts: np.ndarray, ends: np.ndarray) -> tuple[float, np.ndarray]:
    """Loop seconds and control-law µs of a quiet replay of one closed-loop run.

    ``starts`` and ``ends`` hold one row per repetition of the same run,
    one column per control call; every row does the same work.  Host
    slowdowns here come in phases of seconds that make every step up to
    twice as slow, so for every step the replay keeps the repetition in
    which that step was quietest.  A step's period runs from its control
    call to the next one: control law, RK4 step and loop together.
    """
    period = np.diff(starts, axis=1)
    rep = np.argmin(period, axis=0)
    steps = np.arange(period.shape[1])
    latency = ends[rep, steps] - starts[rep, steps]
    return float(period[rep, steps].sum()) / 1e9, latency / 1e3


@dataclass
class Window:
    """What the timed window of one run collected."""

    untraced: list = field(default_factory=list)  # slice records
    traced: list = field(default_factory=list)
    starts: list = field(default_factory=list)  # control-call clocks of untraced slices
    ends: list = field(default_factory=list)
    setups: list = field(default_factory=list)  # set-up seconds
    probes: list = field(default_factory=list)  # host probe ms, one per slice
    last_untraced_log: object = None
    traced_log: object = None
    attempted: int = 0
    failed: int = 0
    rss_mb: float = 0.0


def timed_window(raw: dict, w, scn, out_dir: Path, seconds: float, trace: bool, steps: int,
                 tracer: tr.Tracer) -> Window:
    """Repeat slices for ``seconds``; every second one is traced if ``trace``."""
    win = Window()
    timer = tr.StepTimer()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() < start + seconds or len(win.untraced) < 2 or (trace and not win.traced):
        # set-up probes are spread over the window, so their median spans its host phases
        if len(win.setups) < SETUP_REPEATS * (time.perf_counter() - start) / seconds:
            win.setups.append(setup_time(raw))
        is_traced = trace and i % 2 == 1
        win.probes.append(host_probe())
        timer.clear()
        tracer.run_id = i
        win.attempted += 1
        try:
            with tr.installed(tracer if is_traced else None, timer):
                rec, _, log, met, _ = run_slice(raw, w, out_dir)
        except FwrtaError as exc:
            print(f"perfbench: slice {i} failed: {exc}", file=sys.stderr)
            win.failed += 1
            i += 1
            continue
        if met.aborted and not scn.checks.get("allow_abort", False):
            win.failed += 1
        loop_s = (timer.starts[-1] - timer.starts[0]) / 1e9
        # what the replay leaves out: build, controller, last call, log assembly, verdict, export
        rec.update(index=i, probe_ms=win.probes[-1], steps_per_s=rec["steps"] / rec["integrate_s"],
                   integrate_fixed_s=rec["integrate_s"] - loop_s, run_fixed_s=rec["run_s"] - loop_s)
        if is_traced:
            win.traced.append(rec)
            win.traced_log = log
        else:
            win.untraced.append(rec)
            if rec["steps"] == steps:
                win.starts.append(np.array(timer.starts, dtype=np.int64))
                win.ends.append(np.array(timer.ends, dtype=np.int64))
            win.last_untraced_log = log
        i += 1
    # before the traced check slice, whose spans are the benchmark's own memory
    win.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(win.setups) < SETUP_REPEATS:
        win.setups.append(setup_time(raw))
    if win.traced_log is None:
        # a traced slice for the output checks and the coverage guard
        tracer.run_id = i
        win.attempted += 1
        with tr.installed(tracer, None):
            rec, _, win.traced_log, _, _ = run_slice(raw, w, out_dir)
        rec["index"] = i
        win.traced.append(rec)
    return win


def output_checks(w, seed: int, scn, log0, met0, win: Window, out_dir: Path) -> list:
    """The benchmark's own checks, ``(name, ok, detail)`` each."""
    ref_seed = checks.reference_seed(seed)
    if ref_seed == seed:
        ref_met = checks.key_metrics(met0)
    else:
        _, _, _, met_ref, _ = run_slice(generate(w.name, ref_seed), w, out_dir)
        win.attempted += 1
        ref_met = checks.key_metrics(met_ref)
    base_csv = csv_bytes(log0, out_dir / "warmup.csv")
    allow_abort = scn.checks.get("allow_abort", False)
    return [
        ("csv_repeatable", base_csv == csv_bytes(win.last_untraced_log, out_dir / "untraced.csv"),
         "two untraced runs give byte-identical CSV"),
        ("csv_traced_identical", base_csv == csv_bytes(win.traced_log, out_dir / "traced.csv"),
         "the traced run's CSV equals the untraced one"),
        ("abort_policy", not met0.aborted or allow_abort, f"aborted={met0.aborted} allow_abort={allow_abort}"),
        *checks.reference_checks(w.name, seed, ref_met, scn.dt),
    ]


def end_to_end(win: Window, steps: int, checks_passed_frac: float) -> tuple[dict, int]:
    """End-to-end metrics and the number of control-law samples behind them.

    Like the replay's steps, the cost outside the step loop is taken at
    its quietest repetition.
    """
    loop_s, control_us = quiet_replay(np.array(win.starts), np.array(win.ends))
    values = {
        "steps_per_s": steps / (loop_s + min(r["integrate_fixed_s"] for r in win.untraced)),
        "control_us_p50": float(np.percentile(control_us, 50)),
        "control_us_p99": float(np.percentile(control_us, 99)),
        "run_s": loop_s + min(r["run_fixed_s"] for r in win.untraced),
        "setup_s": statistics.median(win.setups),
        "peak_rss_mb": win.rss_mb,
        "checks_passed_frac": checks_passed_frac,
    }
    return values, control_us.size


def per_layer(win: Window, spans: dict, log0, steps: int) -> dict:
    """Per-layer metrics: medians over the traced slices, plus exact counts."""
    per_slice = [layer_values(spans[r["index"]], r["steps"]) for r in win.traced]
    values = {k: statistics.median(v[k] for v in per_slice) for k in per_slice[0]}
    by_index = {r["index"]: r for r in win.untraced}
    ratios = [r["steps_per_s"] / by_index[r["index"] - 1]["steps_per_s"]
              for r in win.traced if r["index"] - 1 in by_index]
    step_ns = 1e9 / statistics.median(r["steps_per_s"] for r in win.untraced)
    intervening = int(log0.intervening.sum())
    values.update({
        "simulate.steps": steps,
        "filter.intervening_steps": intervening,
        "filter.intervening_frac": intervening / steps,
        "filter.warn_steps": int(log0.warn.sum()),
        "trace.overhead_frac": 1.0 - statistics.median(ratios),
        "bench.step_timer_frac": step_timer_cost_ns() / step_ns,
        "host.probe_ms": statistics.median(win.probes),
    })
    return values


def measure(workload_name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int]:
    """Run the benchmark; returns the result object and the exit code."""
    w = WORKLOADS[workload_name]
    raw = generate(w.name, seed)
    tag = f"{w.name}-s{seed}-t{int(trace)}"
    out_dir = RESULTS / tag
    out_dir.mkdir(parents=True, exist_ok=True)
    env = environment()

    # warm-up slice: fills lazy state, and is the generator's rejection test
    rec0, scn, log0, met0, embedded = run_slice(raw, w, out_dir)
    steps = rec0["steps"]
    if not log0.intervening.any():
        print(f"perfbench: generated scenario {raw['name']} rejected: the filter never intervenes",
              file=sys.stderr)
        return {}, 3

    tracer = tr.Tracer()
    win = timed_window(raw, w, scn, out_dir, seconds, trace, steps, tracer)
    spans = tr.self_times(tracer.spans)
    calls = {}
    for rec in win.traced:
        for name, (_, n, _) in spans[rec["index"]].items():
            calls[name] = calls.get(name, 0) + n
    problems = checks.layer_coverage(w, calls)
    if problems:
        for p in problems:
            print(f"perfbench: LAYER COVERAGE FAILED: {p}", file=sys.stderr)
        return {}, 4

    own = output_checks(w, seed, scn, log0, met0, win, out_dir)
    all_checks = [(f"threshold.{n}", ok, d) for n, ok, d in embedded] + own
    passed = sum(ok for _, ok, _ in all_checks)
    e2e, n_samples = end_to_end(win, steps, passed / len(all_checks))
    if trace:
        layers = per_layer(win, spans, log0, steps)
        layers["control_us_p99"] = e2e["control_us_p99"]
        metrics = {k: {"value": layers[k], "unit": unit} for k, (unit, _) in PER_LAYER.items()}
        tracer.write(out_dir / "spans.csv")
    else:
        metrics = {k: {"value": e2e[k], "unit": unit} for k, (unit, _) in END_TO_END.items()}

    detail = {
        "workload": w.name,
        "why": w.why,
        "seed": seed,
        "trace": trace,
        "env": env,
        "scenario": raw,
        "setup_s": win.setups,
        "control_samples": n_samples,
        "repetitions": len(win.starts),
        "control_us_p99": e2e["control_us_p99"],
        "slices": {"untraced": win.untraced, "traced": win.traced},
        "probes_ms": win.probes,
        "checks": [{"name": n, "ok": bool(ok), "detail": d} for n, ok, d in all_checks],
        "metrics": metrics,
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(detail, indent=1))

    print(f"perfbench {w.name} seed={seed} trace={int(trace)}: {len(win.untraced)} untraced + "
          f"{len(win.traced)} traced closed-loop runs of {steps} steps; control_us over {n_samples} "
          f"samples of the quiet replay ({len(win.starts) * (steps - 1)} timed control calls)")
    for k, m in metrics.items():
        print(f"  {k:<48} {m['value']:.6g} {m['unit']}")
    if not trace:
        print(f"  {'control_us_p99 (no bound)':<48} {e2e['control_us_p99']:.6g} us")
    print(f"  checks: {passed}/{len(all_checks)} passed")
    for n, ok, d in all_checks:
        if not ok:
            print(f"  FAIL {n}: {d}")
    print(f"  host probe: median {statistics.median(win.probes):.3f} ms "
          f"(range {min(win.probes):.3f}-{max(win.probes):.3f})")
    print(f"  env: {json.dumps(env)}")
    attempted = 1 + win.attempted
    correct = all(ok for _, ok, _ in own) and win.failed == 0
    return {"correct": correct, "attempted": attempted, "failed": win.failed, "metrics": metrics}, 0

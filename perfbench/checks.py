"""Output checks: reference metrics and the layer-coverage guard.

``reference.json`` holds the key metrics of every workload for seeds
``0 .. REF_SEEDS-1``, recorded with ``record_reference.py`` at the commit
the benchmark was written against.  A run whose seed is outside that
range is checked on the reference seed ``seed % REF_SEEDS``.

Tolerance: the three lengths (``min_h_p``, ``min_h_mode``,
``final_pos_err``, in m) may move by ``1e-6 * max(1, |ref|)``, which
admits a change of rounding in the control law but not a change of
behaviour; ``intervention_time`` counts steps where ``u != u_d`` bit for
bit, so it may move by two steps (``2 dt``).
"""

from __future__ import annotations

import json
from pathlib import Path

KEY_METRICS = ("min_h_p", "min_h_mode", "final_pos_err", "intervention_time")
REF_SEEDS = 32
REFERENCE = Path(__file__).resolve().parent / "reference.json"


def key_metrics(met) -> dict:
    return {k: float(getattr(met, k)) for k in KEY_METRICS}


def within_tolerance(key: str, value: float, ref: float, dt: float) -> bool:
    if key == "intervention_time":
        return abs(value - ref) <= 2.0 * dt + 1e-9
    return abs(value - ref) <= 1e-6 * max(1.0, abs(ref))


def reference_seed(seed: int) -> int:
    return seed % REF_SEEDS


def reference_checks(workload: str, seed: int, metrics: dict, dt: float) -> list:
    """One ``(name, ok, detail)`` per key metric of the reference seed."""
    ref = json.loads(REFERENCE.read_text())["workloads"][workload][str(reference_seed(seed))]
    lines = []
    for key in KEY_METRICS:
        ok = within_tolerance(key, metrics[key], ref[key], dt)
        lines.append(
            (f"reference.{key}", ok, f"{metrics[key]!r} vs {ref[key]!r} (seed {reference_seed(seed)})")
        )
    return lines


def layer_coverage(workload, calls: dict) -> list:
    """Problems with the traced run's call counts; empty when all is well.

    Every layer the workload runs through must record calls, and every
    layer it bypasses must record none.
    """
    problems = []
    for name in workload.expected:
        if calls.get(name, 0) == 0:
            problems.append(f"{name}: expected on {workload.name}, recorded 0 calls")
    for name in workload.bypassed:
        if calls.get(name, 0) != 0:
            problems.append(f"{name}: bypassed on {workload.name}, recorded {calls[name]} calls")
    return problems

"""Seeded workload generator.

Each workload starts from a bundled scenario and perturbs its geometry
with a seed: the intruder's start and velocity, the ego's altitude
offset (fig3 only) and the apex of the two geofence planes (fig5/fig6).
The horizon is shortened to a window that still holds the filter's
intervention episode.  The program only ever sees the generated dict.

The ranges keep every generated scenario valid (``scenario_from_dict``
accepts it, so ``_validate_initial_barriers`` passes) and keep the
intruder on a crossing course, so the filter intervenes on every seed.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass

from fwrta.scenario import bundled_scenario_path


@dataclass(frozen=True)
class Workload:
    name: str
    base: str  # bundled scenario it is generated from
    t_final: float  # shortened horizon, s
    export: bool  # run path (CSV + JSON export) or check path
    why: str
    # layers that must record calls, and layers that must record none
    expected: tuple
    bypassed: tuple


# Layers every workload runs through.
COMMON = (
    "scenario.scenario_from_dict",
    "simulate.integrate",
    "simulate.control",
    "constraints.compose_h_p",
    "tracking.track",
    "kernels.rk4_step",
    "simulate.metrics_from_log",
    "simulate.evaluate_checks",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="intruder-extended",
            base="fig3",
            t_final=30.0,
            export=True,
            why="fig3 intruder, extended filter, run path with CSV+JSON export; tracking dominates, "
            "backstepping/modelfree bypassed",
            expected=COMMON + ("extended.rta_extended", "export.write_csv", "export.write_json"),
            bypassed=(
                "backstepping.rta_backstepping",
                "modelfree.safe_velocity_from_terms",
                "tracking.TrackContext",
            ),
        ),
        Workload(
            name="fences-backstepping",
            base="fig5",
            t_final=12.0,
            export=False,
            why="fig5 intruder + 2 fences, backstepping filter, check path; dual-number gradient "
            "dominates, extended filter bypassed",
            expected=COMMON + ("backstepping.rta_backstepping",),
            bypassed=(
                "extended.rta_extended",
                "modelfree.safe_velocity_from_terms",
                "tracking.TrackContext",
                "export.write_csv",
                "export.write_json",
            ),
        ),
        Workload(
            name="fences-modelfree",
            base="fig6",
            t_final=10.0,
            export=False,
            why="fig6 geometry, model-free filter, check path; two track calls + TrackContext per "
            "step; carries the known-red max_abs_down check",
            expected=COMMON + ("tracking.TrackContext", "modelfree.safe_velocity_from_terms"),
            bypassed=(
                "extended.rta_extended",
                "backstepping.rta_backstepping",
                "export.write_csv",
                "export.write_json",
            ),
        ),
    )
}


def _perturb_intruder(member: dict, rng: random.Random) -> None:
    """Shift the intruder's start and velocity; it still crosses the ego track."""
    n0, e0, d0 = member["center"]
    vn, ve, vd = member["velocity"]
    member["center"] = [n0 + rng.uniform(-250.0, 250.0), e0 + rng.uniform(-250.0, 250.0), d0]
    member["velocity"] = [vn * rng.uniform(0.92, 1.08), ve + rng.uniform(-6.0, 6.0), vd]


def _perturb_fences(members: list, rng: random.Random) -> None:
    """Move the shared apex of the two geofence planes."""
    dn = rng.uniform(-200.0, 200.0)
    de = rng.uniform(-400.0, 400.0)
    for m in members:
        if m["type"] == "plane":
            n, e, d = m["point"]
            m["point"] = [n + dn, e + de, d]


def generate(name: str, seed: int) -> dict:
    """The scenario dict of workload ``name`` for ``seed`` (same seed, same dict)."""
    w = WORKLOADS[name]
    raw = copy.deepcopy(json.loads(bundled_scenario_path(w.base).read_text()))
    rng = random.Random(seed)
    raw["name"] = f"{name}-s{seed}"
    raw["t_final"] = w.t_final
    members = raw["constraints"]["members"]
    _perturb_intruder(members[0], rng)
    _perturb_fences(members, rng)
    if w.base == "fig3":
        # keep the ego off the intruder's plane (the coplanar start is degenerate)
        raw["initial_state"]["d"] += rng.uniform(-15.0, 15.0)
    return raw

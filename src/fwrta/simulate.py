"""Closed-loop simulation: fixed-step integration with per-step assurance,
trajectory/barrier logging, metrics and threshold checking.

The control input is computed once per step at the step's start state
and held over the step (zero-order hold); the state advances with the
classic fourth-order step from :mod:`fwrta.kernels`.  Runs are fully
deterministic.  Singularities abort the run with a partial log and a
recorded reason.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .backstepping import rta_backstepping
from .constraints import compose_h_p
from .errors import FwrtaError
from .extended import rta_extended
from .model import AircraftState, TrackContext
from .modelfree import h_V, safe_velocity_from_terms
from .scenario import Scenario
from .tracking import GoalCommand, SafeVelocityCommand, desired_velocity, track


@dataclass
class StepRecord:
    u_d: np.ndarray
    u: np.ndarray
    h_p: float
    h_members: tuple
    h_mode: float
    residual: float
    warn: bool
    intervening: bool


@dataclass
class TrajectoryLog:
    """Time-indexed record of one run (fixed cadence, monotone time)."""

    scenario: str
    mode: str
    dt: float
    member_count: int
    t: np.ndarray
    x: np.ndarray
    u_d: np.ndarray
    u: np.ndarray
    h_p: np.ndarray
    h_members: np.ndarray
    h_mode: np.ndarray
    residual: np.ndarray
    warn: np.ndarray
    intervening: np.ndarray
    abort: str | None = None


@dataclass
class Metrics:
    """Scalar summary of a log, used by threshold checks and sweeps."""

    min_h_p: float
    min_h_members: list
    min_h_mode: float
    intervention_time: float
    max_abs_A_T: float
    max_abs_P: float
    max_abs_Q: float
    final_pos_err: float
    min_V_T: float
    max_abs_d: float
    max_p_dev: float
    p_dev_bit_exact: bool
    warning_count: int
    aborted: bool
    abort_reason: str | None


def make_controller(scn: Scenario):
    """Per-step control law of the scenario: ``(x_arr, t) -> StepRecord``."""
    g = scn.gravity
    goal_cmd = GoalCommand(scn.goal, scn.tracking)
    if scn.mode == "modelfree":
        safe_cmd = SafeVelocityCommand(scn.goal, scn.tracking, scn.cset, scn.mf)

    def control(x_arr: np.ndarray, t: float) -> StepRecord:
        state = AircraftState.from_array(x_arr)
        pos = compose_h_p(state.r, t, scn.cset)
        if scn.mode == "modelfree":
            ctx = TrackContext(state, t, g)
            tr_d = track(state, t, goal_cmd, scn.tracking, g, ctx=ctx)
            tr = track(state, t, safe_cmd, scn.tracking, g, ctx=ctx)
            v_d = desired_velocity(state.r, t, scn.goal, scn.tracking)
            sv = safe_velocity_from_terms(pos.value, pos.gradient_r, pos.dt_partial, v_d, scn.mf)
            hv = h_V(tr.V, pos.value, scn.mf, scn.tracking.lam)
            u_d = tr_d.u.as_array()
            u = tr.u.as_array()
            return StepRecord(
                u_d=u_d,
                u=u,
                h_p=pos.value,
                h_members=tuple(pos.per_constraint),
                h_mode=hv,
                residual=sv.margin,
                warn=sv.infeasible,
                intervening=bool(np.any(u != u_d)),
            )
        tr = track(state, t, goal_cmd, scn.tracking, g)
        u_d_ci = tr.u
        u_d = u_d_ci.as_array()
        if scn.mode == "off":
            return StepRecord(
                u_d=u_d,
                u=u_d.copy(),
                h_p=pos.value,
                h_members=tuple(pos.per_constraint),
                h_mode=pos.value,
                residual=tr.residual,
                warn=False,
                intervening=False,
            )
        if scn.mode == "extended":
            res = rta_extended(state, t, u_d_ci, scn.cset, scn.extended, g, scn.smooth_nu)
            h_mode = res.h_e
        else:
            res = rta_backstepping(state, t, u_d_ci, scn.cset, scn.backstep, g, scn.smooth_nu)
            h_mode = res.h_b
        u = res.u.as_array()
        return StepRecord(
            u_d=u_d,
            u=u,
            h_p=pos.value,
            h_members=tuple(pos.per_constraint),
            h_mode=h_mode,
            residual=res.residual,
            warn=res.infeasible,
            intervening=bool(np.any(u != u_d)),
        )

    return control


def integrate(scn: Scenario) -> TrajectoryLog:
    """Run the scenario to its horizon (or abort) and return the log.

    Rows cover every control step plus one final row evaluated (but not
    applied) at the horizon state.
    """
    control = make_controller(scn)
    n_steps = int(round(scn.t_final / scn.dt))
    dt = scn.dt
    g_d = scn.gravity.g_d

    rows: list[StepRecord] = []
    times: list[float] = []
    states: list[np.ndarray] = []
    abort = None

    x = scn.x0.as_array()
    for k in range(n_steps + 1):
        t = k * dt
        if not np.all(np.isfinite(x)):
            abort = "non-finite state"
            break
        try:
            rec = control(x, t)
        except FwrtaError as exc:
            abort = f"{type(exc).__name__}: {exc}"
            break
        times.append(t)
        states.append(x.copy())
        rows.append(rec)
        if k == n_steps:
            break
        x = kernels.rk4_step(x, rec.u, dt, g_d)

    m = len(scn.cset.members)
    return TrajectoryLog(
        scenario=scn.name,
        mode=scn.mode,
        dt=dt,
        member_count=m,
        t=np.asarray(times),
        x=np.asarray(states).reshape(-1, 7),
        u_d=np.asarray([r.u_d for r in rows]).reshape(-1, 3),
        u=np.asarray([r.u for r in rows]).reshape(-1, 3),
        h_p=np.asarray([r.h_p for r in rows]),
        h_members=np.asarray([r.h_members for r in rows]).reshape(-1, m),
        h_mode=np.asarray([r.h_mode for r in rows]),
        residual=np.asarray([r.residual for r in rows]),
        warn=np.asarray([r.warn for r in rows], dtype=bool),
        intervening=np.asarray([r.intervening for r in rows], dtype=bool),
        abort=abort,
    )


def integrate_stage_controlled(scn: Scenario, dt: float, t_final: float) -> np.ndarray:
    """Final state with the controller re-evaluated at every RK4 stage.

    Unlike :func:`integrate`, the feedback is treated as part of the
    vector field, making the closed loop a smooth ODE; used by the
    integrator-order study.
    """
    control = make_controller(scn)
    g_d = scn.gravity.g_d

    def f(x, t):
        return kernels.dubins_rhs(x, control(x, t).u, g_d)

    x = scn.x0.as_array()
    n_steps = int(round(t_final / dt))
    for k in range(n_steps):
        t = k * dt
        k1 = f(x, t)
        k2 = f(x + 0.5 * dt * k1, t + 0.5 * dt)
        k3 = f(x + 0.5 * dt * k2, t + 0.5 * dt)
        k4 = f(x + dt * k3, t + dt)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x


def metrics_from_log(log: TrajectoryLog, scn: Scenario) -> Metrics:
    if len(log.t) == 0:
        raise FwrtaError(f"run produced no steps: {log.abort}")
    applied = slice(0, max(len(log.t) - 1, 0)) if log.abort is None else slice(0, len(log.t))
    p_dev = np.abs(log.u[:, 1] - log.u_d[:, 1])
    bit_exact = bool(
        np.all(log.u[:, 1] == log.u_d[:, 1])
        and np.all(np.signbit(log.u[:, 1]) == np.signbit(log.u_d[:, 1]))
    )
    r_end = log.x[-1, :3]
    r_goal = scn.goal.eval(float(log.t[-1]))[0]
    return Metrics(
        min_h_p=float(log.h_p.min()),
        min_h_members=[float(v) for v in log.h_members.min(axis=0)],
        min_h_mode=float(log.h_mode.min()),
        intervention_time=float(log.intervening[applied].sum() * log.dt),
        max_abs_A_T=float(np.abs(log.u[:, 0]).max()),
        max_abs_P=float(np.abs(log.u[:, 1]).max()),
        max_abs_Q=float(np.abs(log.u[:, 2]).max()),
        final_pos_err=float(np.linalg.norm(r_end - r_goal)),
        min_V_T=float(log.x[:, 6].min()),
        max_abs_d=float(np.abs(log.x[:, 2]).max()),
        max_p_dev=float(p_dev.max()),
        p_dev_bit_exact=bit_exact,
        warning_count=int(log.warn.sum()),
        aborted=log.abort is not None,
        abort_reason=log.abort,
    )


def _as_scenario(source) -> Scenario:
    if isinstance(source, Scenario):
        return source
    from .scenario import load_scenario

    return load_scenario(source)


def run_scenario(source):
    """Integrate and summarize; returns ``(log, metrics)``.

    ``source`` may be a loaded :class:`Scenario`, a file path, or a
    bundled scenario name.
    """
    scn = _as_scenario(source)
    log = integrate(scn)
    return log, metrics_from_log(log, scn)


def evaluate_checks(scn: Scenario, log: TrajectoryLog, met: Metrics):
    """Evaluate the scenario's embedded thresholds.

    Returns ``(passed, lines)`` where each line is ``(name, ok, detail)``.
    """
    checks = scn.checks
    lines = []

    def add(name: str, ok: bool, detail: str):
        lines.append((name, bool(ok), detail))

    if met.aborted and not checks.get("allow_abort", False):
        add("no_abort", False, f"run aborted: {met.abort_reason}")
    elif met.aborted:
        add("allow_abort", True, f"aborted as expected: {met.abort_reason}")

    if "min_h_p" in checks:
        v = checks["min_h_p"]
        add("min_h_p", met.min_h_p >= v, f"min h_p = {met.min_h_p:.6g} (floor {v})")
    if "min_h_members" in checks:
        v = checks["min_h_members"]
        worst = min(met.min_h_members)
        add("min_h_members", worst >= v, f"worst member min = {worst:.6g} (floor {v})")
    if "min_h_mode" in checks:
        v = checks["min_h_mode"]
        add("min_h_mode", met.min_h_mode >= v, f"min mode barrier = {met.min_h_mode:.6g} (floor {v})")
    if checks.get("p_transparent", False):
        add("p_transparent", met.p_dev_bit_exact, f"max |P - P_d| = {met.max_p_dev:.6g}")
    if "roll_intervention_exceeds" in checks:
        v = checks["roll_intervention_exceeds"]
        add("roll_intervention", met.max_p_dev > v, f"max |P - P_d| = {met.max_p_dev:.6g} (> {v})")
    if "v_t_drops_below" in checks:
        v = checks["v_t_drops_below"]
        add("v_t_drops_below", met.min_V_T < v, f"min V_T = {met.min_V_T:.6g} (< {v})")
    if "max_abs_down" in checks:
        v = checks["max_abs_down"]
        add("max_abs_down", met.max_abs_d <= v, f"max |d| = {met.max_abs_d:.6g} (<= {v})")
    if checks.get("no_warnings", False):
        add("no_warnings", met.warning_count == 0, f"{met.warning_count} warning steps")
    if "max_final_pos_err" in checks:
        v = checks["max_final_pos_err"]
        add("max_final_pos_err", met.final_pos_err <= v, f"final error = {met.final_pos_err:.6g} m")

    passed = all(ok for _, ok, _ in lines)
    return passed, lines


def set_by_path(raw: dict, dotted: str, value: float) -> dict:
    """Return a deep copy of ``raw`` with ``dotted`` path set to ``value``.

    Path segments traverse objects by key and lists by integer index,
    e.g. ``constraints.members[0].radius`` or ``dt``.
    """
    import copy
    import re

    out = copy.deepcopy(raw)
    node = out
    parts = []
    for seg in dotted.split("."):
        m = re.fullmatch(r"([^\[\]]+)((\[\d+\])*)", seg)
        if not m:
            raise FwrtaError(f"bad sweep path segment: {seg!r}")
        parts.append(m.group(1))
        for idx in re.findall(r"\[(\d+)\]", m.group(2)):
            parts.append(int(idx))
    for p in parts[:-1]:
        try:
            node = node[p]
        except (KeyError, IndexError, TypeError):
            raise FwrtaError(f"sweep path not found: {dotted!r} (at {p!r})") from None
    last = parts[-1]
    try:
        node[last]
    except (KeyError, IndexError, TypeError):
        raise FwrtaError(f"sweep path not found: {dotted!r} (at {last!r})") from None
    node[last] = value
    return out


def sweep(source, param: str, lo: float, hi: float, steps: int):
    """Run the scenario across a parameter range; returns metric rows.

    ``source`` may be a raw scenario dict, a path, or a bundled name.
    """
    from .scenario import scenario_from_dict

    scn_raw = source if isinstance(source, dict) else _as_scenario(source).raw
    if steps < 2:
        raise FwrtaError("sweep needs at least 2 steps")
    values = np.linspace(lo, hi, steps)
    rows = []
    for v in values:
        raw = set_by_path(scn_raw, param, float(v))
        scn = scenario_from_dict(raw, origin=f"sweep({param}={v})")
        _, met = run_scenario(scn)
        rows.append((float(v), met))
    return rows

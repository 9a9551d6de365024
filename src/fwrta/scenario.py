"""Scenario files: a versioned JSON schema describing one closed-loop run.

A scenario pins the initial state, horizon and step, the assurance mode,
the constraint geometry, the goal trajectory and every gain.  Loading
validates field by field (errors name the offending field) and rejects
initial states whose mode-relevant barriers start negative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .backstepping import BacksteppingParams, h_b
from .constraints import ConstraintSet, GeofencePlane, MovingObstacle, compose_h_p
from .errors import FwrtaError, ScenarioError
from .extended import ExtendedParams, h_e_composed
from .filters import ClassKappaLinear, WeightFactor
from .model import AircraftState, GravityParam, check_pitch, check_speed, velocity
from .modelfree import ModelFreeParams, h_V
from .tracking import GoalCommand, GoalTrajectory, SafeVelocityCommand, TrackingParams, track

SCHEMA_ID = "fwrta-scenario/1"
MODES = ("off", "extended", "backstepping", "modelfree")
MAX_STEPS = 1_000_000  # control steps per run, t_final / dt

NUMERIC_CHECKS = (
    "min_h_p",
    "min_h_members",
    "min_h_mode",
    "roll_intervention_exceeds",
    "v_t_drops_below",
    "max_abs_down",
    "max_final_pos_err",
)
FLAG_CHECKS = ("p_transparent", "no_warnings", "allow_abort")
CHECK_KEYS = NUMERIC_CHECKS + FLAG_CHECKS


@dataclass
class Scenario:
    """Fully constructed run description."""

    name: str
    dt: float
    t_final: float
    mode: str
    gravity: GravityParam
    x0: AircraftState
    goal: GoalTrajectory
    tracking: TrackingParams
    cset: ConstraintSet
    alpha: ClassKappaLinear
    W: WeightFactor
    smooth_nu: float | None
    extended: ExtendedParams | None
    backstep: BacksteppingParams | None
    mf: ModelFreeParams | None
    checks: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _get(d: dict, key: str, path: str):
    if key not in d:
        raise ScenarioError(f"missing field '{path}{key}'")
    return d[key]


def _is_finite_number(x) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _num(d: dict, key: str, path: str) -> float:
    v = _get(d, key, path)
    if not _is_finite_number(v):
        raise ScenarioError(f"field '{path}{key}' must be a finite number")
    return float(v)


def _vec3(d: dict, key: str, path: str) -> np.ndarray:
    v = _get(d, key, path)
    if not (isinstance(v, list) and len(v) == 3 and all(_is_finite_number(x) for x in v)):
        raise ScenarioError(f"field '{path}{key}' must be a list of 3 finite numbers")
    return np.asarray(v, dtype=float)


def _gain_matrix(v, name: str) -> np.ndarray:
    if _is_finite_number(v):
        return float(v) * np.eye(3)
    if isinstance(v, list) and len(v) == 3 and all(_is_finite_number(x) for x in v):
        return np.diag(np.asarray(v, dtype=float))
    raise ScenarioError(f"field '{name}' must be a finite scalar or a list of 3 finite diagonal entries")


def _state(d: dict, path: str) -> AircraftState:
    vals = {}
    for key in ("n", "e", "d", "phi", "theta", "psi", "V_T"):
        vals[key] = _num(d, key, path)
    return AircraftState(**vals)


def _members(items, path: str):
    if not isinstance(items, list) or not items:
        raise ScenarioError(f"field '{path}' must be a non-empty list")
    out = []
    for i, m in enumerate(items):
        p = f"{path}[{i}]."
        kind = _get(m, "type", p)
        if kind == "obstacle":
            out.append(
                MovingObstacle.constant_velocity(
                    _vec3(m, "center", p), _vec3(m, "velocity", p), _num(m, "radius", p)
                )
            )
        elif kind == "plane":
            out.append(GeofencePlane(_vec3(m, "point", p), _vec3(m, "normal", p), _num(m, "margin", p)))
        else:
            raise ScenarioError(f"field '{p}type' must be 'obstacle' or 'plane'")
    return out


def scenario_from_dict(raw: dict, origin: str = "<dict>") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{origin}: scenario must be a JSON object")
    if raw.get("schema") != SCHEMA_ID:
        raise ScenarioError(f"field 'schema' must be '{SCHEMA_ID}'")
    name = _get(raw, "name", "")
    dt = _num(raw, "dt", "")
    t_final = _num(raw, "t_final", "")
    if dt <= 0.0:
        raise ScenarioError("field 'dt' must be positive")
    if t_final <= dt:
        raise ScenarioError("field 't_final' must exceed 'dt'")
    if t_final / dt > MAX_STEPS:
        raise ScenarioError(f"fields 't_final' / 'dt' give more than {MAX_STEPS} steps")
    mode = _get(raw, "rta_mode", "")
    if mode not in MODES:
        raise ScenarioError(f"field 'rta_mode' must be one of {MODES}")
    try:
        gravity = GravityParam(_num(raw, "gravity", "") if "gravity" in raw else 9.81)
    except ValueError as exc:
        raise ScenarioError(f"field 'gravity': {exc}") from exc

    x0 = _state(_get(raw, "initial_state", ""), "initial_state.")

    goal_d = _get(raw, "goal", "")
    if _get(goal_d, "type", "goal.") != "linear":
        raise ScenarioError("field 'goal.type' must be 'linear'")
    goal = GoalTrajectory.linear(
        _vec3(goal_d, "v_g", "goal."),
        _vec3(goal_d, "r0", "goal.") if "r0" in goal_d else (0.0, 0.0, 0.0),
    )

    tr_d = _get(raw, "tracking", "")
    try:
        tracking = TrackingParams(
            K_r=_gain_matrix(_get(tr_d, "K_r", "tracking."), "tracking.K_r"),
            K_v=_gain_matrix(_get(tr_d, "K_v", "tracking."), "tracking.K_v"),
            mu=_num(tr_d, "mu", "tracking."),
            lam=_num(tr_d, "lambda", "tracking."),
        )
    except ValueError as exc:
        raise ScenarioError(f"field 'tracking': {exc}") from exc

    c_d = _get(raw, "constraints", "")
    try:
        cset = ConstraintSet(
            members=_members(_get(c_d, "members", "constraints."), "constraints.members"),
            kappa=_num(c_d, "kappa", "constraints."),
        )
    except ValueError as exc:
        raise ScenarioError(f"field 'constraints': {exc}") from exc

    sf = _get(raw, "safety_filter", "")
    try:
        alpha = ClassKappaLinear(_num(sf, "gamma", "safety_filter."))
        W = WeightFactor.diagonal(_vec3(sf, "W", "safety_filter."))
    except ValueError as exc:
        raise ScenarioError(f"field 'safety_filter': {exc}") from exc
    sf_mode = sf.get("mode", "hard")
    if sf_mode not in ("hard", "smooth"):
        raise ScenarioError("field 'safety_filter.mode' must be 'hard' or 'smooth'")
    smooth_nu = None
    if sf_mode == "smooth":
        smooth_nu = _num(sf, "nu", "safety_filter.")
        if smooth_nu <= 0.0:
            raise ScenarioError("field 'safety_filter.nu' must be positive")

    extended = None
    if "extended" in raw:
        e_d = raw["extended"]
        try:
            extended = ExtendedParams(gamma_p=_num(e_d, "gamma_p", "extended."), alpha=alpha, W=W)
        except ValueError as exc:
            raise ScenarioError(f"field 'extended': {exc}") from exc

    backstep = None
    if "backstepping" in raw:
        b_d = raw["backstepping"]
        if extended is None:
            raise ScenarioError("field 'backstepping' requires the 'extended' section (gamma_p)")
        try:
            backstep = BacksteppingParams(
                gamma_p=extended.gamma_p,
                alpha_e=ClassKappaLinear(_num(b_d, "gamma_e", "backstepping.")),
                W_e=WeightFactor.diagonal(_vec3(b_d, "W_e", "backstepping.")),
                nu_e=_num(b_d, "nu_e", "backstepping."),
                mu_e=_num(b_d, "mu_e", "backstepping."),
                alpha=alpha,
                W=W,
            )
        except ValueError as exc:
            raise ScenarioError(f"field 'backstepping': {exc}") from exc

    mf = None
    if "modelfree" in raw:
        m_d = raw["modelfree"]
        try:
            mf = ModelFreeParams(
                gamma_p=_num(m_d, "gamma_p", "modelfree."),
                sigma=_num(m_d, "sigma", "modelfree."),
                Gamma_v=_num(m_d, "Gamma_v", "modelfree."),
                nu_v=_num(m_d, "nu_v", "modelfree."),
            )
        except ValueError as exc:
            raise ScenarioError(f"field 'modelfree': {exc}") from exc

    if mode == "extended" and extended is None:
        raise ScenarioError("rta_mode 'extended' requires the 'extended' section")
    if mode == "backstepping" and backstep is None:
        raise ScenarioError("rta_mode 'backstepping' requires the 'backstepping' section")
    if mode == "modelfree" and mf is None:
        raise ScenarioError("rta_mode 'modelfree' requires the 'modelfree' section")

    checks = raw.get("checks", {})
    if not isinstance(checks, dict):
        raise ScenarioError("field 'checks' must be an object")
    for key, v in checks.items():
        if key in NUMERIC_CHECKS:
            if not _is_finite_number(v):
                raise ScenarioError(f"field 'checks.{key}' must be a finite number")
        elif key in FLAG_CHECKS:
            if not isinstance(v, bool):
                raise ScenarioError(f"field 'checks.{key}' must be true or false")
        else:
            raise ScenarioError(f"field 'checks.{key}' is not a known threshold")

    scn = Scenario(
        name=str(name),
        dt=dt,
        t_final=t_final,
        mode=mode,
        gravity=gravity,
        x0=x0,
        goal=goal,
        tracking=tracking,
        cset=cset,
        alpha=alpha,
        W=W,
        smooth_nu=smooth_nu,
        extended=extended,
        backstep=backstep,
        mf=mf,
        checks=dict(checks),
        raw=raw,
    )
    _validate_initial_barriers(scn)
    return scn


def _validate_initial_barriers(scn: Scenario) -> None:
    """Reject scenarios whose mode-relevant barriers start negative."""
    try:
        check_speed(scn.x0.V_T)
        check_pitch(scn.x0.theta)
    except FwrtaError as exc:
        raise ScenarioError(f"initial_state invalid: {exc}") from exc
    h_p0 = compose_h_p(scn.x0.r, 0.0, scn.cset).value
    if h_p0 < 0.0:
        raise ScenarioError(f"initial state violates the position barrier: h_p(0) = {h_p0:.6g}")
    if scn.mode in ("extended", "backstepping"):
        he = h_e_composed(scn.x0.r, velocity(scn.x0), 0.0, scn.cset, scn.extended).value
        if he < 0.0:
            raise ScenarioError(f"initial state violates the extended barrier: h_e(0) = {he:.6g}")
    if scn.mode == "backstepping":
        hb = h_b(scn.x0, 0.0, scn.cset, scn.backstep, scn.gravity)
        if hb < 0.0:
            raise ScenarioError(f"initial state violates the penalized barrier: h_b(0) = {hb:.6g}")
    # the certificate of the command the mode flies, finite from the start
    if scn.mode == "modelfree":
        cmd = SafeVelocityCommand(scn.goal, scn.tracking, scn.cset, scn.mf)
    else:
        cmd = GoalCommand(scn.goal, scn.tracking)
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            V0 = track(scn.x0, 0.0, cmd, scn.tracking, scn.gravity).V
    except (FwrtaError, ValueError) as exc:
        raise ScenarioError(f"initial tracking certificate cannot be evaluated: {exc}") from exc
    if not math.isfinite(V0):
        raise ScenarioError(f"initial tracking certificate is not finite: V(0) = {V0}")
    if scn.mode == "modelfree":
        hv = h_V(V0, h_p0, scn.mf, scn.tracking.lam)
        if hv < 0.0:
            raise ScenarioError(f"initial state violates the monitor barrier: h_V(0) = {hv:.6g}")


def bundled_scenario_path(name: str) -> Path:
    ref = resources.files("fwrta").joinpath("scenarios").joinpath(f"{name}.json")
    with resources.as_file(ref) as p:
        return Path(p)


def load_scenario(source: str | Path) -> Scenario:
    """Load from a path, or from the bundled set by bare name."""
    p = Path(source)
    if not p.exists() and p.suffix == "" and "/" not in str(source):
        p = bundled_scenario_path(str(source))
    if not p.exists():
        raise ScenarioError(f"scenario file not found: {source}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{p}: invalid JSON ({exc})") from exc
    scn = scenario_from_dict(raw, origin=str(p))
    return scn

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
from .constraints import ZERO3, ConstraintSet, GeofencePlane, MovingObstacle, compose_h_p, frame_jets
from .errors import FwrtaError, ScenarioError
from .extended import ExtendedParams, compose_extended_terms
from .filters import WeightFactor
from .model import AircraftState, GravityParam, TrackContext
from .modelfree import ModelFreeParams, h_V
from .tracking import GoalCommand, GoalTrajectory, SafeVelocityCommand, TrackingParams, track

SCHEMA_ID = "fwrta-scenario/1"
MODES = ("off", "extended", "backstepping", "modelfree")
MAX_STEPS = 1_000_000  # control steps per run, t_final / dt
MAX_SWEEP_STEPS = 10_000  # runs per sweep, --steps

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
# the fields each object may hold; the sections of every mode are accepted
SECTIONS = {
    "initial_state": ("n", "e", "d", "phi", "theta", "psi", "V_T"),
    "goal": ("type", "v_g", "r0"),
    "tracking": ("K_r", "K_v", "mu", "lambda"),
    "constraints": ("members", "kappa"),
    "safety_filter": ("gamma", "W", "mode", "nu"),
    "extended": ("gamma_p",),
    "backstepping": ("gamma_e", "W_e", "nu_e", "mu_e"),
    "modelfree": ("gamma_p", "sigma", "Gamma_v", "nu_v"),
}
TOP_FIELDS = ("schema", "notes", "name", "dt", "t_final", "rta_mode", "gravity", "checks", *SECTIONS)
MEMBER_FIELDS = {"obstacle": ("type", "center", "velocity", "radius"), "plane": ("type", "point", "normal", "margin")}


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
    extended: ExtendedParams | None
    backstep: BacksteppingParams | None
    mf: ModelFreeParams | None
    checks: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)


def _get(d: dict, key: str, path: str):
    if key not in d:
        raise ScenarioError(f"missing field '{path}{key}'")
    return d[key]


def _known(d: dict, fields, path: str) -> None:
    for key in d:
        if key not in fields:
            raise ScenarioError(f"field '{path}{key}' is not a known field")


def _section(d: dict, key: str, path: str) -> dict:
    v = _get(d, key, path)
    if not isinstance(v, dict):
        raise ScenarioError(f"field '{path}{key}' must be an object")
    _known(v, SECTIONS[key], f"{path}{key}.")
    return v


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


def _weight(d: dict, key: str, path: str) -> WeightFactor:
    """Diagonal weight factor of field ``key``; a singular one names the field."""
    try:
        return WeightFactor.diagonal(_vec3(d, key, path))
    except ValueError:
        raise ValueError(f"{key} must be invertible") from None


def _state(d: dict, path: str) -> AircraftState:
    return AircraftState(*(_num(d, key, path) for key in SECTIONS["initial_state"]))


def _members(items, path: str):
    if not isinstance(items, list) or not items:
        raise ScenarioError(f"field '{path}' must be a non-empty list")
    out = []
    for i, m in enumerate(items):
        if not isinstance(m, dict):
            raise ScenarioError(f"field '{path}[{i}]' must be an object")
        p = f"{path}[{i}]."
        kind = _get(m, "type", p)
        if kind in ("obstacle", "plane"):
            _known(m, MEMBER_FIELDS[kind], p)
        if kind == "obstacle":
            out.append(MovingObstacle(_vec3(m, "center", p), _vec3(m, "velocity", p), _num(m, "radius", p)))
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
    _known(raw, TOP_FIELDS, "")
    name = _get(raw, "name", "")
    # the name is the file stem of every export
    if not isinstance(name, str) or name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ScenarioError("field 'name' must be a non-empty string without '/', '\\' or NUL, and not '.' or '..'")
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

    x0 = _state(_section(raw, "initial_state", ""), "initial_state.")

    goal_d = _section(raw, "goal", "")
    if _get(goal_d, "type", "goal.") != "linear":
        raise ScenarioError("field 'goal.type' must be 'linear'")
    goal = GoalTrajectory(_vec3(goal_d, "v_g", "goal."), _vec3(goal_d, "r0", "goal.") if "r0" in goal_d else ZERO3)

    tr_d = _section(raw, "tracking", "")
    try:
        tracking = TrackingParams(
            K_r=_gain_matrix(_get(tr_d, "K_r", "tracking."), "tracking.K_r"),
            K_v=_gain_matrix(_get(tr_d, "K_v", "tracking."), "tracking.K_v"),
            mu=_num(tr_d, "mu", "tracking."),
            lam=_num(tr_d, "lambda", "tracking."),
        )
    except ValueError as exc:
        raise ScenarioError(f"field 'tracking': {exc}") from exc

    c_d = _section(raw, "constraints", "")
    try:
        cset = ConstraintSet(
            members=_members(_get(c_d, "members", "constraints."), "constraints.members"),
            kappa=_num(c_d, "kappa", "constraints."),
        )
    except ValueError as exc:
        raise ScenarioError(f"field 'constraints': {exc}") from exc

    sf = _section(raw, "safety_filter", "")
    try:
        gamma = _num(sf, "gamma", "safety_filter.")
        if not gamma > 0.0:
            raise ValueError("gamma must be positive")
        W = _weight(sf, "W", "safety_filter.")
    except ValueError as exc:
        raise ScenarioError(f"field 'safety_filter': {exc}") from exc
    sf_mode = sf.get("mode", "hard")
    if sf_mode not in ("hard", "smooth"):
        raise ScenarioError("field 'safety_filter.mode' must be 'hard' or 'smooth'")
    nu = None
    if sf_mode == "smooth":
        nu = _num(sf, "nu", "safety_filter.")
        if nu <= 0.0:
            raise ScenarioError("field 'safety_filter.nu' must be positive")

    extended = None
    if "extended" in raw:
        e_d = _section(raw, "extended", "")
        try:
            extended = ExtendedParams(gamma_p=_num(e_d, "gamma_p", "extended."), gamma=gamma, W=W, nu=nu)
        except ValueError as exc:
            raise ScenarioError(f"field 'extended': {exc}") from exc

    backstep = None
    if "backstepping" in raw:
        b_d = _section(raw, "backstepping", "")
        if extended is None:
            raise ScenarioError("field 'backstepping' requires the 'extended' section (gamma_p)")
        try:
            backstep = BacksteppingParams(
                ext=extended,
                gamma_e=_num(b_d, "gamma_e", "backstepping."),
                W_e=_weight(b_d, "W_e", "backstepping."),
                nu_e=_num(b_d, "nu_e", "backstepping."),
                mu_e=_num(b_d, "mu_e", "backstepping."),
            )
        except ValueError as exc:
            raise ScenarioError(f"field 'backstepping': {exc}") from exc

    mf = None
    if "modelfree" in raw:
        m_d = _section(raw, "modelfree", "")
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
    # the monitor h_V divides by lambda - gamma_p
    if mode == "modelfree" and not mf.gamma_p < tracking.lam:
        raise ScenarioError(
            f"field 'modelfree.gamma_p' = {mf.gamma_p} must be below 'tracking.lambda' = {tracking.lam}"
        )

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
        name=name,
        dt=dt,
        t_final=t_final,
        mode=mode,
        gravity=gravity,
        x0=x0,
        goal=goal,
        tracking=tracking,
        cset=cset,
        extended=extended,
        backstep=backstep,
        mf=mf,
        checks=dict(checks),
        raw=raw,
    )
    _validate_initial_barriers(scn)
    return scn


def _validate_initial_barriers(scn: Scenario) -> None:
    """Reject scenarios whose mode-relevant barriers start negative.

    Every barrier and the tracking certificate read one frame of ``(x0, 0)``.
    """
    try:
        # the frame enforces the speed floor and the pitch guard; a start
        # at an obstacle's center lies inside it
        ctx = TrackContext(scn.x0, 0.0, scn.gravity)
        h_p0 = compose_h_p(ctx, scn.cset).value
    except FwrtaError as exc:
        raise ScenarioError(f"initial_state invalid: {exc}") from exc
    if h_p0 < 0.0:
        raise ScenarioError(f"initial state violates the position barrier: h_p(0) = {h_p0:.6g}")
    if scn.mode in ("extended", "backstepping"):
        he = compose_extended_terms(frame_jets(ctx, scn.cset), ctx.v, scn.cset.kappa, scn.extended.gamma_p)[0]
        if he < 0.0:
            raise ScenarioError(f"initial state violates the extended barrier: h_e(0) = {he:.6g}")
    if scn.mode == "backstepping":
        hb = h_b(ctx, scn.cset, scn.backstep)
        if hb < 0.0:
            raise ScenarioError(f"initial state violates the penalized barrier: h_b(0) = {hb:.6g}")
    # the certificate of the command the mode flies, finite from the start
    if scn.mode == "modelfree":
        cmd = SafeVelocityCommand(scn.goal, scn.tracking, scn.cset, scn.mf)
    else:
        cmd = GoalCommand(scn.goal, scn.tracking)
    try:
        V0 = track(scn.x0, 0.0, cmd, scn.tracking, scn.gravity, ctx=ctx).V
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
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ScenarioError(f"{p}: invalid JSON ({type(exc).__name__}: {exc})") from exc
    scn = scenario_from_dict(raw, origin=str(p))
    return scn

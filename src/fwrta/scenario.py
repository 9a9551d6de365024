"""Scenario files: a versioned JSON schema describing one closed-loop run.

A scenario pins the initial state, horizon and step, the assurance mode,
the constraint geometry, the goal trajectory and every gain.  ``SCHEMA``
declares the file once: every object's fields, in the order its
constructor takes them, each with its parser and its default (``REQUIRED``
where it has none); ``THRESHOLDS`` lists what ``checks`` may set, each key
with its parser and the check line it yields.  An object whose kind field
picks its fields (the file's ``schema``, a member's or the goal's
``type``, the safety filter's ``mode``) lists them per kind.  One reader, ``_object``, walks the table: errors name
the offending field, and a section's parser or constructor error names
the section.  Loading then applies the rules across fields and rejects
initial states whose mode-relevant barriers start negative.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .backstepping import BacksteppingParams, h_b
from .constraints import ZERO3, ConstraintSet, GeofencePlane, MovingObstacle, compose_h_p
from .errors import FwrtaError, ScenarioError
from .extended import ExtendedParams, compose_extended_terms
from .filters import WeightFactor, check_positive
from .model import AircraftState, GravityParam, TrackContext
from .modelfree import ModelFreeParams, h_V, safe_velocity_from_terms
from .tracking import GoalCommand, GoalTrajectory, SafeVelocityCommand, TrackingParams, track

SCHEMA_ID = "fwrta-scenario/1"
MODES = ("off", "extended", "backstepping", "modelfree")
MAX_STEPS = 1_000_000  # control steps per run, t_final / dt
MAX_SWEEP_STEPS = 10_000  # runs per sweep, --steps
REQUIRED = object()  # the default of a field that must be given


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


class Obj(NamedTuple):
    """An object: its constructor, its fields (field -> (parser, default)) in the order the
    constructor takes them, and the earlier sections whose values the constructor takes first."""

    ctor: Callable | None
    fields: dict
    before: tuple = ()


class Kinds(NamedTuple):
    """An object whose field ``key`` (``default`` when absent) picks its ``Obj`` from ``kinds``."""

    key: str
    default: object
    kinds: dict
    before: tuple = ()


class Threshold(NamedTuple):
    """A key of ``checks``: its parser, and the name and test of the check line it yields,
    ``test(met, v) -> (ok, detail)`` against the run's metrics (none for ``allow_abort``,
    which the abort line reads)."""

    parse: Callable
    line: str | None = None
    test: Callable | None = None


def _is_finite_number(x) -> bool:
    """A JSON number (not a bool) that converts to a finite float."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _number(v, name: str) -> float:
    if not _is_finite_number(v):
        raise ScenarioError(f"field '{name}' must be a finite number")
    return float(v)


def _positive(v, name: str) -> float:
    if _number(v, name) <= 0.0:
        raise ScenarioError(f"field '{name}' must be positive")
    return float(v)


def _vector(v, name: str) -> np.ndarray:
    if not (isinstance(v, list) and len(v) == 3 and all(map(_is_finite_number, v))):
        raise ScenarioError(f"field '{name}' must be a list of 3 finite numbers")
    return np.asarray(v, dtype=float)


def _gain(v, name: str) -> np.ndarray:
    """A scalar gain ``k`` as ``k I``, or a diagonal one from its 3 entries."""
    if _is_finite_number(v):
        return float(v) * np.eye(3)
    if isinstance(v, list) and len(v) == 3 and all(map(_is_finite_number, v)):
        return np.diag(np.asarray(v, dtype=float))
    raise ScenarioError(f"field '{name}' must be a finite scalar or a list of 3 finite diagonal entries")


def _weight(v, name: str) -> WeightFactor:
    """Diagonal weight factor; a singular one is its section's error."""
    try:
        return WeightFactor.diagonal(_vector(v, name))
    except ValueError:
        raise ValueError(f"{name.rpartition('.')[2]} must be invertible") from None


def _choice(*options, rule: str = ""):
    """Parser of a field that holds one of ``options`` (compared, so an unhashable value is only unequal)."""

    def parse(v, name: str):
        if v not in options:
            raise ScenarioError(f"field '{name}' must be {rule or ' or '.join(map(repr, options))}")
        return v

    return parse


def _flag(v, name: str) -> bool:
    if not isinstance(v, bool):
        raise ScenarioError(f"field '{name}' must be true or false")
    return v


def _name(v, name: str) -> str:
    # the name is the file stem of every export
    if not isinstance(v, str) or v in ("", ".", "..") or any(c in v for c in "/\\\0"):
        raise ScenarioError(f"field '{name}' must be a non-empty string without '/', '\\' or NUL, and not '.' or '..'")
    return v


def _members(spec: Kinds):
    """Parser of a non-empty list of objects read by ``spec``."""

    def parse(items, name: str) -> list:
        if not isinstance(items, list) or not items:
            raise ScenarioError(f"field '{name}' must be a non-empty list")
        return [_object(m, spec, f"{name}[{i}]") for i, m in enumerate(items)]

    return parse


def _thresholds(d, name: str) -> dict:
    """The thresholds of ``THRESHOLDS`` that ``d`` sets, each checked by its parser and kept as given."""
    if not isinstance(d, dict):
        raise ScenarioError(f"field '{name}' must be an object")
    for key, v in d.items():
        if key not in THRESHOLDS:
            raise ScenarioError(f"field '{name}.{key}' is not a known threshold")
        THRESHOLDS[key].parse(v, f"{name}.{key}")
    return dict(d)


def _outer_gains(gamma: float, W: WeightFactor, nu: float | None) -> tuple:
    """The safety filter's gains, which the extended layer's outer filter takes."""
    check_positive(gamma=gamma)
    return gamma, W, nu


def _safety_filter(nu: tuple) -> Obj:
    """The safety filter's fields, with ``nu``'s parser and default."""
    return Obj(_outer_gains, {"gamma": (_number, REQUIRED), "W": (_weight, REQUIRED), "nu": nu})


# The thresholds a scenario's checks may set, each with its parser and its check
# line, in the order fwrta.simulate.evaluate_checks gives the lines (the abort line
# first): a number bounds a metric, a flag asks for its line only when true.
THRESHOLDS = {
    "allow_abort": Threshold(_flag),
    "min_h_p": Threshold(_number, "min_h_p", lambda met, v: (
        met.min_h_p >= v, f"min h_p = {met.min_h_p:.6g} (floor {v})")),
    "min_h_members": Threshold(_number, "min_h_members", lambda met, v: (
        min(met.min_h_members) >= v, f"worst member min = {min(met.min_h_members):.6g} (floor {v})")),
    "min_h_mode": Threshold(_number, "min_h_mode", lambda met, v: (
        met.min_h_mode >= v, f"min mode barrier = {met.min_h_mode:.6g} (floor {v})")),
    "p_transparent": Threshold(_flag, "p_transparent", lambda met, v: (
        met.p_dev_bit_exact, f"max |P - P_d| = {met.max_p_dev:.6g}")),
    "roll_intervention_exceeds": Threshold(_number, "roll_intervention", lambda met, v: (
        met.max_p_dev > v, f"max |P - P_d| = {met.max_p_dev:.6g} (> {v})")),
    "v_t_drops_below": Threshold(_number, "v_t_drops_below", lambda met, v: (
        met.min_V_T < v, f"min V_T = {met.min_V_T:.6g} (< {v})")),
    "max_abs_down": Threshold(_number, "max_abs_down", lambda met, v: (
        met.max_abs_d <= v, f"max |d| = {met.max_abs_d:.6g} (<= {v})")),
    "no_warnings": Threshold(_flag, "no_warnings", lambda met, v: (
        met.warning_count == 0, f"{met.warning_count} warning steps")),
    "max_final_pos_err": Threshold(_number, "max_final_pos_err", lambda met, v: (
        met.final_pos_err <= v, f"final error = {met.final_pos_err:.6g} m")),
}
NUMBER, VECTOR = (_number, REQUIRED), (_vector, REQUIRED)
# The scenario file.  A field of the top level read by an Obj or Kinds is a
# section: its constructor builds it, and a parser's or constructor's
# ValueError in it names the section.
SCHEMA = Kinds("schema", None, {SCHEMA_ID: Obj(None, {
    "notes": (lambda v, name: v, None),
    "name": (_name, REQUIRED),
    "dt": (_positive, REQUIRED),
    "t_final": NUMBER,
    "rta_mode": (_choice(*MODES, rule=f"one of {MODES}"), REQUIRED),
    "gravity": (lambda v, name: GravityParam(_number(v, name)), GravityParam()),
    "initial_state": (Obj(AircraftState, dict.fromkeys(("n", "e", "d", "phi", "theta", "psi", "V_T"), NUMBER)),
                      REQUIRED),
    "goal": (Kinds("type", REQUIRED, {"linear": Obj(GoalTrajectory, {"v_g": VECTOR, "r0": (_vector, ZERO3)})}),
             REQUIRED),
    "tracking": (Obj(TrackingParams, {"K_r": (_gain, REQUIRED), "K_v": (_gain, REQUIRED), "mu": NUMBER,
                                      "lambda": NUMBER}), REQUIRED),
    "constraints": (Obj(ConstraintSet, {
        "members": (_members(Kinds("type", REQUIRED, {
            "obstacle": Obj(MovingObstacle, {"center": VECTOR, "velocity": VECTOR, "radius": NUMBER}),
            "plane": Obj(GeofencePlane, {"point": VECTOR, "normal": VECTOR, "margin": NUMBER}),
        })), REQUIRED),
        "kappa": NUMBER,
    }), REQUIRED),
    # a hard filter reads no nu
    "safety_filter": (Kinds("mode", "hard", {
        "hard": _safety_filter((lambda v, name: None, None)),
        "smooth": _safety_filter((_positive, REQUIRED)),
    }), REQUIRED),
    "extended": (Obj(lambda gains, gamma_p: ExtendedParams(gamma_p, *gains), {"gamma_p": NUMBER},
                     before=("safety_filter",)), None),
    "backstepping": (Obj(BacksteppingParams, {"gamma_e": NUMBER, "W_e": (_weight, REQUIRED), "nu_e": NUMBER,
                                              "mu_e": NUMBER}, before=("extended",)), None),
    "modelfree": (Obj(ModelFreeParams, {"gamma_p": NUMBER, "sigma": NUMBER, "Gamma_v": NUMBER, "nu_v": NUMBER}),
                  None),
    "checks": (_thresholds, {}),
})})


def _object(d, spec, name: str, *before):
    """Object ``d`` read by ``spec``: its constructor called with ``before`` and then its fields in
    table order, or the fields by name where it has none.

    Rejects a non-object, a missing or unknown kind, an unknown field and a
    missing required field.  A section (a field of the top level read by a
    spec) gets the values of the earlier sections it takes, and a
    ``ValueError`` raised in it names the section.
    """
    if not isinstance(d, dict):
        raise ScenarioError(f"field '{name}' must be an object")
    prefix = f"{name}." if name else ""
    kind = ()
    if isinstance(spec, Kinds):
        kind = (spec.key,)
        v = d.get(spec.key, spec.default)
        if v is REQUIRED:
            raise ScenarioError(f"missing field '{prefix}{spec.key}'")
        spec = spec.kinds[_choice(*spec.kinds)(v, prefix + spec.key)]
    for key in d:
        if key not in spec.fields and key not in kind:
            raise ScenarioError(f"field '{prefix}{key}' is not a known field")
    values = {}
    for key, (parse, default) in spec.fields.items():
        if key not in d:
            if default is REQUIRED:
                raise ScenarioError(f"missing field '{prefix}{key}'")
            values[key] = default
            continue
        try:
            if isinstance(parse, (Obj, Kinds)):
                for dep in parse.before:
                    if values[dep] is None:
                        needs = ", ".join(spec.fields[dep][0].fields)
                        raise ScenarioError(f"field '{key}' requires the '{dep}' section ({needs})")
                values[key] = _object(d[key], parse, prefix + key, *(values[dep] for dep in parse.before))
            else:
                values[key] = parse(d[key], prefix + key)
        except ValueError as exc:
            if prefix:  # a field within a section: the section names the error
                raise
            raise ScenarioError(f"field '{key}': {exc}") from exc
    return values if spec.ctor is None else spec.ctor(*before, *values.values())


def scenario_from_dict(raw: dict, origin: str = "<dict>") -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError(f"{origin}: scenario must be a JSON object")
    top = _object(raw, SCHEMA, "")
    _, name, dt, t_final, mode, gravity, x0, goal, tracking, cset, _, extended, backstep, mf, checks = top.values()
    if t_final <= dt:
        raise ScenarioError("field 't_final' must exceed 'dt'")
    if t_final / dt > MAX_STEPS:
        raise ScenarioError(f"fields 't_final' / 'dt' give more than {MAX_STEPS} steps")
    # a mode's section is named after it
    if mode != "off" and top[mode] is None:
        raise ScenarioError(f"rta_mode '{mode}' requires the '{mode}' section")
    # the monitor h_V divides by lambda - gamma_p
    if mode == "modelfree" and not mf.gamma_p < tracking.lam:
        raise ScenarioError(
            f"field 'modelfree.gamma_p' = {mf.gamma_p} must be below 'tracking.lambda' = {tracking.lam}"
        )
    scn = Scenario(name, dt, t_final, mode, gravity, x0, goal, tracking, cset, extended, backstep, mf, checks, raw)
    _validate_initial_barriers(scn)
    return scn


def _validate_initial_barriers(scn: Scenario) -> None:
    """Reject scenarios whose mode-relevant barriers start negative.

    Every barrier and the tracking certificate read one frame of ``(x0, 0)`` and
    the one composition of the members there, passed on as a control step passes
    them.
    """
    try:
        # the frame enforces the speed floor and the pitch guard; a start
        # at an obstacle's center lies inside it
        ctx = TrackContext(scn.x0, 0.0, scn.gravity)
        pos = compose_h_p(ctx, scn.cset)
    except FwrtaError as exc:
        raise ScenarioError(f"initial_state invalid: {exc}") from exc
    if pos.value < 0.0:
        raise ScenarioError(f"initial state violates the position barrier: h_p(0) = {pos.value:.6g}")
    if scn.mode in ("extended", "backstepping"):
        he = compose_extended_terms(pos.jets, ctx.v, pos.kappa, scn.extended.gamma_p)[0]
        if he < 0.0:
            raise ScenarioError(f"initial state violates the extended barrier: h_e(0) = {he:.6g}")
    if scn.mode == "backstepping":
        hb = h_b(ctx, pos, scn.backstep)
        if hb < 0.0:
            raise ScenarioError(f"initial state violates the penalized barrier: h_b(0) = {hb:.6g}")
    # the certificate of the command the mode flies, finite from the start
    cmd = GoalCommand(scn.goal, scn.tracking)
    try:
        if scn.mode == "modelfree":
            v_d = cmd.command_jet(ctx)
            cmd = SafeVelocityCommand(v_d, pos, safe_velocity_from_terms(pos, v_d[0], scn.mf), scn.mf)
        V0 = track(scn.x0, 0.0, cmd, scn.tracking, scn.gravity, ctx=ctx).V
    except (FwrtaError, ValueError) as exc:
        raise ScenarioError(f"initial tracking certificate cannot be evaluated: {exc}") from exc
    if not math.isfinite(V0):
        raise ScenarioError(f"initial tracking certificate is not finite: V(0) = {V0}")
    if scn.mode == "modelfree":
        hv = h_V(V0, pos.value, scn.mf, scn.tracking.lam)
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

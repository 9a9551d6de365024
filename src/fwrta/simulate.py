"""Closed-loop simulation: fixed-step integration with per-step assurance,
trajectory/barrier logging, metrics and threshold checking.

The control input is computed once per step at the step's start state
and held over the step (zero-order hold).  Every mode tracks the goal
command for ``u_d`` first, then composes the position barrier in that
track's frame and passes the composition to its filter, and yields the
applied input, its barrier, the filter's slack and warning flag; the
filtered modes read the last two from the one
:class:`~fwrta.filters.FilterResult` their filter returns.  Each value
of the step is computed once and passed on as an argument: the goal
track's jet, the composition with its member jets and, in modelfree,
the filter's zeroth order, which the safe track extends in the same
frame.  The step returns its log row as one flat tuple, its state first,
in the order of :data:`LOG_COLUMNS`, the one table of the log's columns,
which the log and its CSV and JSON exports follow too.  The state advances
with the classic fourth-order step from :mod:`fwrta.kernels`.  The whole
step runs over Python floats: the state travels as a float 7-tuple, the
frame and every per-step formula hold float 3-lists.  The log's row array
is allocated for the whole horizon when the run starts, and each row is
packed into it as the step returns it, so a run holds the log's own arrays
and no row beyond them, and the log's columns are the row array's slices.
Measured with tracemalloc on fig3 between 3001 and 12001 steps,
:func:`integrate`'s peak grows by 162 B per step, the log's own bytes per
row, and is 0.49 MB at 3001 steps.  Runs are fully deterministic.
Singularities and a non-finite state abort the run with a partial log and a
recorded reason.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from . import kernels
from .backstepping import rta_backstepping
from .constraints import compose_h_p
from .errors import FwrtaError, ScenarioError
from .extended import rta_extended
from .model import TrackContext
from .modelfree import h_V, safe_velocity_from_terms
from .scenario import MAX_SWEEP_STEPS, THRESHOLDS, Scenario, scenario_from_dict
from .tracking import GoalCommand, SafeVelocityCommand, track


# The log's columns after ``t``, in the order of a control step's row, the step's
# state first: each column's name, its width (1 for a scalar, 3, 7, or MEMBERS for one
# per constraint member), its dtype (bool for a flag) and its CSV header (None where
# the CSV does not carry it; a per-member column numbers its members' names from 1).
# This table is the one spelling of the log's layout: the row, TrajectoryLog's
# columns, the CSV and the JSON all follow it.
MEMBERS = "members"
LOG_COLUMNS = (
    ("x", 7, float, "n,e,d,phi,theta,psi,V_T"),
    ("u_d", 3, float, "A_T_d,P_d,Q_d"),
    ("u", 3, float, "A_T,P,Q"),
    ("h_p", 1, float, "h_p"),
    ("h_members", MEMBERS, float, "h_{}"),
    ("h_mode", 1, float, "h_mode"),
    ("residual", 1, float, None),
    ("intervening", 1, bool, "intervening"),
    ("warn", 1, bool, None),
)


def row_columns(m: int):
    """Where each :data:`LOG_COLUMNS` column sits in the flat row a control step
    returns, for ``m`` constraint members, and the row's width: ``(columns, width)``,
    ``columns`` mapping each name to an index (a scalar) or a slice (a vector)."""
    cols, i = {}, 0
    for name, width, _, _ in LOG_COLUMNS:
        w = m if width is MEMBERS else width
        cols[name] = i if width == 1 else slice(i, i + w)
        i += w
    return cols, i


@dataclass
class TrajectoryLog:
    """Time-indexed record of one run (fixed cadence, monotone time).

    ``columns`` holds the row's columns by their :data:`LOG_COLUMNS` names, in
    its order, and each reads as an attribute too (``log.x``, ``log.u``,
    ``log.warn``).
    """

    scenario: str
    mode: str
    dt: float
    member_count: int
    t: np.ndarray
    columns: dict
    abort: str | None = None

    def __getattr__(self, name: str):
        # reached only for names that are not fields
        try:
            return self.__dict__["columns"][name]
        except KeyError:
            raise AttributeError(name) from None


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
    """Per-step control law of the scenario: ``(x, t) -> row``, ``x`` a float 7-sequence
    and ``row`` the step's flat log row, in the order of :data:`LOG_COLUMNS` (``x``
    first)."""
    g = scn.gravity
    goal_cmd = GoalCommand(scn.goal, scn.tracking)

    def control(x, t: float) -> tuple:
        # one frame per step: track builds it and hands it on in its result, which
        # the position barrier and the input filters read; modelfree builds it here
        # for its two tracks
        ctx = TrackContext(x, t, g) if scn.mode == "modelfree" else None
        tr_d = track(x, t, goal_cmd, scn.tracking, g, ctx=ctx)
        pos = compose_h_p(tr_d.ctx, scn.cset)
        if scn.mode == "off":
            u, h_mode, residual, warn = tr_d.u, pos.value, tr_d.residual, False
        elif scn.mode == "modelfree":
            zeroth = safe_velocity_from_terms(pos, tr_d.jet[0], scn.mf)
            res = zeroth[0]
            tr = track(x, t, SafeVelocityCommand(tr_d.jet, pos, zeroth, scn.mf), scn.tracking, g, ctx=ctx)
            u, h_mode = tr.u, h_V(tr.V, pos.value, scn.mf, scn.tracking.lam)
            residual, warn = res.slack, res.infeasible
        else:
            if scn.mode == "extended":
                h_mode, res = rta_extended(tr_d.ctx, tr_d.u, pos, scn.extended)
            else:
                h_mode, res = rta_backstepping(tr_d.ctx, tr_d.u, pos, scn.backstep)
            u, residual, warn = res.u, res.slack, res.infeasible
        u_d = tr_d.u
        A_T_d, P_d, Q_d, A_T, P, Q = u_d.A_T, u_d.P, u_d.Q, u.A_T, u.P, u.Q
        intervening = A_T != A_T_d or P != P_d or Q != Q_d
        return (*x, A_T_d, P_d, Q_d, A_T, P, Q, pos.value, *pos.per_constraint, h_mode, residual, intervening, warn)

    return control


def integrate(scn: Scenario) -> TrajectoryLog:
    """Run the scenario to its horizon (or abort) and return the log.

    Rows cover every control step plus one final row evaluated (but not
    applied) at the horizon state; each row starts with its step's state.
    The log's columns are the slices of the run's row array.
    """
    m = len(scn.cset.members)
    cols, width = row_columns(m)
    table, abort = _rows(scn, width, cols["u"])
    # float(k) * dt rounded once, as the loop's k * dt: the same bits, built in place
    # with no integer temporary
    t = np.arange(len(table), dtype=float)
    t *= scn.dt
    return TrajectoryLog(
        scenario=scn.name,
        mode=scn.mode,
        dt=scn.dt,
        member_count=m,
        t=t,
        columns={name: table[:, cols[name]].astype(dtype, copy=False) for name, _, dtype, _ in LOG_COLUMNS},
        abort=abort,
    )


def _rows(scn: Scenario, width: int, u_at: slice):
    """The run's row array and its abort reason (None when the run reached its horizon).

    Each row is packed into the array allocated for the horizon as the step
    returns it; an aborted run's array is a copy of its filled rows.  The
    loop's objects are gone when this returns, so :func:`integrate` builds
    the log's other arrays beside the row array alone.
    """
    control = make_controller(scn)
    n_steps = int(round(scn.t_final / scn.dt))
    dt = scn.dt
    g_d = scn.gravity.g_d
    table = np.empty((n_steps + 1, width))
    pack = struct.Struct(f"{width}d").pack_into  # a row's floats at a byte offset
    abort = None

    x = tuple(scn.x0)
    for k in range(n_steps + 1):
        t = k * dt
        if not all(map(math.isfinite, x)):
            abort = "non-finite state"
            break
        try:
            row = control(x, t)
        except FwrtaError as exc:
            abort = f"{type(exc).__name__}: {exc}"
            break
        pack(table, k * width * 8, *row)
        if k == n_steps:
            break
        x = kernels.rk4_step(x, row[u_at], dt, g_d)

    if abort:
        # the log holds its own rows, not the unfilled rest of the horizon's
        table = table[:k].copy()
    return table, abort


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


def run_scenario(scn: Scenario):
    """Integrate and summarize; returns ``(log, metrics)``."""
    log = integrate(scn)
    return log, metrics_from_log(log, scn)


def evaluate_checks(scn: Scenario, log: TrajectoryLog, met: Metrics):
    """Evaluate the scenario's embedded thresholds: an aborted run's line first,
    then the line of each threshold the scenario sets, in the order of
    :data:`~fwrta.scenario.THRESHOLDS`.

    Returns ``(passed, lines)`` where each line is ``(name, ok, detail)``.
    """
    checks = scn.checks
    lines = []
    if met.aborted and not checks.get("allow_abort", False):
        lines.append(("no_abort", False, f"run aborted: {met.abort_reason}"))
    elif met.aborted:
        lines.append(("allow_abort", True, f"aborted as expected: {met.abort_reason}"))
    for key, (_, name, test) in THRESHOLDS.items():
        v = checks.get(key, False)  # a number is never False, a flag counts when true
        if test is not None and v is not False:
            ok, detail = test(met, v)
            lines.append((name, bool(ok), detail))

    passed = all(ok for _, ok, _ in lines)
    return passed, lines


def set_by_path(raw: dict, dotted: str, value: float) -> dict:
    """Return ``raw`` with ``dotted`` set to ``value``, copying only the containers on the path.

    Path segments traverse objects by key and lists by integer index,
    e.g. ``constraints.members[0].radius`` or ``dt``.
    """
    import copy
    import re

    out = copy.copy(raw)
    node = out
    parts = []
    for seg in dotted.split("."):
        m = re.fullmatch(r"([^\[\]]+)((\[\d+\])*)", seg)
        if not m:
            raise ScenarioError(f"bad sweep path segment: {seg!r}")
        parts.append(m.group(1))
        for idx in re.findall(r"\[(\d+)\]", m.group(2)):
            parts.append(int(idx))
    for p in parts[:-1]:
        try:
            node[p] = copy.copy(node[p])
            node = node[p]
        except (KeyError, IndexError, TypeError):
            raise ScenarioError(f"sweep path not found: {dotted!r} (at {p!r})") from None
    last = parts[-1]
    try:
        node[last]
    except (KeyError, IndexError, TypeError):
        raise ScenarioError(f"sweep path not found: {dotted!r} (at {last!r})") from None
    node[last] = value
    return out


def sweep(scn_raw: dict, param: str, lo: float, hi: float, steps: int):
    """Run the raw scenario dict across a parameter range: an iterator of ``(value,
    metrics)`` rows that loads and runs each value as it is reached, so a reader keeps
    the rows before a value that fails.  The range is checked when called, and so is
    the path's first segment: a path under ``notes``, which the run never reads, is
    refused."""
    if param.split(".", 1)[0].partition("[")[0] == "notes":
        raise ScenarioError(f"sweep path {param!r} is under 'notes', which the run never reads")
    if steps < 2:
        raise ScenarioError("sweep needs at least 2 steps")
    if steps > MAX_SWEEP_STEPS:
        raise ScenarioError(f"sweep --steps must be at most {MAX_SWEEP_STEPS}, got {steps}")
    for flag, bound in (("--min", lo), ("--max", hi)):
        if not math.isfinite(bound):
            raise ScenarioError(f"sweep {flag} must be finite, got {bound!r}")
    return (_sweep_row(scn_raw, param, v) for v in map(float, np.linspace(lo, hi, steps)))


def _sweep_row(scn_raw: dict, param: str, v: float):
    raw = set_by_path(scn_raw, param, v)  # a bad path keeps its own message
    origin = f"sweep({param}={v})"
    try:
        scn = scenario_from_dict(raw, origin=origin)
    except ScenarioError as exc:
        raise ScenarioError(f"{origin}: {exc}") from None
    return v, run_scenario(scn)[1]

"""Velocity-tracking flight controller via backstepping.

A desired acceleration drives the velocity error down exponentially; it
is converted through the inverse acceleration map (the rows ``c0``,
``-c2 / V_T`` and ``c1 / V_T`` of the rotation columns held by
:class:`~fwrta.model.TrackContext`) into ``(A_T, Q)`` and a desired
turn rate.  The roll rate is then synthesized from a scalar closed-form
program that enforces decay of a composite certificate containing the
turn-rate gap, which makes the commanded turn realizable through
rolling; :func:`track` returns that certificate's value ``V`` with the
input.

The rate coefficients of the turn-rate pair are written in closed form
over plain floats: the turn rate ``R = g sin(phi) cos(theta) / V_T`` and
its desired counterpart ``R_d = c1 . a_d / V_T`` are differentiated
along the closed loop at zero roll rate, and against roll for the
roll-rate coefficient, using ``d c1 / d phi = c2`` and
``c1_dot = -R c0``.  Each command supplies its value, its rate and the
rate of that rate as a map of the velocity rate (its "jet", the only
interface of :class:`VelocityCommand`).  For the model-free safe velocity
``v_s(r, t)`` that rate is ``D_ww v_s + J_r v_dot`` with ``w = (v, 1)``: the
second derivative along the flown curve ``(r + tau v + tau^2 v_dot / 2,
t + tau)``.  One plain-float Taylor jet along that curve gives it stage
by stage (goal, members, softmin, filter): orders 0 and 1 when the
command is built, and the second order once ``v_dot`` is known, each
stage's formula fed the curve's ``r'' = v_dot``.  The goal, member and
softmin stages start from what the step's
:class:`~fwrta.model.TrackContext` keeps, each built once per frame:
the goal command's own jet, each member's first-order jet
(:func:`~fwrta.constraints.frame_jets`) and the position barrier's
composition (:func:`~fwrta.constraints.compose_h_p`), whose zeroth
orders and weights the softmin stage extends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Protocol, Sequence

import numpy as np

from .constraints import ConstraintSet, compose_h_p, compose_jets, finite_vec3, frame_jets
from .dual import ZERO3, dot3
from .filters import check_positive
from .model import ControlInput, GravityParam, TrackContext
from .modelfree import ModelFreeParams, filter_jet


@dataclass(frozen=True)
class TrackingParams:
    """Position/velocity gains, turn-gap scale and certified decay rate.

    ``K_r_rows`` and ``K_v_rows`` hold the gains as float rows.
    """

    K_r: np.ndarray
    K_v: np.ndarray
    mu: float
    lam: float
    K_r_rows: tuple = field(init=False, repr=False, compare=False)
    K_v_rows: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        K_r = np.asarray(self.K_r, dtype=float)
        K_v = np.asarray(self.K_v, dtype=float)
        object.__setattr__(self, "K_r", K_r)
        object.__setattr__(self, "K_v", K_v)
        # named as in the scenario schema
        check_positive(mu=self.mu, **{"lambda": self.lam})
        for name, K in (("K_r", K_r), ("K_v", K_v)):
            if K.shape != (3, 3) or not np.allclose(K, K.T):
                raise ValueError(f"{name} must be a symmetric 3x3 matrix")
            if np.linalg.eigvalsh(K).min() <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        if self.lam > np.linalg.eigvalsh(K_v).min() + 1e-12:
            raise ValueError("lam must not exceed the smallest eigenvalue of K_v")
        object.__setattr__(self, "K_r_rows", tuple(map(tuple, K_r.tolist())))
        object.__setattr__(self, "K_v_rows", tuple(map(tuple, K_v.tolist())))


@dataclass(frozen=True)
class GoalTrajectory:
    """Goal position/velocity/acceleration as functions of time, each a
    float 3-sequence.

    The three callables must be mutually consistent derivatives; the
    derivative-based controller pieces assume the acceleration's own
    rate is zero (exact for the linear goal).
    """

    position: Callable[[float], Sequence[float]]
    velocity: Callable[[float], Sequence[float]]
    accel: Callable[[float], Sequence[float]]

    @classmethod
    def linear(cls, v_g, r0=(0.0, 0.0, 0.0)) -> "GoalTrajectory":
        v = tuple(finite_vec3(v_g, "goal velocity"))
        r0 = finite_vec3(r0, "goal start position")
        return cls(
            position=lambda t: [r0[0] + v[0] * t, r0[1] + v[1] * t, r0[2] + v[2] * t],
            velocity=lambda t: v,
            accel=lambda t: ZERO3,
        )

    def eval(self, t: float):
        return self.position(t), self.velocity(t), self.accel(t)


class VelocityCommand(Protocol):
    """Velocity command ``v_c(r, t)`` with its closed-loop rate ``a_c(x, t)``.

    ``command_jet`` is the only interface: the command's value and rate
    at the context's ``(x, t)``, and the rate of that rate as a map of the
    velocity rate.
    """

    def command_jet(self, ctx: TrackContext) -> tuple:
        """Return ``(v_c, a_c, rate)``: ``rate(v_dot)`` is the second derivative of ``v_c``
        along the flown curve ``(r + tau v + tau^2 v_dot / 2, t + tau)``, the rate of
        ``a_c`` along the loop."""
        ...


def _goal_jet(goal: GoalTrajectory, K_r, ctx: TrackContext):
    """``v_g + K_r (r_g - r)`` and its first two derivatives along ``w = (v, 1)``
    (``K_r`` as float rows; the goal's own acceleration rate is zero)."""
    r_g, v_g, a_g = goal.eval(ctx.t)
    r, v = ctx.r, ctx.v
    k0, k1, k2 = K_r
    e0 = [r_g[0] - r[0], r_g[1] - r[1], r_g[2] - r[2]]
    e1 = [v_g[0] - v[0], v_g[1] - v[1], v_g[2] - v[2]]
    # k_a = 0 + K_r a_g: the goal's own acceleration rate is zero
    return (
        [v_g[0] + dot3(k0, e0), v_g[1] + dot3(k1, e0), v_g[2] + dot3(k2, e0)],
        [a_g[0] + dot3(k0, e1), a_g[1] + dot3(k1, e1), a_g[2] + dot3(k2, e1)],
        [0.0 + dot3(k0, a_g), 0.0 + dot3(k1, a_g), 0.0 + dot3(k2, a_g)],
    )


def _step_goal_jet(goal: GoalTrajectory, K_r, ctx: TrackContext):
    """:func:`_goal_jet`, evaluated once per frame: ``ctx.goal_jet`` keeps it with
    the goal and gain rows it was built from, and a later command of the
    step on the same pair reads it back."""
    memo = ctx.goal_jet
    if memo is None or memo[0] is not goal or memo[1] is not K_r:
        memo = ctx.goal_jet = (goal, K_r, _goal_jet(goal, K_r, ctx))
    return memo[2]


@dataclass(frozen=True)
class GoalCommand:
    """Track a goal trajectory: ``v_c = v_g + K_r (r_g - r)``."""

    goal: GoalTrajectory
    params: TrackingParams

    def command_jet(self, ctx: TrackContext):
        K_r = self.params.K_r_rows
        v_c, a_c, k_a = _step_goal_jet(self.goal, K_r, ctx)
        k0, k1, k2 = K_r
        return v_c, a_c, lambda v: [k_a[0] - dot3(k0, v), k_a[1] - dot3(k1, v), k_a[2] - dot3(k2, v)]


@dataclass(frozen=True)
class SafeVelocityCommand:
    """Track the model-free safe velocity built on the goal command."""

    goal: GoalTrajectory
    params: TrackingParams
    cset: ConstraintSet
    mf: ModelFreeParams

    def command_jet(self, ctx: TrackContext):
        # orders 0 and 1 along (r + tau v + tau^2 v_dot / 2, t + tau) now; the
        # second order waits in the rate map until the tracker knows v_dot
        K_r = self.params.K_r_rows
        v_d = _step_goal_jet(self.goal, K_r, ctx)
        cset = self.cset
        h, grad, dtp, pos_second = compose_jets(frame_jets(ctx, cset), compose_h_p(ctx, cset), cset.kappa)
        v_s, filter_second = filter_jet(v_d[:2], h, grad, dtp, self.mf)
        k_a, (k0, k1, k2) = v_d[2], K_r

        def rate(v_dot):
            u2 = [k_a[0] - dot3(k0, v_dot), k_a[1] - dot3(k1, v_dot), k_a[2] - dot3(k2, v_dot)]
            return filter_second(u2, *pos_second(v_dot))

        return v_s[0], v_s[1], rate


@dataclass
class TrackResult:
    """Assembled input with the certificate diagnostics and the frame it was computed in."""

    u: ControlInput
    V: float
    R_d: float
    residual: float
    v_c: list
    a_c: list
    a_P: float
    b_P: float
    ctx: TrackContext


def _track_with(ctx: TrackContext, cmd: VelocityCommand, params: TrackingParams) -> TrackResult:
    v_c, a_c, rate = cmd.command_jet(ctx)
    c0, c1, c2 = ctx.c0, ctx.c1, ctx.c2
    V_T = ctx.V_T
    R = ctx.R
    k0, k1, k2 = params.K_v_rows
    v = ctx.v
    e_v = [v_c[0] - v[0], v_c[1] - v[1], v_c[2] - v[2]]
    K_e = [dot3(k0, e_v), dot3(k1, e_v), dot3(k2, e_v)]
    a_d = [a_c[0] + 0.5 * K_e[0], a_c[1] + 0.5 * K_e[1], a_c[2] + 0.5 * K_e[2]]
    A_T = dot3(c0, a_d)
    Q = -dot3(c2, a_d) / V_T
    R_d = dot3(c1, a_d) / V_T
    gap = R_d - R

    # rate coefficients: total derivative along the loop with P = 0, and
    # the roll sensitivity as the P coefficient (d c1/d phi = c2, and
    # c1_dot = -R c0 at P = 0)
    phi_dot = ctx.t_th * (ctx.s_ph * Q + ctx.c_ph * R)
    theta_dot = ctx.c_ph * Q - ctx.s_ph * R
    g_R = ctx.g_over_V * ctx.c_ph * ctx.c_th
    f_R = g_R * phi_dot - ctx.g_over_V * ctx.s_ph * ctx.s_th * theta_dot - R * A_T / V_T
    Vg = V_T * gap
    v_dot = [a_d[0] - Vg * c1[0], a_d[1] - Vg * c1[1], a_d[2] - Vg * c1[2]]
    d_e = [a_c[0] - v_dot[0], a_c[1] - v_dot[1], a_c[2] - v_dot[2]]
    da_c = rate(v_dot)
    a_d_dot = [da_c[0] + 0.5 * dot3(k0, d_e), da_c[1] + 0.5 * dot3(k1, d_e), da_c[2] + 0.5 * dot3(k2, d_e)]
    f_Rd = (dot3(c1, a_d_dot) - (R + R_d) * A_T) / V_T
    g_Rd = -Q

    mu = params.mu
    lam = params.lam
    e_v_sq = dot3(e_v, e_v)
    a_P = (
        -0.5 * dot3(e_v, K_e)
        + V_T * dot3(e_v, c1) * gap
        + gap * (f_Rd - f_R) / mu
        + 0.5 * lam * (e_v_sq + gap * gap / mu)
    )
    b_P = gap * (g_Rd - g_R) / mu
    P = solve_roll_qp(a_P, b_P)
    V = 0.5 * e_v_sq + gap * gap / (2.0 * mu)
    return TrackResult(
        u=ControlInput(A_T, P, Q),
        V=V,
        R_d=R_d,
        residual=a_P + b_P * P,
        v_c=v_c,
        a_c=a_c,
        a_P=a_P,
        b_P=b_P,
        ctx=ctx,
    )


def solve_roll_qp(a_P: float, b_P: float) -> float:
    """Minimum-magnitude roll rate with ``a_P + b_P P <= 0``."""
    if b_P == 0.0:
        return 0.0
    return min(0.0, -a_P) / b_P


def track(
    state,
    t: float,
    cmd: VelocityCommand,
    params: TrackingParams,
    g: GravityParam,
    ctx: TrackContext | None = None,
) -> TrackResult:
    """Full control input ``(A_T, P, Q)`` tracking the velocity command from the 7-sequence ``state``.

    Pass a prebuilt :class:`TrackContext` to share the state-side work
    when tracking several commands at the same ``(x, t)``; the result
    carries the frame, which the input filters read.
    """
    if ctx is None:
        ctx = TrackContext(state, t, g)
    return _track_with(ctx, cmd, params)

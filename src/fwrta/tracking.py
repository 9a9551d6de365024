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
``v_s(r, t)`` that rate is ``D_ww v_s + J_r v_dot`` along ``w = (v, 1)``.
Plain-float Taylor jets give it stage by stage (goal, members, softmin,
filter): one second-order pass along ``w`` and, once ``v_dot`` is known,
one first-order pass along ``(v_dot, 0)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Protocol

import numpy as np

from . import dual as dm
from .constraints import ConstraintSet, compose_jets, member_jet
from .model import AircraftState, ControlInput, GravityParam, TrackContext
from .modelfree import ModelFreeParams, filter_jet


@dataclass(frozen=True)
class TrackingParams:
    """Position/velocity gains, turn-gap scale and certified decay rate."""

    K_r: np.ndarray
    K_v: np.ndarray
    mu: float
    lam: float

    def __post_init__(self):
        K_r = np.asarray(self.K_r, dtype=float)
        K_v = np.asarray(self.K_v, dtype=float)
        object.__setattr__(self, "K_r", K_r)
        object.__setattr__(self, "K_v", K_v)
        if not (self.mu > 0.0 and self.lam > 0.0):
            raise ValueError("mu and lam must be positive")
        for name, K in (("K_r", K_r), ("K_v", K_v)):
            if K.shape != (3, 3) or not np.allclose(K, K.T):
                raise ValueError(f"{name} must be a symmetric 3x3 matrix")
            if np.linalg.eigvalsh(K).min() <= 0.0:
                raise ValueError(f"{name} must be positive definite")
        if self.lam > np.linalg.eigvalsh(K_v).min() + 1e-12:
            raise ValueError("lam must not exceed the smallest eigenvalue of K_v")


@dataclass(frozen=True)
class GoalTrajectory:
    """Goal position/velocity/acceleration as functions of time.

    The three callables must be mutually consistent derivatives; the
    derivative-based controller pieces assume the acceleration's own
    rate is zero (exact for the linear goal).
    """

    position: Callable[[float], np.ndarray]
    velocity: Callable[[float], np.ndarray]
    accel: Callable[[float], np.ndarray]

    @classmethod
    def linear(cls, v_g, r0=(0.0, 0.0, 0.0)) -> "GoalTrajectory":
        v = np.asarray(v_g, dtype=float)
        r0 = np.asarray(r0, dtype=float)
        zero = np.zeros(3)
        return cls(
            position=lambda t: r0 + v * t,
            velocity=lambda t: v.copy(),
            accel=lambda t: zero.copy(),
        )

    def eval(self, t: float):
        return (
            np.asarray(self.position(t), dtype=float),
            np.asarray(self.velocity(t), dtype=float),
            np.asarray(self.accel(t), dtype=float),
        )


class VelocityCommand(Protocol):
    """Velocity command ``v_c(r, t)`` with its closed-loop rate ``a_c(x, t)``.

    ``command_jet`` is the only interface: the command's value and rate
    at the context's ``(x, t)``, and the rate of that rate as a map of the
    velocity rate.
    """

    def command_jet(self, ctx: TrackContext) -> tuple:
        """Return ``(v_c, a_c, rate)``: ``rate(v_dot)`` is the rate of ``a_c`` along the loop."""
        ...


@dataclass(frozen=True)
class GoalCommand:
    """Track a goal trajectory: ``v_c = v_g + K_r (r_g - r)``."""

    goal: GoalTrajectory
    params: TrackingParams

    def command_jet(self, ctx: TrackContext):
        # the goal's own acceleration rate is zero (see GoalTrajectory)
        r_g, v_g, a_g = self.goal.eval(ctx.t)
        K_r = self.params.K_r
        v_c = v_g + K_r @ (r_g - ctx.r)
        a_c = a_g + K_r @ (v_g - ctx.v)
        return v_c, a_c, lambda v_dot: K_r @ a_g - K_r @ v_dot


@dataclass(frozen=True)
class SafeVelocityCommand:
    """Track the model-free safe velocity built on the goal command."""

    goal: GoalTrajectory
    params: TrackingParams
    cset: ConstraintSet
    mf: ModelFreeParams

    def command_jet(self, ctx: TrackContext):
        # second-order jets along w = (v, 1); the first-order pass along
        # (v_dot, 0) waits in the rate map until the tracker knows v_dot
        r_g, v_g, a_g = (x.tolist() for x in self.goal.eval(ctx.t))
        K_r, v = self.params.K_r.tolist(), ctx.v.tolist()
        e0, e1 = [x - y for x, y in zip(r_g, ctx.r.tolist())], [x - y for x, y in zip(v_g, v)]
        # v_d and its line derivatives: v_g + K_r e0, a_g + K_r e1 and K_r a_g
        v_d = tuple([x + dm.dot3(k, e) for x, k in zip(c, K_r)] for c, e in ((v_g, e0), (a_g, e1), ([0.0] * 3, a_g)))
        terms = [member_jet(ctx.r, ctx.t, v, m) for m in self.cset.members]
        h, grad, dtp, pos_along = compose_jets(terms, self.cset.kappa)
        v_s, filter_along = filter_jet(v_d, h, grad, dtp, self.mf)

        def rate(v_dot):
            rho = v_dot.tolist()
            h_o, *g_o, d_o = pos_along(rho)
            return np.array(v_s[2]) + np.array(filter_along([-dm.dot3(k, rho) for k in K_r], h_o, g_o, d_o))

        return np.array(v_s[0]), np.array(v_s[1]), rate


@dataclass
class TrackResult:
    """Assembled input with the certificate diagnostics and the frame it was computed in."""

    u: ControlInput
    V: float
    R_d: float
    residual: float
    v_c: np.ndarray
    a_c: np.ndarray
    a_P: float
    b_P: float
    ctx: TrackContext


def _track_with(ctx: TrackContext, cmd: VelocityCommand, params: TrackingParams) -> TrackResult:
    v_c, a_c, rate = cmd.command_jet(ctx)
    c0, c1, c2 = ctx.c0, ctx.c1, ctx.c2
    V_T = ctx.V_T
    R = ctx.R
    K_v = params.K_v
    e_v = v_c - ctx.v
    a_d = a_c + 0.5 * K_v @ e_v
    A_T = float(c0 @ a_d)
    Q = -float(c2 @ a_d) / V_T
    R_d = float(c1 @ a_d) / V_T
    gap = R_d - R

    # rate coefficients: total derivative along the loop with P = 0, and
    # the roll sensitivity as the P coefficient (d c1/d phi = c2, and
    # c1_dot = -R c0 at P = 0)
    phi_dot = ctx.t_th * (ctx.s_ph * Q + ctx.c_ph * R)
    theta_dot = ctx.c_ph * Q - ctx.s_ph * R
    g_R = ctx.g_over_V * ctx.c_ph * ctx.c_th
    f_R = g_R * phi_dot - ctx.g_over_V * ctx.s_ph * ctx.s_th * theta_dot - R * A_T / V_T
    v_dot = a_d - (V_T * gap) * c1
    a_d_dot = rate(v_dot) + 0.5 * K_v @ (a_c - v_dot)
    f_Rd = (float(c1 @ a_d_dot) - (R + R_d) * A_T) / V_T
    g_Rd = -Q

    M_R = V_T * c1
    mu = params.mu
    lam = params.lam
    e_v_sq = float(e_v @ e_v)
    a_P = (
        -0.5 * float(e_v @ (K_v @ e_v))
        + float(e_v @ M_R) * gap
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
    state: AircraftState,
    t: float,
    cmd: VelocityCommand,
    params: TrackingParams,
    g: GravityParam,
    ctx: TrackContext | None = None,
) -> TrackResult:
    """Full control input ``(A_T, P, Q)`` tracking the velocity command.

    Pass a prebuilt :class:`TrackContext` to share the state-side work
    when tracking several commands at the same ``(x, t)``; the result
    carries the frame, which the input filters read.
    """
    if ctx is None:
        ctx = TrackContext(state, t, g)
    return _track_with(ctx, cmd, params)

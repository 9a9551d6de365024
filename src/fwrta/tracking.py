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
stage's formula fed the curve's ``r'' = v_dot``.  The step evaluates
each stage's zeroth order once and passes it on:
:class:`SafeVelocityCommand` holds the goal command's jet, which the
goal track returns in its :class:`TrackResult`, the position barrier's
composition with its member jets
(:func:`~fwrta.constraints.compose_h_p`), whose zeroth orders and
weights the softmin stage extends, and the filter's zeroth order
(:func:`~fwrta.modelfree.safe_velocity_from_terms`), which the filter
stage extends.  :class:`TrackResult` is built positionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from .constraints import ZERO3, BarrierEval, compose_jets, finite_vec3
from .filters import check_positive
from .model import ControlInput, GravityParam, TrackContext
from .modelfree import ModelFreeParams, filter_jet


@dataclass(frozen=True)
class TrackingParams:
    """Position/velocity gains, turn-gap scale and certified decay rate.

    ``K_r`` and ``K_v`` are held as float 3x3 rows.
    """

    K_r: tuple
    K_v: tuple
    mu: float
    lam: float

    def __post_init__(self):
        # named as in the scenario schema
        check_positive(mu=self.mu, **{"lambda": self.lam})
        for name in ("K_r", "K_v"):
            K = np.asarray(getattr(self, name), dtype=float)
            if K.shape != (3, 3) or not np.allclose(K, K.T):
                raise ValueError(f"{name} must be a symmetric 3x3 matrix")
            if np.linalg.eigvalsh(K).min() <= 0.0:
                raise ValueError(f"{name} must be positive definite")
            object.__setattr__(self, name, tuple(map(tuple, K.tolist())))
        if self.lam > np.linalg.eigvalsh(self.K_v).min() + 1e-12:
            raise ValueError("lam must not exceed the smallest eigenvalue of K_v")


@dataclass(frozen=True)
class GoalTrajectory:
    """Linear goal: at ``r0`` at time 0, moving at the constant ``v_g``.

    Both are held as float 3-tuples.  :meth:`eval` gives the goal's
    position, velocity and acceleration at a time; the derivative-based
    controller pieces take the acceleration's own rate as zero.
    """

    v_g: tuple
    r0: tuple = ZERO3

    def __post_init__(self):
        object.__setattr__(self, "v_g", tuple(finite_vec3(self.v_g, "goal velocity")))
        object.__setattr__(self, "r0", tuple(finite_vec3(self.r0, "goal start position")))

    def eval(self, t: float):
        """Position, velocity and acceleration at time ``t``, float 3-sequences."""
        r0, v = self.r0, self.v_g
        return [r0[0] + v[0] * t, r0[1] + v[1] * t, r0[2] + v[2] * t], v, ZERO3


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
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = K_r
    ex, ey, ez = r_g[0] - r[0], r_g[1] - r[1], r_g[2] - r[2]
    fx, fy, fz = v_g[0] - v[0], v_g[1] - v[1], v_g[2] - v[2]
    ax, ay, az = a_g
    # k_a = 0 + K_r a_g: the goal's own acceleration rate is zero
    return (
        [v_g[0] + (k00 * ex + k01 * ey + k02 * ez), v_g[1] + (k10 * ex + k11 * ey + k12 * ez),
         v_g[2] + (k20 * ex + k21 * ey + k22 * ez)],
        [ax + (k00 * fx + k01 * fy + k02 * fz), ay + (k10 * fx + k11 * fy + k12 * fz),
         az + (k20 * fx + k21 * fy + k22 * fz)],
        [0.0 + (k00 * ax + k01 * ay + k02 * az), 0.0 + (k10 * ax + k11 * ay + k12 * az),
         0.0 + (k20 * ax + k21 * ay + k22 * az)],
    )


@dataclass(frozen=True)
class GoalCommand:
    """Track a goal trajectory: ``v_c = v_g + K_r (r_g - r)``."""

    goal: GoalTrajectory
    params: TrackingParams

    def command_jet(self, ctx: TrackContext):
        K_r = self.params.K_r
        v_c, a_c, (kx, ky, kz) = _goal_jet(self.goal, K_r, ctx)
        (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = K_r
        return v_c, a_c, lambda v: [kx - (k00 * v[0] + k01 * v[1] + k02 * v[2]),
                                    ky - (k10 * v[0] + k11 * v[1] + k12 * v[2]),
                                    kz - (k20 * v[0] + k21 * v[1] + k22 * v[2])]


@dataclass(frozen=True)
class SafeVelocityCommand:
    """Track the model-free safe velocity at one frame: the filter's zeroth order
    ``zeroth`` (:func:`~fwrta.modelfree.safe_velocity_from_terms`) of the goal command's
    jet ``goal`` against the composition ``pos`` (:func:`~fwrta.constraints.compose_h_p`),
    all at that frame, extended to orders 1 and 2."""

    goal: tuple
    pos: BarrierEval
    zeroth: tuple
    mf: ModelFreeParams

    def command_jet(self, ctx: TrackContext):
        # orders 0 and 1 along (r + tau v + tau^2 v_dot / 2, t + tau) now; the
        # second order waits in the rate map until the tracker knows v_dot
        v_d, a_d, goal_rate = self.goal
        h, grad, dtp, pos_second = compose_jets(self.pos)
        v_s, filter_second = filter_jet(self.zeroth, (v_d, a_d), h, grad, dtp, self.mf)
        return v_s[0], v_s[1], lambda v_dot: filter_second(goal_rate(v_dot), *pos_second(v_dot))


@dataclass
class TrackResult:
    """Assembled input with the certificate diagnostics, the command's jet ``(v_c, a_c,
    rate)`` and the frame it was computed in."""

    u: ControlInput
    V: float
    R_d: float
    residual: float
    jet: tuple
    a_P: float
    b_P: float
    ctx: TrackContext


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
    jet = cmd.command_jet(ctx)
    v_c, a_c, rate = jet
    (c0x, c0y, c0z), (c1x, c1y, c1z), (c2x, c2y, c2z) = ctx.c0, ctx.c1, ctx.c2
    V_T = ctx.V_T
    R = ctx.R
    (k00, k01, k02), (k10, k11, k12), (k20, k21, k22) = params.K_v
    v = ctx.v
    ex, ey, ez = v_c[0] - v[0], v_c[1] - v[1], v_c[2] - v[2]
    Kx, Ky, Kz = (k00 * ex + k01 * ey + k02 * ez), (k10 * ex + k11 * ey + k12 * ez), (k20 * ex + k21 * ey + k22 * ez)
    # a_d = a_c + K_v e_v / 2
    ax, ay, az = a_c[0] + 0.5 * Kx, a_c[1] + 0.5 * Ky, a_c[2] + 0.5 * Kz
    A_T = c0x * ax + c0y * ay + c0z * az
    Q = -(c2x * ax + c2y * ay + c2z * az) / V_T
    R_d = (c1x * ax + c1y * ay + c1z * az) / V_T
    gap = R_d - R

    # rate coefficients: total derivative along the loop with P = 0, and
    # the roll sensitivity as the P coefficient (d c1/d phi = c2, and
    # c1_dot = -R c0 at P = 0)
    phi_dot = ctx.t_th * (ctx.s_ph * Q + ctx.c_ph * R)
    theta_dot = ctx.c_ph * Q - ctx.s_ph * R
    g_R = ctx.g_over_V * ctx.c_ph * ctx.c_th
    f_R = g_R * phi_dot - ctx.g_over_V * ctx.s_ph * ctx.s_th * theta_dot - R * A_T / V_T
    Vg = V_T * gap
    v_dot = [ax - Vg * c1x, ay - Vg * c1y, az - Vg * c1z]
    dx, dy, dz = a_c[0] - v_dot[0], a_c[1] - v_dot[1], a_c[2] - v_dot[2]
    da_c = rate(v_dot)
    # the rate of a_d along the loop
    jx = da_c[0] + 0.5 * (k00 * dx + k01 * dy + k02 * dz)
    jy = da_c[1] + 0.5 * (k10 * dx + k11 * dy + k12 * dz)
    jz = da_c[2] + 0.5 * (k20 * dx + k21 * dy + k22 * dz)
    f_Rd = ((c1x * jx + c1y * jy + c1z * jz) - (R + R_d) * A_T) / V_T
    g_Rd = -Q

    mu = params.mu
    lam = params.lam
    e_v_sq = ex * ex + ey * ey + ez * ez
    a_P = (
        -0.5 * (ex * Kx + ey * Ky + ez * Kz)
        + V_T * (ex * c1x + ey * c1y + ez * c1z) * gap
        + gap * (f_Rd - f_R) / mu
        + 0.5 * lam * (e_v_sq + gap * gap / mu)
    )
    b_P = gap * (g_Rd - g_R) / mu
    P = solve_roll_qp(a_P, b_P)
    V = 0.5 * e_v_sq + gap * gap / (2.0 * mu)
    # positional: keyword arguments cost a dataclass __init__ three times as much
    return TrackResult(ControlInput(A_T, P, Q), V, R_d, a_P + b_P * P, jet, a_P, b_P, ctx)

"""Backstepping barrier assurance (strategy 2).

A smooth filter over accelerations yields a safe acceleration, which is
converted to a safe turn rate through the last row of the inverse
acceleration map.  Penalizing the gap between the safe and the actual
turn rate produces a barrier whose rate depends on the roll channel, so
the outer closed-form filter can command all three inputs.

The full-state gradient of that barrier ("lengthy calculation") is
produced by forward-mode dual numbers threaded through every stage:
composed extension, smooth filter, rate conversion and penalty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .constraints import ConstraintSet
from .extended import compose_extended_terms
from .filters import ClassKappaLinear, FilterResult, WeightFactor, apply_filter, lambda_smooth
from .model import (
    AircraftState,
    ControlInput,
    GravityParam,
    check_pitch,
    check_speed,
    euler_cols,
    f_vec,
    g_mat,
    turn_rate_raw,
    velocity_vec,
)


@dataclass(frozen=True)
class BacksteppingParams:
    """Gains for the acceleration filter, the penalty and the outer filter."""

    gamma_p: float
    alpha_e: ClassKappaLinear
    W_e: WeightFactor
    nu_e: float
    mu_e: float
    alpha: ClassKappaLinear
    W: WeightFactor

    def __post_init__(self):
        if not (self.gamma_p > 0.0 and self.nu_e > 0.0 and self.mu_e > 0.0):
            raise ValueError("gamma_p, nu_e and mu_e must be positive")


def _pipeline(r, phi, theta, psi, V_T, t, cset: ConstraintSet, p: BacksteppingParams, g: GravityParam):
    """Shared dual-capable chain: returns (h_e, a_s, R_s, R, h_b)."""
    v = velocity_vec(theta, psi, V_T)
    h_e, gr, gv, dt, _, _ = compose_extended_terms(r, v, t, cset, p.gamma_p)
    # barrier rate at zero acceleration plus decay
    a_e = dm.dot(gr, v) + dt + p.alpha_e(h_e)
    W_e = p.W_e.W
    b_e = dm.matvec(W_e.T, gv)
    bn2 = dm.dot(b_e, b_e)
    if float(dm.value(bn2)) == 0.0:
        # no acceleration authority: the filtered acceleration is the
        # zero branch, constant in a neighborhood for the derivatives
        a_s = dm.lift_const(np.zeros(3), h_e)
    else:
        lam = lambda_smooth(a_e, dm.sqrt(bn2), p.nu_e)
        a_s = dm.matvec(W_e, b_e) * lam
    _, c1, _ = euler_cols(phi, theta, psi)
    R_s = dm.dot(c1, a_s) / V_T
    R = turn_rate_raw(phi, theta, V_T, g.g_d)
    gap = R_s - R
    h_b = h_e - gap * gap * (0.5 / p.mu_e)
    return h_e, a_s, R_s, R, h_b


def h_b(state: AircraftState, t: float, cset: ConstraintSet, p: BacksteppingParams, g: GravityParam) -> float:
    """Penalized barrier; never exceeds the composed extension."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    _, _, _, _, hb = _pipeline(state.r, state.phi, state.theta, state.psi, state.V_T, t, cset, p, g)
    return float(hb)


def _seeded_pipeline(state: AircraftState, t: float, cset: ConstraintSet, p: BacksteppingParams, g: GravityParam):
    """``(h_e, h_b)`` as first-order duals over the 8 ``(x, t)`` seeds."""
    check_pitch(state.theta)
    check_speed(state.V_T)
    h_e, _, _, _, hb = _pipeline(*dm.seed_state_time(state.as_array(), t), cset, p, g)
    return h_e, hb


def grad_h_b(state: AircraftState, t: float, cset: ConstraintSet, p: BacksteppingParams, g: GravityParam):
    """Exact gradient ``(dh/dx, dh/dt)`` by forward-mode evaluation."""
    hb = _seeded_pipeline(state, t, cset, p, g)[1]
    return hb.e[:7].copy(), float(hb.e[7])


@dataclass
class BacksteppingRtaResult:
    """Filtered input plus per-step safety diagnostics."""

    u: ControlInput
    h_b: float
    h_e: float
    residual: float
    lam: float
    infeasible: bool


def rta_backstepping(
    state: AircraftState,
    t: float,
    u_d: ControlInput,
    cset: ConstraintSet,
    p: BacksteppingParams,
    g: GravityParam,
    smooth_nu: float | None = None,
) -> BacksteppingRtaResult:
    """Filter the desired input against the penalized barrier.

    The constraint row is ``dh/dx g(x)``; its roll entry is generically
    nonzero, so all three channels participate.
    """
    h_e_d, hb_d = _seeded_pipeline(state, t, cset, p, g)
    dhdx = hb_d.e[:7]
    dhdt = float(hb_d.e[7])
    f = f_vec(state, g)
    G = g_mat(state)
    u_d_vec = u_d.as_array()
    drift = dhdt + float(dhdx @ f)
    row = dhdx @ G
    a = drift + float(row @ u_d_vec) + p.alpha(float(hb_d.v))
    res: FilterResult = apply_filter(u_d_vec, a, row, p.W, smooth_nu)
    return BacksteppingRtaResult(
        u=ControlInput.from_array(res.u),
        h_b=float(hb_d.v),
        h_e=float(h_e_d.v),
        residual=res.slack,
        lam=res.lam,
        infeasible=res.infeasible,
    )

"""Velocity-extended barrier assurance (strategy 1).

Each position constraint ``h`` is extended to ``h + hdot / gamma_p`` so
the barrier rate sees the acceleration channel; the composed extension
drives the closed-form filter over ``(A_T, Q)``.  Roll rate ``P`` never
enters: the extension depends on the velocity states only, so the input
row carries a structural zero in the ``P`` slot and the filtered ``P``
equals the desired one bit for bit.  The rate of the extension is
assembled from the plain-float frame of :class:`~fwrta.model.TrackContext`
(velocity, rotation columns and turn rate), the one the tracking
controller reads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual as dm
from .constraints import ConstraintSet, GeofencePlane, _separation, compose_members
from .filters import ClassKappaLinear, FilterResult, WeightFactor, apply_filter
from .model import AircraftState, ControlInput, GravityParam, TrackContext


@dataclass(frozen=True)
class ExtendedParams:
    """Extension gain plus the outer filter's decay shape and input metric."""

    gamma_p: float
    alpha: ClassKappaLinear
    W: WeightFactor

    def __post_init__(self):
        if not self.gamma_p > 0.0:
            raise ValueError("gamma_p must be positive")


@dataclass
class ExtendedEval:
    """Composed extended barrier with its analytic partial derivatives."""

    value: float
    grad_r: np.ndarray
    grad_v: np.ndarray
    dt_partial: float
    per_member: list
    weights: list


def member_extended_terms(r, v, t, member, gamma_p: float):
    """(value, d/dr, d/dv, explicit d/dt) of one extended member.

    All four outputs are closed-form expressions of ``(r, v, t)`` and
    remain valid under dual-number evaluation, so higher constructions
    can differentiate through them without nesting.
    """
    inv_g = 1.0 / gamma_p
    if isinstance(member, GeofencePlane):
        n = member.normal
        h = dm.dot(n, r - member.point) - member.rho + inv_g * dm.dot(n, v)
        return h, n, n * inv_g, 0.0
    diff, q, v_i, a_i = _separation(r, t, member)
    n = diff / q
    rel = v - v_i
    n_rel = dm.dot(n, rel)
    h = q - member.rho + inv_g * n_rel
    # (I - n n^T) z / q terms from differentiating the unit vector
    grad_r = n + (rel - n * n_rel) * (inv_g / q)
    n_vi = dm.dot(n, v_i)
    dt = -n_vi + inv_g * (-(dm.dot(v_i, rel) - n_vi * n_rel) / q - dm.dot(n, a_i))
    return h, grad_r, n * inv_g, dt


def compose_extended_terms(r, v, t, cset: ConstraintSet, gamma_p: float):
    """Generic composed extension: (value, d/dr, d/dv, d/dt, per, weights)."""
    return compose_members([member_extended_terms(r, v, t, m, gamma_p) for m in cset.members], cset.kappa)


def h_e_composed(r, v, t, cset: ConstraintSet, params: ExtendedParams) -> ExtendedEval:
    """Composed extended barrier with weight-averaged derivatives."""
    h, gr, gv, dt, per, w = compose_extended_terms(
        np.asarray(r, dtype=float), np.asarray(v, dtype=float), float(t), cset, params.gamma_p
    )
    return ExtendedEval(
        value=float(h),
        grad_r=np.asarray(gr, dtype=float),
        grad_v=np.asarray(gv, dtype=float),
        dt_partial=float(dt),
        per_member=[float(x) for x in per],
        weights=[float(x) for x in w],
    )


def _affine_terms(state: AircraftState, t: float, cset: ConstraintSet, params: ExtendedParams, g: GravityParam):
    """Composed extension ``h`` and its rate as ``drift + row . u``.

    The ``P`` entry of ``row`` is a structural zero.
    """
    ctx = TrackContext(state, t, g)
    v = ctx.v
    h, gr, gv, dt, _, _ = compose_extended_terms(ctx.r, v, t, cset, params.gamma_p)
    V = ctx.V_T
    # acceleration map columns: A_T -> c0, Q -> -V c2, and the drift R -> V c1
    drift = float(dm.dot(gr, v) + dt + dm.dot(gv, ctx.c1) * (V * ctx.R))
    row = np.array([float(dm.dot(gv, ctx.c0)), 0.0, float(-V * dm.dot(gv, ctx.c2))])
    return h, drift, row


@dataclass
class ExtendedRtaResult:
    """Filtered input plus the per-step safety diagnostics."""

    u: ControlInput
    h_e: float
    residual: float
    lam: float
    infeasible: bool


def rta_extended(
    state: AircraftState,
    t: float,
    u_d: ControlInput,
    cset: ConstraintSet,
    params: ExtendedParams,
    g: GravityParam,
    smooth_nu: float | None = None,
) -> ExtendedRtaResult:
    """Filter the desired input against the composed extended barrier."""
    h, drift, row = _affine_terms(state, t, cset, params, g)
    u_d_vec = u_d.as_array()
    a = drift + float(row @ u_d_vec) + params.alpha(h)
    res: FilterResult = apply_filter(u_d_vec, a, row, params.W, smooth_nu)
    # carry the desired roll rate through verbatim (bit-exact transparency)
    u = ControlInput(float(res.u[0]), u_d.P, float(res.u[2]))
    return ExtendedRtaResult(
        u=u,
        h_e=float(h),
        residual=res.slack,
        lam=res.lam,
        infeasible=res.infeasible,
    )

"""Backstepping barrier assurance (strategy 2).

The barrier builds on the extended layer: ``h_e``, its rate at fixed
velocity ``D`` and its velocity gradient ``gv`` compose the members'
:func:`~fwrta.extended.member_extended_terms`, and the extension gain and
the outer filter's gains come from ``BacksteppingParams.ext``.  The smooth filter
step of :mod:`fwrta.filters`, run over accelerations from zero against
``D + gamma_e h_e`` and the row ``W_e^T gv``, yields a safe acceleration
``a_s`` and turn rate ``R_s = c1 . a_s / V_T``.
``h_b = h_e - (R_s - R)^2 / (2 mu_e)`` penalizes the gap to the actual
turn rate, so its rate depends on the roll channel and the outer input
filter (:func:`~fwrta.filters.filter_input`) commands all three inputs;
:func:`rta_backstepping` returns ``h_b`` with its
:class:`~fwrta.filters.FilterResult`.

A step takes one softmin of the members' ``E_i`` and then walks the
members once.  The walk composes ``D`` and ``gv`` and, along the drift
and the ``A_T`` and ``Q`` columns, sums what the rate of ``h_b`` reads of
each member's rates (:func:`~fwrta.extended.member_frame_rates`): by the
softmin identity ``w_i' = kappa w_i (h' - E_i')``, a composed rate
``sum w_i' z_i + w_i z_i'`` is ``kappa (h' sum w z - sum w E' z) + sum w z'``,
with ``h' = sum w E'`` (Molnar & Ames, L-CSS 2023).  The velocity
gradient's rate ``gv'`` enters only through the two contractions
``c1 . a_s'`` reads, and the smooth multiplier's rate is linear in
``(a', |b|')`` with two coefficients taken once per step
(:func:`~fwrta.filters.lambda_smooth_coefficients`).  The frame's rates are closed form:
``c1_dot = -R c0 + P c2``, ``V_dot = A_T`` and the turn rate's, so ``P``
enters only through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import ZERO3, BarrierEval, softmin_weights
from .extended import ExtendedParams, member_extended_terms, member_frame_rates
from .filters import FilterResult, WeightFactor, check_positive, filter_input, filter_step, lambda_smooth_coefficients
from .model import ControlInput, TrackContext


@dataclass(frozen=True)
class BacksteppingParams:
    """The extended layer's gains ``ext`` (extension and outer filter), plus
    the acceleration filter's and the penalty's."""

    ext: ExtendedParams
    gamma_e: float
    W_e: WeightFactor
    nu_e: float
    mu_e: float

    def __post_init__(self):
        check_positive(gamma_e=self.gamma_e, nu_e=self.nu_e, mu_e=self.mu_e)


def _pipeline(ctx: TrackContext, pos: BarrierEval, p: BacksteppingParams):
    """``(h_e, a_s, R_s, h_b)`` of the composition ``pos``'s member jets at the
    frame's ``(x, t)``, then the walk's sums
    (:func:`_affine_terms` reads them), ``a_e``, ``b`` and the step's result.

    The walk's sums are the composed ``D`` and ``gv``, ``sum w n'`` and, per
    direction (drift, ``A_T``, ``Q``), ``(sum w e, sum w d, sum w e D_i, *sum w e gv_i)``
    with ``(e, d)`` the member's ``(E', D')``.
    """
    jets = pos.jets
    gamma_p = p.ext.gamma_p
    terms, per = [], []
    for j in jets:
        e = member_extended_terms(j, ctx.v, gamma_p)
        terms.append(e)
        per.append(e[0])
    h_e, w = softmin_weights(per, pos.kappa)
    D = gx = gy = gz = mx = my = mz = 0.0
    # per direction, f (drift), a (A_T) and q (Q): sum w e, sum w d, sum w e D_i, sum w e gv_i
    fe = fd = fD = fx = fy = fz = ae = ad = aD = ax = ay = az = qe = qd = qD = qx = qy = qz = 0.0
    for x, (_, Di, vx, vy, vz), j in zip(w, terms, jets):
        (ef, df), (ea, da), (eq, dq) = member_frame_rates(j, gamma_p, ctx)
        m = j[1][1]  # the gradient's rate n' along (v, 1)
        D += x * Di
        gx, gy, gz = gx + x * vx, gy + x * vy, gz + x * vz
        mx, my, mz = mx + x * m[0], my + x * m[1], mz + x * m[2]
        y = x * ef
        fe, fd, fD = fe + y, fd + x * df, fD + y * Di
        fx, fy, fz = fx + y * vx, fy + y * vy, fz + y * vz
        y = x * ea
        ae, ad, aD = ae + y, ad + x * da, aD + y * Di
        ax, ay, az = ax + y * vx, ay + y * vy, az + y * vz
        y = x * eq
        qe, qd, qD = qe + y, qd + x * dq, qD + y * Di
        qx, qy, qz = qx + y * vx, qy + y * vy, qz + y * vz
    # barrier rate at zero acceleration plus decay
    a_e = D + p.gamma_e * h_e
    b = p.W_e.apply_t((gx, gy, gz))
    res = filter_step(ZERO3, a_e, b, p.W_e.apply, p.nu_e)
    c1, a_s = ctx.c1, res.u
    R_s = (c1[0] * a_s[0] + c1[1] * a_s[1] + c1[2] * a_s[2]) / ctx.V_T
    gap = R_s - ctx.R
    sums = (D, (gx, gy, gz), (mx, my, mz),
            ((fe, fd, fD, fx, fy, fz), (ae, ad, aD, ax, ay, az), (qe, qd, qD, qx, qy, qz)))
    return (h_e, a_s, R_s, h_e - gap * gap * (0.5 / p.mu_e)), (sums, a_e, b, res)


def h_b(ctx: TrackContext, pos: BarrierEval, p: BacksteppingParams) -> float:
    """Penalized barrier of the composition ``pos`` at the frame's ``(x, t)``; never
    exceeds the composed extension."""
    return _pipeline(ctx, pos, p)[0][3]


def _affine_terms(ctx: TrackContext, pos: BarrierEval, p: BacksteppingParams):
    """``(h_e, h_b)`` at the frame's ``(x, t)`` and the rate of ``h_b`` as ``drift + row . u``."""
    V, R = ctx.V_T, ctx.R
    (h_e, a_s, R_s, hb), ((D, (gx, gy, gz), (mx, my, mz), along), a_e, b, res) = _pipeline(ctx, pos, p)
    (fe, fd, fD, fx, fy, fz), (ae, ad, aD, ax, ay, az), (qe, qd, qD, qx, qy, qz) = along
    c1, lam, b_norm = ctx.c1, res.lam, math.sqrt(res.bn2)
    if b_norm:
        # c1 . a_s' reads gv' = sum w_i' gv_i (+ sum w n'/gamma_p on the drift) only
        # through W_b . gv' (|b|') and gam . gv', with W_b = W_e b and gam = W_e W_e^T c1
        W_e, k, g, ge = p.W_e, pos.kappa, 1.0 / p.ext.gamma_p, p.gamma_e
        (bx, by, bz), (cx, cy, cz) = W_e.apply(b), W_e.apply(W_e.apply_t(c1))
        b_gv, c_gv = (bx * gx + by * gy + bz * gz), (cx * gx + cy * gy + cz * gz)
        # along a direction, with h' = sum w e and w_i' = kappa w_i (h' - e_i), a composed
        # rate sum w_i' z_i + w_i z_i' is kappa (h' sum w z - sum w e z) + sum w z'
        Df = k * (fe * D - fD) + fd
        bf = (bx * mx + by * my + bz * mz) * g + k * (fe * b_gv - (bx * fx + by * fy + bz * fz))
        cf = (cx * mx + cy * my + cz * mz) * g + k * (fe * c_gv - (cx * fx + cy * fy + cz * fz))
        Da = k * (ae * D - aD) + ad
        ba, ca = k * (ae * b_gv - (bx * ax + by * ay + bz * az)), k * (ae * c_gv - (cx * ax + cy * ay + cz * az))
        Dq = k * (qe * D - qD) + qd
        bq, cq = k * (qe * b_gv - (bx * qx + by * qy + bz * qz)), k * (qe * c_gv - (cx * qx + cy * qy + cz * qz))
        # c1 . a_s' = lam' c1 . W_b + lam gam . gv', lam' = (A a' + B |b|') / |b| with
        # a' = D' + gamma_e h' and |b|' = W_b . gv' / |b|
        A, B = lambda_smooth_coefficients(a_e, b_norm, p.nu_e, lam, res.slope)
        c1_Wb = (c1[0] * bx + c1[1] * by + c1[2] * bz)
        as_f = (A * (Df + ge * fe) + B * (bf / b_norm)) / b_norm * c1_Wb + lam * cf
        as_a = (A * (Da + ge * ae) + B * (ba / b_norm)) / b_norm * c1_Wb + lam * ca
        as_q = (A * (Dq + ge * qe) + B * (bq / b_norm)) / b_norm * c1_Wb + lam * cq
    else:
        # a zero row is the step's no-authority branch: a_s = 0, taken as constant
        as_f = as_a = as_q = 0.0
    # rates over (drift, A_T, P, Q) with D c1 = (-R c0, 0, c2, 0) and D V_T = (0, 1, 0, 0):
    # D R_s = (D c1 . a_s + c1 . D a_s - R_s D V_T) / V_T, and R's are closed form
    c0, c2 = ctx.c0, ctx.c2
    sx, sy, sz = a_s
    gap, mu = R_s - R, p.mu_e
    drift = fe - gap * ((as_f - R * (c0[0] * sx + c0[1] * sy + c0[2] * sz)) / V - ctx.g_over_V * ctx.s_th * R) / mu
    row = (ae - gap * ((as_a - R_s) / V + R / V) / mu,
           -gap * ((c2[0] * sx + c2[1] * sy + c2[2] * sz) / V - ctx.g_over_V * ctx.c_ph * ctx.c_th) / mu,
           qe - gap * (as_q / V) / mu)
    return h_e, hb, drift, row


def rta_backstepping(
    ctx: TrackContext, u_d: ControlInput, pos: BarrierEval, p: BacksteppingParams
) -> tuple[float, FilterResult]:
    """Filter the desired input against the penalized barrier of the composition ``pos``
    (:func:`~fwrta.constraints.compose_h_p`) at the frame's ``(x, t)``; returns ``h_b``
    and the filter's result, its ``u`` a :class:`ControlInput`.

    The constraint row is the barrier's rate along the input columns;
    its roll entry is generically nonzero, so all three channels
    participate.
    """
    _, hb, drift, row = _affine_terms(ctx, pos, p)
    res = filter_input(u_d, hb, drift, row, p.ext)
    res.u = ControlInput(*res.u)
    return hb, res

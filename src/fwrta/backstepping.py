"""Backstepping barrier assurance (strategy 2).

The barrier builds on the extended layer: ``h_e``, its rate at fixed
velocity ``D`` and its velocity gradient ``gv`` come from
:func:`~fwrta.extended.compose_extended_terms`, the extension gain and the
outer filter's gains from ``BacksteppingParams.ext``.  The smooth filter
step of :mod:`fwrta.filters`, run over accelerations from zero against
``D + gamma_e h_e`` and the row ``W_e^T gv``, yields a safe acceleration
``a_s`` and turn rate ``R_s = c1 . a_s / V_T``.
``h_b = h_e - (R_s - R)^2 / (2 mu_e)`` penalizes the gap to the actual
turn rate, so its rate depends on the roll channel and the outer input
filter (:func:`~fwrta.filters.filter_input`) commands all three inputs;
:func:`rta_backstepping` returns ``h_b`` with its
:class:`~fwrta.filters.FilterResult`.

The rate of ``h_b`` is one scalar pass along the drift and the ``A_T``
and ``Q`` columns: the members' rates from frame projections
(:func:`~fwrta.extended.member_frame_rates`), composed by the softmin,
and ``gv'`` only through the two contractions ``c1 . a_s'`` reads.  The
frame's rates are closed form: ``c1_dot = -R c0 + P c2``, ``V_dot = A_T``
and the turn rate's, so ``P`` enters only through them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constraints import ConstraintSet, frame_jets
from .dual import ZERO3, dot3
from .extended import ExtendedParams, compose_extended_terms, member_frame_rates
from .filters import FilterResult, WeightFactor, check_positive, filter_input, filter_step, lambda_smooth_rate
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


def _pipeline(ctx: TrackContext, cset: ConstraintSet, p: BacksteppingParams):
    """``(h_e, a_s, R_s, h_b)`` at the frame's ``(x, t)``, then the members' terms,
    weights, ``a_e``, ``b`` and the step's result."""
    h_e, D, gv, _, w, terms = compose_extended_terms(frame_jets(ctx, cset), ctx.v, cset.kappa, p.ext.gamma_p)
    # barrier rate at zero acceleration plus decay
    a_e = D + p.gamma_e * h_e
    b = p.W_e.apply_t(gv)
    res = filter_step(ZERO3, a_e, b, p.W_e.apply, p.nu_e)
    R_s = dot3(ctx.c1, res.u) / ctx.V_T
    gap = R_s - ctx.R
    return (h_e, res.u, R_s, h_e - gap * gap * (0.5 / p.mu_e)), (terms, w, a_e, b, res)


def h_b(ctx: TrackContext, cset: ConstraintSet, p: BacksteppingParams) -> float:
    """Penalized barrier at the frame's ``(x, t)``; never exceeds the composed extension."""
    return _pipeline(ctx, cset, p)[0][3]


def _affine_terms(ctx: TrackContext, cset: ConstraintSet, p: BacksteppingParams):
    """``(h_e, h_b)`` at the frame's ``(x, t)`` and the rate of ``h_b`` as ``drift + row . u``."""
    c0, c1, c2 = ctx.c0, ctx.c1, ctx.c2
    V, R = ctx.V_T, ctx.R
    (h_e, a_s, R_s, hb), (terms, w, a_e, b, res) = _pipeline(ctx, cset, p)
    jets = frame_jets(ctx, cset)
    rates = [member_frame_rates(j, p.ext.gamma_p, ctx) for j in jets]
    # c1 . a_s' reads gv' = sum w_i' gv_i (+ w_i n_i'/gamma_p on the drift) only
    # through W_b . gv' (|b|') and gam . gv', with W_b = W_e b and gam = W_e W_e^T c1
    W_e, kappa, lam = p.W_e, cset.kappa, res.lam
    W_b, gam = W_e.apply(b), W_e.apply(W_e.apply_t(c1))
    b_norm, c1_Wb = math.sqrt(res.bn2), dot3(c1, W_b)
    proj, b_f, g_f = [], 0.0, 0.0
    for x, t, (_, (_, n1), _, _) in zip(w, terms, jets):
        gv = t[2:]
        proj.append((dot3(W_b, gv), dot3(gam, gv)))
        b_f, g_f = b_f + x * dot3(W_b, n1), g_f + x * dot3(gam, n1)
    g = 1.0 / p.ext.gamma_p
    D_he, D_as = [], []
    for along, (b_o, g_o) in zip(zip(*rates), ((b_f * g, g_f * g), (0.0, 0.0), (0.0, 0.0))):
        # the softmin along the direction: h' = sum w_i E_i', w_i' = kappa w_i (h' - E_i')
        h_o = D_o = 0.0
        for x, (e, _) in zip(w, along):
            h_o += x * e
        for x, t, (e, d), (pb, pg) in zip(w, terms, along, proj):
            y = kappa * x * (h_o - e)
            D_o, b_o, g_o = D_o + (y * t[1] + x * d), b_o + y * pb, g_o + y * pg
        # a zero row is the step's no-authority branch: a_s = 0, taken as constant
        a_o = D_o + p.gamma_e * h_o
        lam_o = lambda_smooth_rate(a_e, b_norm, p.nu_e, lam, res.slope, a_o, b_o / b_norm) if b_norm else 0.0
        D_he.append(h_o)
        D_as.append(lam_o * c1_Wb + lam * g_o)
    (he_f, he_a, he_q), (as_f, as_a, as_q) = D_he, D_as
    # rates over (drift, A_T, P, Q) with D c1 = (-R c0, 0, c2, 0) and
    # D V_T = (0, 1, 0, 0): D R_s = (D c1 . a_s + c1 . D a_s - R_s D V_T) / V_T
    D_he = (he_f, he_a, 0.0, he_q)
    D_Rs = ((as_f - R * dot3(c0, a_s)) / V, (as_a - R_s) / V, dot3(c2, a_s) / V, as_q / V)
    D_R = (ctx.g_over_V * ctx.s_th * R, -R / V, ctx.g_over_V * ctx.c_ph * ctx.c_th, 0.0)
    gap, mu = R_s - R, p.mu_e
    drift = D_he[0] - gap * (D_Rs[0] - D_R[0]) / mu
    row = (D_he[1] - gap * (D_Rs[1] - D_R[1]) / mu, D_he[2] - gap * (D_Rs[2] - D_R[2]) / mu,
           D_he[3] - gap * (D_Rs[3] - D_R[3]) / mu)
    return h_e, hb, drift, row


def rta_backstepping(
    ctx: TrackContext, u_d: ControlInput, cset: ConstraintSet, p: BacksteppingParams
) -> tuple[float, FilterResult]:
    """Filter the desired input against the penalized barrier at the frame's ``(x, t)``;
    returns ``h_b`` and the filter's result, its ``u`` a :class:`ControlInput`.

    The constraint row is the barrier's rate along the input columns;
    its roll entry is generically nonzero, so all three channels
    participate.
    """
    _, hb, drift, row = _affine_terms(ctx, cset, p)
    res = filter_input(u_d, hb, drift, row, p.ext)
    res.u = ControlInput(*res.u)
    return hb, res
